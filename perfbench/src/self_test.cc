// Self-tests of the output checkers: each checker must accept a small
// hand-computed example and reject a corrupted one, or its verdicts on the
// real workloads prove nothing.
#include <cstring>
#include <string>
#include <vector>

#include "alloc/arena_planner.h"
#include "checks.h"
#include "graph/builder.h"

namespace perfbench {

using serenity::graph::Graph;
using serenity::graph::GraphBuilder;
using serenity::graph::NodeId;
using serenity::graph::TensorShape;
using serenity::runtime::Tensor;
using serenity::sched::Schedule;

namespace {

// x -> a = relu(x), b = relu(x) -> c = add(a, b); every value 4 floats,
// 16 bytes. In the order x, a, b, c the live sets are {x} 16, {x, a} 32,
// {x, a, b} 48 (x dies after b reads it), {a, b, c} 48 (c, unread, stays):
// the peak is 48 bytes.
Graph HandExample(NodeId* x, NodeId* a, NodeId* b, NodeId* c) {
  GraphBuilder g("hand_example");
  *x = g.Input(TensorShape{1, 1, 1, 4}, "x");
  *a = g.Relu(*x, "a");
  *b = g.Relu(*x, "b");
  *c = g.Add({*a, *b}, "c");
  return std::move(g).Build();
}

void Expect(bool ok, const std::string& what, std::vector<std::string>* out) {
  if (!ok) out->push_back(what);
}

}  // namespace

std::vector<std::string> RunCheckerSelfTests() {
  std::vector<std::string> failures;
  NodeId x, a, b, c;
  const Graph g = HandExample(&x, &a, &b, &c);
  const Schedule good = {x, a, b, c};

  Expect(CheckTopologicalCover(g, good).empty(),
         "topological check rejects a valid order", &failures);
  Expect(!CheckTopologicalCover(g, {x, c, a, b}).empty(),
         "topological check accepts a node before its inputs", &failures);
  Expect(!CheckTopologicalCover(g, {x, a, a, c}).empty(),
         "topological check accepts a duplicated node", &failures);
  Expect(!CheckTopologicalCover(g, {x, a, b}).empty(),
         "topological check accepts a missing node", &failures);

  Expect(LivenessPeak(g, good) == 48,
         "liveness sum of the hand example is " +
             std::to_string(LivenessPeak(g, good)) + ", not 48",
         &failures);

  serenity::alloc::ArenaPlan plan = serenity::alloc::PlanArena(g, good);
  Expect(CheckPlacements(g, good, plan).empty(),
         "placement check rejects the planner's plan of the hand example: " +
             CheckPlacements(g, good, plan),
         &failures);
  // a and b are live together at step 2: give b a's bytes.
  serenity::alloc::ArenaPlan overlapping = plan;
  std::int64_t a_offset = -1;
  for (const auto& p : overlapping.placements) {
    if (p.buffer == g.node(a).buffer) a_offset = p.offset;
  }
  for (auto& p : overlapping.placements) {
    if (p.buffer == g.node(b).buffer) p.offset = a_offset;
  }
  Expect(!CheckPlacements(g, good, overlapping).empty(),
         "placement check accepts two live buffers on the same bytes",
         &failures);
  serenity::alloc::ArenaPlan too_small = plan;
  too_small.arena_bytes -= 1;
  Expect(!CheckPlacements(g, good, too_small).empty(),
         "placement check accepts a placement past the arena end", &failures);

  Tensor t(TensorShape{1, 1, 1, 4});
  t.Assign({1.0f, -2.5f, 3.25f, 0.0f});
  const std::vector<Tensor> want = {t};
  std::vector<Tensor> flipped = want;
  std::uint32_t bits = 0;
  std::memcpy(&bits, flipped[0].data() + 2, sizeof bits);
  bits ^= 1u;  // lowest mantissa bit
  std::memcpy(flipped[0].data() + 2, &bits, sizeof bits);
  Expect(CompareBitExact(want, want).empty(),
         "bit comparison rejects equal sinks", &failures);
  Expect(!CompareBitExact(flipped, want).empty(),
         "bit comparison misses a single flipped bit", &failures);
  Expect(CompareWithin(flipped, want, 1e-5).empty(),
         "tolerance comparison rejects a one-ulp difference", &failures);
  Expect(!CompareWithin({Tensor(TensorShape{1, 1, 1, 4})}, want, 1e-5).empty(),
         "tolerance comparison accepts zeros for nonzero sinks", &failures);
  return failures;
}

}  // namespace perfbench
