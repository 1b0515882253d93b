#include "workload.h"

#include <algorithm>

#include "cpus.h"
#include "models/random_cell.h"
#include "models/zoo.h"
#include "serialize/serialize.h"
#include "util/rng.h"

namespace perfbench {

namespace {

// (intermediates per cell, generator seed) of the stacked graphs. Each is
// ~130-140 nodes before rewriting and splits into four segments. The
// generator seeds were picked so that every graph compiles in well under a
// second with bound pruning on (far from the soft budget's 1 s level
// timeout and 2 M state cap) while keeping 3.5-19 MB of search memory
// without bounds, so bound pruning has work to do on every graph.
struct StackSpec {
  int intermediates;
  std::uint64_t seed;
  const char* name;
};
constexpr StackSpec kStacks[] = {
    {18, 2, "stack-i18-s2"}, {18, 4, "stack-i18-s4"}, {20, 1, "stack-i20-s1"},
    {20, 2, "stack-i20-s2"}, {20, 6, "stack-i20-s6"},
};

BenchGraph Make(std::string name, serenity::graph::Graph graph) {
  std::string text = serenity::serialize::ToText(graph);
  return BenchGraph{std::move(name), std::move(graph), std::move(text)};
}

}  // namespace

std::optional<Workload> MakeWorkload(const std::string& name) {
  Workload w;
  w.name = name;
  if (name == "zoo") {
    for (const auto& cell : serenity::models::AllBenchmarkCells()) {
      w.graphs.push_back(Make(cell.group + "/" + cell.name, cell.factory()));
    }
    w.connections = 1;
    return w;
  }
  if (name == "stacked") {
    for (const StackSpec& spec : kStacks) {
      serenity::models::RandomCellParams p;
      p.num_cells = 4;
      p.num_intermediates = spec.intermediates;
      p.spatial = 8;
      p.seed = spec.seed;
      p.name = spec.name;
      w.graphs.push_back(
          Make(spec.name, serenity::models::MakeRandomCellNetwork(p)));
    }
    // A connection keeps a client thread and a server worker busy in turn:
    // one per two CPUs leaves every pair room, so the scheduler does not
    // stack them. Two or more when the machine has the CPUs, at most four.
    const int cpus = static_cast<int>(AllowedCpus().size());
    w.connections = std::min(cpus, std::clamp(cpus / 2, 2, 4));
    return w;
  }
  return std::nullopt;
}

std::vector<serenity::runtime::Tensor> MakeInputs(
    const serenity::graph::Graph& graph, std::uint64_t seed) {
  serenity::util::Rng rng(seed);
  std::vector<serenity::runtime::Tensor> inputs;
  for (const auto& node : graph.nodes()) {
    if (node.kind == serenity::graph::OpKind::kInput) {
      inputs.push_back(serenity::runtime::Tensor::Random(node.shape, rng));
    }
  }
  return inputs;
}

std::uint64_t MixSeed(std::uint64_t seed, std::uint64_t stream) {
  serenity::util::Rng rng(seed * 0x100000001b3ull + stream);
  return rng.NextU64();
}

}  // namespace perfbench
