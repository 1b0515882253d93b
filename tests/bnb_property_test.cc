// Randomized property suite for the branch-and-bound search core (PR:
// incumbent-seeded B&B + streaming beam). Over 1000 random DAGs it pins:
//
//  - DP bit-identity: peak AND reconstructed schedule are identical with
//    bound pruning off, with a heuristic incumbent (greedy/beam seed), and
//    with the tightest valid incumbent (µ* itself) — while never expanding
//    more states than the unpruned search. Strict-inequality pruning plus
//    the intrinsic relax tie-break make this exact (DESIGN.md
//    "Branch-and-bound over levels").
//    A sink-dominated exemplar rides along as one more input.
//  - Thread invariance under pruning: a 4-thread bounded run reproduces the
//    sequential bounded run bit for bit.
//  - Streaming beam: InsertBounded/SealBounded keep exactly the same
//    `width` states with the same tie-breaks as the seal-and-copy reference
//    (testing::ReferenceScheduleBeam), so schedules, peaks and expansion
//    counts coincide at every width.
//  - Soft-budget interplay: the Kahn-tightened incumbent inside
//    ScheduleWithSoftBudget changes neither the schedule nor the peak.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "core/dp_scheduler.h"
#include "core/soft_budget.h"
#include "graph/builder.h"
#include "sched/baselines.h"
#include "sched/beam.h"
#include "sched/schedule.h"
#include "testing/random_graphs.h"
#include "testing/reference_impls.h"
#include "util/rng.h"

namespace serenity::core {
namespace {

// Runs the unpruned DP and the bounded DP at a heuristic and at the
// tightest valid incumbent, and expects the same peak and schedule from
// every run. `sharded` adds a 4-thread bounded run, `soft_budget` the
// meta-search with and without pruning.
void ExpectPruningBitIdentical(const graph::Graph& g, const std::string& ctx,
                               bool sharded, bool soft_budget) {
  const DpResult off = ScheduleDp(g);
  ASSERT_EQ(off.status, DpStatus::kSolution) << ctx;

  // Heuristic incumbent, exactly as the pipeline seeds it.
  std::int64_t incumbent =
      sched::PeakFootprint(g, sched::GreedyMemorySchedule(g));
  sched::BeamOptions seed;
  seed.width = 4;
  incumbent = std::min(incumbent, sched::ScheduleBeam(g, seed).peak_bytes);
  ASSERT_GE(incumbent, off.peak_bytes) << ctx;  // achievable => valid

  DpOptions heuristic;
  heuristic.incumbent_bytes = incumbent;
  const DpResult on = ScheduleDp(g, heuristic);
  ASSERT_EQ(on.status, DpStatus::kSolution) << ctx;
  EXPECT_EQ(on.peak_bytes, off.peak_bytes) << ctx;
  EXPECT_EQ(on.schedule, off.schedule) << ctx;
  EXPECT_LE(on.states_expanded, off.states_expanded) << ctx;

  // Tightest valid incumbent: µ* itself maximizes pruning pressure and
  // must still be bit-identical.
  DpOptions tight;
  tight.incumbent_bytes = off.peak_bytes;
  const DpResult tightest = ScheduleDp(g, tight);
  ASSERT_EQ(tightest.status, DpStatus::kSolution) << ctx;
  EXPECT_EQ(tightest.peak_bytes, off.peak_bytes) << ctx;
  EXPECT_EQ(tightest.schedule, off.schedule) << ctx;
  EXPECT_LE(tightest.states_expanded, on.states_expanded) << ctx;

  // Sharded expansion under pruning stays bit-identical too.
  if (sharded) {
    DpOptions sharded_options = tight;
    sharded_options.num_threads = 4;
    const DpResult mt = ScheduleDp(g, sharded_options);
    ASSERT_EQ(mt.status, DpStatus::kSolution) << ctx;
    EXPECT_EQ(mt.peak_bytes, off.peak_bytes) << ctx;
    EXPECT_EQ(mt.schedule, off.schedule) << ctx;
    EXPECT_EQ(mt.states_expanded, tightest.states_expanded) << ctx;
    EXPECT_EQ(mt.states_pruned_by_bound, tightest.states_pruned_by_bound)
        << ctx;
  }

  // Soft-budget interplay: the meta-search with its Kahn-tightened
  // incumbent must land on the same schedule as without pruning.
  if (soft_budget) {
    SoftBudgetOptions sb_off;
    sb_off.enable_bound_pruning = false;
    SoftBudgetOptions sb_on;
    sb_on.incumbent_bytes = incumbent;
    const SoftBudgetResult a = ScheduleWithSoftBudget(g, sb_off);
    const SoftBudgetResult b = ScheduleWithSoftBudget(g, sb_on);
    ASSERT_EQ(a.status, DpStatus::kSolution) << ctx;
    ASSERT_EQ(b.status, DpStatus::kSolution) << ctx;
    EXPECT_EQ(b.peak_bytes, a.peak_bytes) << ctx;
    EXPECT_EQ(b.schedule, a.schedule) << ctx;
  }
}

// A sink-dominated exemplar: three spines each producing a large buffer
// consumed by six tiny sinks — 19 of 22 nodes are sinks or near-sinks, so
// the bounds have nothing to cut on early levels and the tight region
// arrives late.
graph::Graph SinkDominatedGraph() {
  graph::GraphBuilder b("sinkdom");
  const graph::NodeId in = b.Input(graph::TensorShape{1, 16, 16, 2}, "in");
  for (int s = 0; s < 3; ++s) {
    const graph::NodeId big =
        b.Conv1x1(in, 16 + 8 * s, "big" + std::to_string(s));
    for (int k = 0; k < 6; ++k) {
      (void)b.Conv1x1(big, 1 + (k % 3),
                      "sink" + std::to_string(s) + "_" + std::to_string(k));
    }
  }
  return std::move(b).Build();
}

TEST(BnbProperty, DpBitIdenticalWithPruningOnRandomGraphs) {
  util::Rng rng(20260730);
  constexpr int kGraphs = 1000;
  for (int i = 0; i < kGraphs; ++i) {
    testing::RandomDagOptions opts;
    opts.num_ops = 4 + i % 13;
    opts.max_channels = 1 + i % 5;
    opts.extra_edge_p = (i % 4) * 0.25;
    opts.join_sinks = i % 3 != 0;
    const graph::Graph g =
        testing::RandomDag(rng, opts, "bnb" + std::to_string(i));
    ExpectPruningBitIdentical(g, "graph " + std::to_string(i),
                              /*sharded=*/i % 7 == 0,
                              /*soft_budget=*/i % 11 == 0);
    if (::testing::Test::HasFailure()) return;  // one counterexample
  }
  ExpectPruningBitIdentical(SinkDominatedGraph(), "sink-dominated",
                            /*sharded=*/true, /*soft_budget=*/true);
}

TEST(BnbProperty, StreamingBeamMatchesSealAndCopyReference) {
  util::Rng rng(424242);
  constexpr int kGraphs = 1000;
  const int widths[] = {1, 2, 3, 8};
  for (int i = 0; i < kGraphs; ++i) {
    testing::RandomDagOptions opts;
    opts.num_ops = 4 + i % 12;
    opts.max_channels = 1 + i % 4;
    opts.extra_edge_p = (i % 5) * 0.2;
    opts.join_sinks = i % 2 == 0;
    const graph::Graph g =
        testing::RandomDag(rng, opts, "beam" + std::to_string(i));
    sched::BeamOptions options;
    options.width = widths[i % 4];
    const sched::BeamResult streaming = sched::ScheduleBeam(g, options);
    const sched::BeamResult reference =
        testing::ReferenceScheduleBeam(g, options);
    const std::string ctx =
        "graph " + std::to_string(i) + " width " +
        std::to_string(options.width);
    EXPECT_EQ(streaming.peak_bytes, reference.peak_bytes) << ctx;
    EXPECT_EQ(streaming.schedule, reference.schedule) << ctx;
    EXPECT_EQ(streaming.states_expanded, reference.states_expanded) << ctx;
    if (::testing::Test::HasFailure()) return;  // one counterexample
  }
}

}  // namespace
}  // namespace serenity::core
