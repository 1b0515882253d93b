// Bound-audit suite for the branch-and-bound pruning machinery. Ground truth is a brute-force enumeration of the full
// prefix lattice with a backward suffix DP:
//
//     suffix(S) = min over completions of S of the max transient step
//               = min over edges S->C of max(step_peak(S->C), suffix(C)),
//
// the tightest peak any continuation of S can achieve. A bound is
// *admissible* iff it never exceeds that truth — pruning on an inadmissible
// bound could cut the optimal schedule. Over ~1000 small random DAGs this
// suite pins, against that oracle:
//
//  - the residual bound (AppendFrontier's max unscheduled min-step), and
//  - the frontier-alloc floor (ComputeFrontierAllocs / ChildNextAllocFloor),
//    including its EXACTNESS against per-child recomputation — exactness is
//    what keeps duplicate candidates agreeing, hence determinism,
//
// and that a 4-thread sharded bounded run reproduces the sequential run bit
// for bit — result AND state counts.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/dp_scheduler.h"
#include "core/state_store.h"
#include "sched/baselines.h"
#include "testing/random_graphs.h"
#include "util/bitset.h"
#include "util/rng.h"

namespace serenity::core {
namespace {

constexpr std::int64_t kInf = std::numeric_limits<std::int64_t>::max() / 2;

// Full prefix lattice of a graph: per state its signature, running
// footprint, outgoing edges, and the exact suffix peak defined above.
struct Lattice {
  struct Edge {
    std::int32_t child;
    std::int64_t step_peak;
  };
  std::vector<std::vector<std::uint64_t>> sig;
  std::vector<std::int64_t> footprint;
  std::vector<std::uint64_t> hash;  // XOR of SignatureHasher keys, DP-style
  std::vector<std::vector<Edge>> edges;
  std::vector<std::vector<std::int32_t>> level_states;
  std::vector<std::int64_t> suffix;
  std::unordered_map<std::uint64_t, std::vector<std::int32_t>> by_hash;

  std::int32_t Find(std::uint64_t h, const std::uint64_t* s,
                    std::size_t words) const {
    auto it = by_hash.find(h);
    if (it == by_hash.end()) return -1;
    for (const std::int32_t i : it->second) {
      if (std::equal(s, s + words, sig[static_cast<std::size_t>(i)].data())) {
        return i;
      }
    }
    return -1;
  }
};

Lattice EnumerateLattice(const ExpansionTables& tables,
                         const SignatureHasher& hasher) {
  const std::size_t n = tables.num_nodes();
  const std::size_t words = tables.words_per_state();
  Lattice lat;
  lat.level_states.resize(n + 1);
  lat.sig.push_back(std::vector<std::uint64_t>(words, 0));
  lat.footprint.push_back(0);
  lat.hash.push_back(0);
  lat.edges.emplace_back();
  lat.by_hash[0].push_back(0);
  lat.level_states[0].push_back(0);
  std::vector<std::int32_t> frontier;
  for (std::size_t lvl = 0; lvl < n; ++lvl) {
    for (const std::int32_t s : lat.level_states[lvl]) {
      const std::vector<std::uint64_t> sig = lat.sig[static_cast<std::size_t>(s)];
      const std::int64_t foot = lat.footprint[static_cast<std::size_t>(s)];
      const std::uint64_t h = lat.hash[static_cast<std::size_t>(s)];
      frontier.clear();
      tables.AppendFrontier(sig.data(), &frontier, nullptr);
      for (const std::int32_t u : frontier) {
        const auto t = tables.Apply(sig.data(), u, foot, kInf);
        std::vector<std::uint64_t> child = sig;
        util::SpanSetBit(child.data(), static_cast<std::size_t>(u));
        const std::uint64_t ch =
            h ^ hasher.key(static_cast<std::size_t>(u));
        std::int32_t ci = lat.Find(ch, child.data(), words);
        if (ci < 0) {
          ci = static_cast<std::int32_t>(lat.sig.size());
          lat.by_hash[ch].push_back(ci);
          lat.sig.push_back(std::move(child));
          lat.footprint.push_back(t.footprint);
          lat.hash.push_back(ch);
          lat.edges.emplace_back();
          lat.level_states[lvl + 1].push_back(ci);
        }
        lat.edges[static_cast<std::size_t>(s)].push_back(
            Lattice::Edge{ci, t.step_peak});
      }
    }
  }
  lat.suffix.assign(lat.sig.size(), 0);
  for (std::size_t lvl = n; lvl-- > 0;) {
    for (const std::int32_t s : lat.level_states[lvl]) {
      std::int64_t best = kInf;
      for (const Lattice::Edge& e : lat.edges[static_cast<std::size_t>(s)]) {
        best = std::min(
            best,
            std::max(e.step_peak,
                     lat.suffix[static_cast<std::size_t>(e.child)]));
      }
      lat.suffix[static_cast<std::size_t>(s)] = best;
    }
  }
  return lat;
}

TEST(BoundAdmissibility, EveryBoundRespectsTheSuffixOracle) {
  util::Rng rng(20260808);
  constexpr int kGraphs = 1000;
  for (int i = 0; i < kGraphs; ++i) {
    testing::RandomDagOptions opts;
    opts.num_ops = 4 + i % 7;
    opts.max_channels = 1 + i % 5;
    opts.extra_edge_p = (i % 4) * 0.25;
    opts.join_sinks = i % 3 != 0;
    const graph::Graph g =
        testing::RandomDag(rng, opts, "adm" + std::to_string(i));
    const std::string ctx = "graph " + std::to_string(i);
    const ExpansionTables tables = ExpansionTables::Build(g);
    const SignatureHasher hasher(tables.num_nodes());
    const Lattice lat = EnumerateLattice(tables, hasher);

    ExpansionTables::FrontierAllocs fa;
    std::vector<std::int32_t> frontier, child_frontier;

    for (std::size_t s = 0; s < lat.sig.size(); ++s) {
      const std::uint64_t* sig = lat.sig[s].data();
      const std::int64_t foot = lat.footprint[s];
      if (lat.edges[s].empty()) continue;  // full state: no bounds apply

      // Residual bound: every completion schedules each unscheduled node,
      // paying at least its min step — so residual <= suffix.
      frontier.clear();
      std::int64_t residual = 0;
      tables.AppendFrontier(sig, &frontier, &residual);
      ASSERT_LE(residual, lat.suffix[s]) << ctx << " state " << s;

      // Frontier allocs: exact per-candidate, and the floor is a true
      // lower bound on the very next step (hence on the suffix).
      tables.ComputeFrontierAllocs(sig, frontier, &fa);
      ASSERT_EQ(fa.alloc.size(), frontier.size()) << ctx;
      std::int64_t min_next_step = kInf;
      for (std::size_t fi = 0; fi < frontier.size(); ++fi) {
        const auto t = tables.Apply(sig, frontier[fi], foot, kInf);
        ASSERT_EQ(fa.alloc[fi], t.step_peak - foot)
            << ctx << " state " << s << " cand " << frontier[fi];
        min_next_step = std::min(min_next_step, t.step_peak);
      }
      ASSERT_EQ(foot + fa.min1, min_next_step) << ctx << " state " << s;
      ASSERT_LE(foot + fa.min1, lat.suffix[s]) << ctx << " state " << s;

      for (std::size_t fi = 0; fi < frontier.size(); ++fi) {
        const std::int32_t u = frontier[fi];
        const Lattice::Edge& e = lat.edges[s][fi];
        const std::size_t c = static_cast<std::size_t>(e.child);
        if (lat.edges[c].empty()) continue;  // full-state child: no floor

        // Child floor: exact against direct recomputation on the child,
        // and admissible against the child's suffix.
        const std::int64_t floor =
            tables.ChildNextAllocFloor(lat.sig[c].data(), u, fa);
        child_frontier.clear();
        tables.AppendFrontier(lat.sig[c].data(), &child_frontier, nullptr);
        std::int64_t direct = kInf;
        for (const std::int32_t v : child_frontier) {
          const auto tv =
              tables.Apply(lat.sig[c].data(), v, lat.footprint[c], kInf);
          direct = std::min(direct, tv.step_peak - lat.footprint[c]);
        }
        ASSERT_EQ(floor, direct) << ctx << " state " << s << " -> " << u;
        ASSERT_LE(lat.footprint[c] + floor, lat.suffix[c])
            << ctx << " state " << s << " -> " << u;
      }
      if (::testing::Test::HasFailure()) return;  // one counterexample
    }
  }
}

TEST(BoundAdmissibility, BoundedRunsAreThreadInvariantAndExact) {
  util::Rng rng(424255);
  constexpr int kGraphs = 250;
  for (int i = 0; i < kGraphs; ++i) {
    testing::RandomDagOptions opts;
    opts.num_ops = 5 + i % 9;
    opts.max_channels = 1 + i % 5;
    opts.extra_edge_p = (i % 4) * 0.25;
    opts.join_sinks = i % 3 != 0;
    const graph::Graph g =
        testing::RandomDag(rng, opts, "bnd" + std::to_string(i));
    const std::string ctx = "graph " + std::to_string(i);

    const DpResult off = ScheduleDp(g);
    ASSERT_EQ(off.status, DpStatus::kSolution) << ctx;

    // Incumbent seeded the way the pipeline does (achievable, >= µ*).
    const std::int64_t incumbent =
        sched::PeakFootprint(g, sched::GreedyMemorySchedule(g));
    ASSERT_GE(incumbent, off.peak_bytes) << ctx;

    DpOptions seq;
    seq.incumbent_bytes = incumbent;
    const DpResult a = ScheduleDp(g, seq);
    ASSERT_EQ(a.status, DpStatus::kSolution) << ctx;
    EXPECT_EQ(a.peak_bytes, off.peak_bytes) << ctx;
    EXPECT_EQ(a.schedule, off.schedule) << ctx;
    EXPECT_LE(a.states_expanded, off.states_expanded) << ctx;

    DpOptions par = seq;
    par.num_threads = 4;
    const DpResult b = ScheduleDp(g, par);
    ASSERT_EQ(b.status, DpStatus::kSolution) << ctx;
    EXPECT_EQ(b.peak_bytes, a.peak_bytes) << ctx;
    EXPECT_EQ(b.schedule, a.schedule) << ctx;
    EXPECT_EQ(b.states_expanded, a.states_expanded) << ctx;
    EXPECT_EQ(b.transitions, a.transitions) << ctx;
    EXPECT_EQ(b.states_pruned_by_bound, a.states_pruned_by_bound) << ctx;
    EXPECT_EQ(b.max_level_states, a.max_level_states) << ctx;

    if (::testing::Test::HasFailure()) return;
  }
}

}  // namespace
}  // namespace serenity::core
