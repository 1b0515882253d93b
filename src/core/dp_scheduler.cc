#include "core/dp_scheduler.h"

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

#include "core/state_store.h"
#include "graph/analysis.h"
#include "testing/fault_injection.h"
#include "util/bitset.h"
#include "util/logging.h"
#include "util/stopwatch.h"

namespace serenity::core {

const char* ToString(DpStatus status) {
  switch (status) {
    case DpStatus::kSolution:
      return "solution";
    case DpStatus::kNoSolution:
      return "no solution";
    case DpStatus::kTimeout:
      return "timeout";
    case DpStatus::kResourceExhausted:
      return "resource exhausted";
    case DpStatus::kCancelled:
      return "cancelled";
  }
  return "unknown";
}

namespace {

// StateLevel::ShardOf derives the shard from the top 6 hash bits, so at
// most 64 shards can ever be populated; clamp thread/shard counts there.
constexpr int kMaxShards = 64;

int ShardCountFor(int num_threads) {
  int shards = 1;
  while (shards < num_threads && shards < kMaxShards) shards <<= 1;
  return shards;
}

class DpRunner {
 public:
  DpRunner(const graph::Graph& graph, const DpOptions& options)
      : options_(options),
        tables_(ExpansionTables::Build(graph)),
        hasher_(static_cast<std::size_t>(graph.num_nodes())),
        num_nodes_(static_cast<std::size_t>(graph.num_nodes())),
        words_(tables_.words_per_state()),
        bound_pruning_(options.incumbent_bytes != kNoBudget),
        incumbent_(options.incumbent_bytes),
        step_limit_(std::min(options.budget_bytes, options.incumbent_bytes)),
        cancel_(options.cancel),
        reservation_(options.memory_budget) {}

  DpResult Run() {
    util::Stopwatch total_clock;
    DpResult result;
    recon_.resize(num_nodes_ + 1);

    // Fixed overhead of the run: graph-side expansion tables plus the two
    // Zobrist key streams. Charged up front so a budget below even the
    // constants fails before any level is built.
    fixed_bytes_ = tables_.ResidentBytes() +
                   static_cast<std::int64_t>(2 * num_nodes_ * 8);
    if (!reservation_.EnsureAtLeast(fixed_bytes_)) {
      result.status = DpStatus::kResourceExhausted;
      return Finish(result, total_clock);
    }

    const int configured =
        std::min(std::max(1, options_.num_threads), kMaxShards);
    // Adaptive mode: the thread pool a big level may escalate to. Derived
    // from the hardware once; whether a given level uses it is decided from
    // that level's reserve hint below.
    int auto_threads = 1;
    if (configured == 1 && options_.adaptive_parallelism) {
      auto_threads = std::min<int>(
          kMaxShards,
          std::max<int>(1, static_cast<int>(
                               std::thread::hardware_concurrency())));
    }

    // Level 0: the empty schedule (Algorithm 1 lines 4-5). When bounding,
    // the root's one-step floor is computed directly (every other state
    // gets its floor stored by the parent that inserts it).
    StateLevel current;
    current.Init(words_, 1, 1);
    const std::vector<std::uint64_t> empty(words_, 0);
    std::int64_t root_floor = StateLevel::kFloorUnknown;
    if (bound_pruning_) {
      std::vector<std::int32_t> root_frontier;
      ExpansionTables::FrontierAllocs root_allocs;
      tables_.AppendFrontier(empty.data(), &root_frontier, nullptr);
      tables_.ComputeFrontierAllocs(empty.data(), root_frontier,
                                    &root_allocs);
      root_floor = root_allocs.min1;
    }
    current.InsertOrRelax(empty.data(), SignatureHasher::kEmptyHash, 0, 0,
                          0, -1, -1, root_floor);
    current.Seal();

    for (std::size_t i = 0; i < num_nodes_; ++i) {
      util::Stopwatch level_clock;
      if (current.size() == 0) {
        // Every prefix of length i was pruned: the budget is below µ*.
        // (Bound pruning alone cannot empty a level — states on an optimal
        // path never exceed a valid incumbent.)
        result.status = DpStatus::kNoSolution;
        result.levels_completed = static_cast<int>(i);
        return Finish(result, total_clock);
      }
      if (CancelRequested()) {
        result.status = DpStatus::kCancelled;
        result.levels_completed = static_cast<int>(i);
        return Finish(result, total_clock);
      }
      const std::size_t hint =
          NextLevelReserveHint(current.size(), options_.max_states);
      int level_threads = configured;
      if (configured == 1 && auto_threads > 1 &&
          hint >= options_.parallel_threshold_states) {
        level_threads = auto_threads;
      }
      const int level_shards =
          level_threads > 1 ? ShardCountFor(level_threads) : 1;
      // Charge the next level's reserve before it allocates. The estimate
      // mirrors Init's reserve math exactly, so a successful charge means
      // Init itself stays within the reservation.
      if (!EnsureResident(current.ResidentBytes() +
                          StateLevel::EstimateBytes(words_, hint,
                                                    level_shards))) {
        result.status = DpStatus::kResourceExhausted;
        result.levels_completed = static_cast<int>(i);
        return Finish(result, total_clock);
      }
      StateLevel next;
      next.Init(words_, hint, level_shards);
      const bool completed =
          level_threads > 1
              ? ExpandLevelSharded(current, next, level_threads, level_clock)
              : ExpandLevel(current, next, level_clock);
      if (!completed ||
          level_clock.ElapsedSeconds() > options_.step_timeout_seconds) {
        result.status = completed ? DpStatus::kTimeout : AbortStatus();
        result.levels_completed = static_cast<int>(i);
        return Finish(result, total_clock);
      }
      next.Seal();
      max_level_states_ =
          std::max(max_level_states_,
                   static_cast<std::uint64_t>(next.size()));
      // The finished level keeps only its 8-byte reconstruction records;
      // signatures, hashes, footprints and peaks are freed here.
      recon_[i] = current.TakeReconAndRelease();
      recon_bytes_ += static_cast<std::int64_t>(recon_[i].capacity() *
                                                sizeof(ReconRecord));
      current = std::move(next);
      result.levels_completed = static_cast<int>(i) + 1;
    }

    if (current.size() == 0) {
      result.status = DpStatus::kNoSolution;
    } else {
      // A DAG has exactly one full signature (Algorithm 1 line 27).
      SERENITY_CHECK_EQ(current.size(), 1u);
      result.status = DpStatus::kSolution;
      result.peak_bytes = current.peak(0);
      recon_[num_nodes_] = current.TakeReconAndRelease();
      result.schedule = Reconstruct();
    }
    return Finish(result, total_clock);
  }

 private:
  // Why an expansion returned false. kTimeout keeps its historical meaning
  // (step timeout or state cap); memory and cancellation get their own
  // statuses so the pipeline can degrade or unwind accordingly.
  enum class Abort { kTimeout, kMemory, kCancelled };

  DpResult Finish(DpResult result, const util::Stopwatch& clock) const {
    result.states_expanded = states_expanded_;
    result.transitions = transitions_;
    result.states_pruned_by_bound = pruned_;
    result.max_level_states = max_level_states_;
    result.seconds = clock.ElapsedSeconds();
    return result;
  }

  DpStatus AbortStatus() const {
    switch (abort_) {
      case Abort::kMemory: return DpStatus::kResourceExhausted;
      case Abort::kCancelled: return DpStatus::kCancelled;
      case Abort::kTimeout: break;
    }
    return DpStatus::kTimeout;
  }

  // Sticky cancellation poll. The kCancelPoll fault is consulted only when
  // a token is attached (a cancellable context), so runs without one are
  // immune to an armed countdown; sticky because the one-shot fault cannot
  // re-fire on the next poll. Thread-safe: workers of a sharded level poll
  // it concurrently.
  bool CancelRequested() {
    if (cancelled_.load(std::memory_order_relaxed)) return true;
    if (cancel_ == nullptr) return false;
    if (cancel_->cancelled() ||
        testing::FaultTriggered(testing::FaultPoint::kCancelPoll)) {
      cancelled_.store(true, std::memory_order_relaxed);
      return true;
    }
    return false;
  }

  // Grows the run's high-water reservation to cover the state store's
  // current resident bytes (plus the fixed overhead and the accumulated
  // reconstruction records). Monotone: completed-level transients are
  // dropped eagerly but the reservation keeps the run's peak until the
  // whole run ends — the budget governs peaks, not instantaneous usage.
  bool EnsureResident(std::int64_t store_bytes) {
    return reservation_.EnsureAtLeast(fixed_bytes_ + recon_bytes_ +
                                      store_bytes);
  }

  // Parent-side cut on the floor stored when state `s` was inserted.
  bool StoredFloorExceeds(const StateLevel& level, std::size_t s) const {
    const std::int64_t sfloor = level.floor(s);
    return sfloor >= 0 && sfloor != ExpansionTables::kNoAlloc &&
           level.footprint(s) + sfloor > incumbent_;
  }

  // Child-side cut: the child's next step allocates at least `child_floor`
  // on top of its footprint (kNoAlloc for the full state, never cut).
  bool ChildFloorExceeds(std::int64_t child_footprint,
                         std::int64_t child_floor) const {
    return child_floor != ExpansionTables::kNoAlloc &&
           child_footprint + child_floor > incumbent_;
  }

  // Sequential expansion of one level (Algorithm 1 lines 9-24, plus the
  // branch-and-bound cuts of DESIGN.md "Branch-and-bound over levels").
  // Returns false on step timeout or state-cap overrun.
  bool ExpandLevel(const StateLevel& current, StateLevel& next,
                   const util::Stopwatch& level_clock) {
    std::vector<std::int32_t> frontier;
    std::vector<std::uint64_t> child(words_);
    ExpansionTables::FrontierAllocs allocs;
    for (std::size_t s = 0; s < current.size(); ++s) {
      if ((s & 0x3f) == 0 && s != 0 &&
          !CheckLimits(current, next, level_clock)) {
        return false;
      }
      const std::uint64_t* sig = current.signature(s);
      const std::int64_t peak = current.peak(s);
      const std::int64_t footprint = current.footprint(s);
      const std::uint64_t hash = current.hash(s);
      // O(1) pre-frontier cut. The stored floor was already tested when
      // this state was inserted, so it normally cannot fire here — it is a
      // defense against callers that seed levels without bounding (the root
      // path computes its floor directly).
      if (bound_pruning_ && StoredFloorExceeds(current, s)) {
        ++pruned_;
        continue;
      }
      frontier.clear();
      std::int64_t residual = 0;
      tables_.AppendFrontier(sig, &frontier,
                             bound_pruning_ ? &residual : nullptr);
      if (bound_pruning_ && std::max(peak, residual) > incumbent_) {
        // Every completion of this state peaks above a schedule we already
        // hold: cut the whole subtree before expanding a single child.
        ++pruned_;
        continue;
      }
      if (bound_pruning_) {
        // Always computed (not gated): the children's stored floors come
        // from these allocs, and the has_cowriter fast path makes the scan
        // cheap enough to keep on for every level.
        tables_.ComputeFrontierAllocs(sig, frontier, &allocs);
      }
      for (const std::int32_t u : frontier) {
        ++transitions_;
        // Re-check the limits every ~4096 transitions so a single
        // pathological state expansion cannot overshoot them unboundedly.
        if ((transitions_ & 0xfff) == 0 &&
            !CheckLimits(current, next, level_clock)) {
          return false;
        }
        const ExpansionTables::Transition t =
            tables_.Apply(sig, u, footprint, step_limit_);
        if (t.step_peak > options_.budget_bytes) continue;  // prune (§3.2)
        if (t.step_peak > incumbent_) {
          ++pruned_;
          continue;
        }
        std::copy(sig, sig + words_, child.data());
        util::SpanSetBit(child.data(), static_cast<std::size_t>(u));
        const std::uint64_t child_hash =
            hash ^ hasher_.key(static_cast<std::size_t>(u));
        std::int64_t child_floor = StateLevel::kFloorUnknown;
        if (bound_pruning_) {
          // Whatever the child schedules next must peak at least its
          // footprint plus its frontier's min alloc. The floor is admissible
          // and a pure function of the child signature, so every duplicate
          // candidate agrees and relax winners (hence the reconstructed
          // schedule) are preserved. A survivor's floor is stored in the
          // child's SoA slot, where the next level reads it back in O(1).
          child_floor = tables_.ChildNextAllocFloor(child.data(), u, allocs);
          if (ChildFloorExceeds(t.footprint, child_floor)) {
            ++pruned_;
            continue;
          }
        }
        if (next.InsertOrRelax(child.data(), child_hash,
                               t.footprint, std::max(peak, t.step_peak),
                               hasher_.candidate_tie(
                                   hash, static_cast<std::size_t>(u)),
                               static_cast<std::int32_t>(s), u,
                               child_floor)) {
          ++states_expanded_;
        }
      }
      if (states_expanded_ > options_.max_states) {
        abort_ = Abort::kTimeout;
        return false;
      }
    }
    return true;
  }

  // The sequential per-cadence limit probe: step timeout (and state cap,
  // checked per parent below) stay kTimeout; cancellation and a denied
  // budget true-up get their own abort reasons.
  bool CheckLimits(const StateLevel& current, const StateLevel& next,
                   const util::Stopwatch& level_clock) {
    if (level_clock.ElapsedSeconds() > options_.step_timeout_seconds) {
      abort_ = Abort::kTimeout;
      return false;
    }
    if (CancelRequested()) {
      abort_ = Abort::kCancelled;
      return false;
    }
    if (!EnsureResident(current.ResidentBytes() + next.ResidentBytes())) {
      abort_ = Abort::kMemory;
      return false;
    }
    return true;
  }

  // Sharded parallel expansion: every thread scans the whole parent level
  // (the frontier recomputation is duplicated — it is cheap) but computes
  // and inserts only the transitions whose child hash falls in its shards,
  // so each sub-table has exactly one writer and per-shard insertion order
  // is the same ascending (state, node) order regardless of scheduling —
  // the determinism argument in DESIGN.md. Bound pruning is a pure
  // function of the parent state and the transition, so every thread skips
  // the same parents and transitions; the pruned counter attributes each
  // skipped parent to one thread (s % num_threads) and each pruned
  // transition to its shard owner, keeping the total independent of the
  // thread count.
  bool ExpandLevelSharded(const StateLevel& current, StateLevel& next,
                          int num_threads,
                          const util::Stopwatch& level_clock) {
    std::atomic<bool> abort{false};
    std::atomic<int> abort_reason{-1};  // first aborting worker's Abort
    std::atomic<std::uint64_t> transitions{0};
    std::atomic<std::uint64_t> created{0};
    std::atomic<std::uint64_t> pruned{0};
    auto request_abort = [&](Abort reason) {
      int expected = -1;
      abort_reason.compare_exchange_strong(expected,
                                           static_cast<int>(reason),
                                           std::memory_order_relaxed);
      abort.store(true, std::memory_order_relaxed);
    };
    auto worker = [&](int thread_index) {
      std::vector<std::int32_t> frontier;
      std::vector<std::uint64_t> child(words_);
      ExpansionTables::FrontierAllocs allocs;
      std::uint64_t local_transitions = 0;
      std::uint64_t local_created = 0;
      std::uint64_t local_pruned = 0;
      std::uint64_t since_check = 0;
      for (std::size_t s = 0; s < current.size(); ++s) {
        if (abort.load(std::memory_order_relaxed)) break;
        const std::uint64_t* sig = current.signature(s);
        const std::int64_t peak = current.peak(s);
        const std::int64_t footprint = current.footprint(s);
        const std::uint64_t hash = current.hash(s);
        // Every thread evaluates the same parent cuts (they are pure
        // functions of the state), but exactly one — the parent's owner —
        // counts it.
        const bool owns_parent =
            static_cast<int>(s % static_cast<std::size_t>(num_threads)) ==
            thread_index;
        if (bound_pruning_ && StoredFloorExceeds(current, s)) {
          if (owns_parent) ++local_pruned;
          continue;
        }
        frontier.clear();
        std::int64_t residual = 0;
        tables_.AppendFrontier(sig, &frontier,
                               bound_pruning_ ? &residual : nullptr);
        if (bound_pruning_ && std::max(peak, residual) > incumbent_) {
          if (owns_parent) ++local_pruned;
          continue;
        }
        if (bound_pruning_) {
          tables_.ComputeFrontierAllocs(sig, frontier, &allocs);
        }
        for (const std::int32_t u : frontier) {
          const std::uint64_t child_hash =
              hash ^ hasher_.key(static_cast<std::size_t>(u));
          if (next.ShardOf(child_hash) % num_threads != thread_index) {
            continue;  // another thread owns this child's shard
          }
          ++local_transitions;
          if ((++since_check & 0xfff) == 0) {
            // Publish this worker's states before checking the cap, so the
            // cap is enforced *within* a level (overshoot is bounded by
            // ~4096 transitions per thread, matching the sequential path's
            // granularity) rather than only after it is fully materialized.
            created.fetch_add(local_created, std::memory_order_relaxed);
            local_created = 0;
            if (level_clock.ElapsedSeconds() >
                    options_.step_timeout_seconds ||
                states_expanded_ + created.load(std::memory_order_relaxed) >
                    options_.max_states) {
              request_abort(Abort::kTimeout);
              break;
            }
            // Budget true-ups wait for the level boundary (a worker cannot
            // read sibling shards' capacities while they grow), but
            // cancellation is just an atomic poll.
            if (CancelRequested()) {
              request_abort(Abort::kCancelled);
              break;
            }
          }
          const ExpansionTables::Transition t =
              tables_.Apply(sig, u, footprint, step_limit_);
          if (t.step_peak > options_.budget_bytes) continue;
          if (t.step_peak > incumbent_) {
            ++local_pruned;
            continue;
          }
          std::copy(sig, sig + words_, child.data());
          util::SpanSetBit(child.data(), static_cast<std::size_t>(u));
          std::int64_t child_floor = StateLevel::kFloorUnknown;
          if (bound_pruning_) {
            child_floor =
                tables_.ChildNextAllocFloor(child.data(), u, allocs);
            if (ChildFloorExceeds(t.footprint, child_floor)) {
              ++local_pruned;
              continue;
            }
          }
          if (next.InsertOrRelax(child.data(), child_hash, t.footprint,
                                 std::max(peak, t.step_peak),
                                 hasher_.candidate_tie(
                                   hash, static_cast<std::size_t>(u)),
                                 static_cast<std::int32_t>(s), u,
                                 child_floor)) {
            ++local_created;
          }
        }
      }
      transitions.fetch_add(local_transitions, std::memory_order_relaxed);
      created.fetch_add(local_created, std::memory_order_relaxed);
      pruned.fetch_add(local_pruned, std::memory_order_relaxed);
    };
    std::vector<std::thread> threads;
    threads.reserve(static_cast<std::size_t>(num_threads));
    for (int t = 0; t < num_threads; ++t) threads.emplace_back(worker, t);
    for (std::thread& t : threads) t.join();
    transitions_ += transitions.load();
    states_expanded_ += created.load();
    pruned_ += pruned.load();
    if (abort.load()) {
      abort_ = static_cast<Abort>(abort_reason.load());
      return false;
    }
    if (states_expanded_ > options_.max_states) {
      abort_ = Abort::kTimeout;
      return false;
    }
    return true;
  }

  sched::Schedule Reconstruct() const {
    sched::Schedule schedule(num_nodes_, graph::kInvalidNode);
    std::int32_t index = 0;
    for (std::size_t i = num_nodes_; i > 0; --i) {
      const ReconRecord& record =
          recon_[i][static_cast<std::size_t>(index)];
      schedule[i - 1] = static_cast<graph::NodeId>(record.last_node);
      index = record.prev_index;
    }
    return schedule;
  }

  const DpOptions options_;
  const ExpansionTables tables_;
  const SignatureHasher hasher_;
  const std::size_t num_nodes_;
  const std::size_t words_;
  const bool bound_pruning_;
  const std::int64_t incumbent_;
  // Transitions peaking above min(τ, incumbent) are dead either way, so
  // Apply may skip their free scan.
  const std::int64_t step_limit_;
  const util::CancelToken* const cancel_;
  // High-water byte reservation against options_.memory_budget; refunded
  // in full when the runner is destroyed.
  util::BudgetReservation reservation_;
  std::int64_t fixed_bytes_ = 0;
  std::int64_t recon_bytes_ = 0;
  std::atomic<bool> cancelled_{false};
  Abort abort_ = Abort::kTimeout;
  std::vector<std::vector<ReconRecord>> recon_;
  std::uint64_t states_expanded_ = 0;
  std::uint64_t transitions_ = 0;
  std::uint64_t max_level_states_ = 0;
  std::uint64_t pruned_ = 0;  // DpResult::states_pruned_by_bound
};

}  // namespace

DpResult ScheduleDp(const graph::Graph& graph, const DpOptions& options) {
  SERENITY_CHECK_GT(graph.num_nodes(), 0) << "cannot schedule an empty graph";
  return DpRunner(graph, options).Run();
}

}  // namespace serenity::core
