// The end-to-end run of one workload, in phases that never overlap:
//
//   1. compile   every graph cold, graph -> core::Pipeline::Run (defaults,
//                an unlimited MemoryBudget ledger) -> alloc::PlanArena, for
//                several rounds; every round must reproduce round one;
//   2. check     the compiled schedules and arenas against the checkers in
//                checks.h, and the reference sinks of every input set;
//   3. run       every plan in process through serve::InferenceSession;
//   4. setup     a fresh serve::TcpServer, every graph cold-planned over the
//                wire and inferred once, timed several times; the last one
//                is the server that serves;
//   5. serve     a closed loop of TcpClient connections sending infer
//                requests and, at a fixed share, warm plan requests, for the
//                run's seconds, every reply checked bit for bit.
//
// No search runs during the timed serve phase: every plan request there is
// a cache hit.
#ifndef PERFBENCH_END_TO_END_H_
#define PERFBENCH_END_TO_END_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "alloc/arena_planner.h"
#include "core/pipeline.h"
#include "graph/canonical_hash.h"
#include "runtime/tensor.h"
#include "trace.h"
#include "workload.h"

namespace perfbench {

struct RunConfig {
  std::uint64_t seed = 1;
  // Length of the compile phase and of the timed serve phase. Both run in
  // whole rounds, so they end at the first round boundary past it.
  double seconds = 15;
};

// Operations attempted and failed, by kind. A non-OK reply, a shed or a
// compile that did not return an exact schedule is a failure.
struct Counts {
  std::uint64_t compile_attempted = 0, compile_failed = 0;
  std::uint64_t plan_attempted = 0, plan_failed = 0;
  std::uint64_t infer_attempted = 0, infer_failed = 0;

  std::uint64_t attempted() const {
    return compile_attempted + plan_attempted + infer_attempted;
  }
  std::uint64_t failed() const {
    return compile_failed + plan_failed + infer_failed;
  }
  void Add(const Counts& o);
};

struct Metric {
  std::string name;
  std::string unit;
  double value = 0;
};

// Everything one end-to-end run learned about one graph.
struct GraphRun {
  std::vector<double> compile_ms;         // one per round
  serenity::core::PipelineResult result;  // round one
  serenity::alloc::ArenaPlan arena;       // PlanArena of round one
  std::int64_t search_peak_bytes = 0;     // max ledger peak over rounds
  std::int64_t tflite_arena_bytes = 0;    // TFLite order, un-rewritten graph
  serenity::graph::GraphHash hash;
  std::int64_t served_arena_bytes = 0;    // from the plan reply
  std::vector<std::vector<serenity::runtime::Tensor>> inputs;    // per set
  std::vector<std::vector<serenity::runtime::Tensor>> expected;  // per set
  std::vector<double> run_ms;   // in-process Run, one per round (CPU mean)
  std::vector<double> wire_ms;  // serve-phase infer round trips
};

struct EndToEndResult {
  // The nine end-to-end metrics, in order. Wall times are scaled to the
  // reference host (calibrate.h) by the host's speed in their own phase.
  std::vector<Metric> metrics;
  std::vector<Metric> raw;  // the wall-time metrics before scaling
  // Median pass over the host's reference loops, per phase.
  std::vector<std::pair<std::string, double>> host_pass_ms;
  // Serve-phase tail and throughput, unscaled: the median over windows of
  // 1100 consecutive infer completions of each window's p99 and rate.
  double infer_ms_p99 = 0;
  double infer_rps = 0;
  Counts counts;
  std::vector<std::string> errors;  // failed output checks
  std::vector<GraphRun> graphs;
  std::uint64_t pool_waits = 0;     // SessionPool waits in the serve phase
  std::size_t infer_samples = 0;
  std::size_t plan_samples = 0;
};

EndToEndResult RunEndToEnd(const Workload& workload, const RunConfig& config,
                           Tracer* tracer);

}  // namespace perfbench

#endif  // PERFBENCH_END_TO_END_H_
