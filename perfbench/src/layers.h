// The traced per-layer breakdown. Each layer is timed from outside, by
// calling its public functions one stage at a time on the workload's own
// graphs and messages, inside spans:
//
//   compile side  rewrite, partition (FindCutNodes + PartitionAtCuts), seed
//                 (greedy + width-256 beam per segment), search
//                 (ScheduleWithSoftBudget seeded as the pipeline seeds it),
//                 the plain-DP control, alloc (PlanArena), plan
//                 serialization, graph parse and canonical hash;
//   serve side    cache lookup, wire encode/decode of the real infer
//                 messages, session reset, pool checkout, and Run per kernel
//                 backend.
//
// The stage-by-stage compile must reproduce the pipeline's schedule and
// state count exactly, or the breakdown is not of the pipeline.
#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <string>
#include <vector>

#include "end_to_end.h"
#include "trace.h"
#include "workload.h"

namespace perfbench {

// `traced` is a finished traced end-to-end run of `workload` (its compiled
// plans, inputs, reference sinks and serve-phase samples are reused).
// Failed checks are appended to `errors`.
std::vector<Metric> RunLayers(const Workload& workload,
                              const EndToEndResult& traced, Tracer* tracer,
                              std::vector<std::string>* errors);

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
