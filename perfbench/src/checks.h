// Output checks written apart from the program under test.
//
// Each checker recomputes its property from the graph and the schedule
// alone: none of them calls the scheduler's footprint evaluator or the arena
// planner's validator. Every function returns an empty string when the
// output passes and a one-line description of the first violation when it
// does not.
#ifndef PERFBENCH_CHECKS_H_
#define PERFBENCH_CHECKS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "alloc/arena_planner.h"
#include "graph/graph.h"
#include "runtime/tensor.h"
#include "sched/schedule.h"

namespace perfbench {

// `schedule` lists every node of `graph` exactly once, each after all of its
// inputs.
std::string CheckTopologicalCover(const serenity::graph::Graph& graph,
                                  const serenity::sched::Schedule& schedule);

// Live interval of one activation buffer, in schedule steps. A buffer is
// live from the step of its first writer through the step of its last
// writer or reader; a buffer nobody reads is kept to the last step. Buffers
// no node writes have first == -1.
struct Lifetime {
  int first = -1;
  int last = -1;
  std::int64_t bytes = 0;
};

// Requires a schedule that passed CheckTopologicalCover.
std::vector<Lifetime> BufferLifetimes(const serenity::graph::Graph& graph,
                                      const serenity::sched::Schedule& schedule);

// Peak of the summed sizes of all live buffers over the schedule's steps.
std::int64_t LivenessPeak(const serenity::graph::Graph& graph,
                          const serenity::sched::Schedule& schedule);

// Every written buffer has exactly one placement that covers its lifetime
// and size and fits in plan.arena_bytes, and no two buffers whose lifetimes
// overlap share a byte.
std::string CheckPlacements(const serenity::graph::Graph& graph,
                            const serenity::sched::Schedule& schedule,
                            const serenity::alloc::ArenaPlan& plan);

// Same number of sinks, same shapes, every float bit pattern equal.
std::string CompareBitExact(const std::vector<serenity::runtime::Tensor>& got,
                            const std::vector<serenity::runtime::Tensor>& want);

// Same number of sinks and shapes; |got - want| <= tolerance * (1 + |want|)
// element-wise.
std::string CompareWithin(const std::vector<serenity::runtime::Tensor>& got,
                          const std::vector<serenity::runtime::Tensor>& want,
                          double tolerance);

// Runs the checkers on hand-computed and deliberately corrupted inputs;
// returns the failures (empty when every checker accepts what it should and
// rejects what it should).
std::vector<std::string> RunCheckerSelfTests();

}  // namespace perfbench

#endif  // PERFBENCH_CHECKS_H_
