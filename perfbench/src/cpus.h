// CPU rotation for single-threaded measuring loops.
//
// On a shared machine the CPUs a process may use do not run at one speed,
// and a busy thread tends to stay on the CPU it started on, so a run that
// happens to land on a slow CPU reads slow throughout. A loop that runs on
// one thread and starts no other (the in-process Run phase, a lone serve
// client) therefore moves over a fixed number of CPUs in turn: each sample
// then covers the same mix of CPUs in every run. Phases that start threads
// of the program (compiles, server set-ups) are never pinned, because a
// pinned thread passes its CPU set on to every thread it creates.
#ifndef PERFBENCH_CPUS_H_
#define PERFBENCH_CPUS_H_

#include <sched.h>

#include <vector>

namespace perfbench {

// At most this many CPUs are rotated over, so a round's cost does not grow
// with the size of the machine.
inline constexpr int kMaxRotationCpus = 4;

// The CPUs this process may run on, in ascending order (never empty).
std::vector<int> AllowedCpus();

// Up to kMaxRotationCpus of the allowed CPUs, spread evenly over them
// (never empty; {-1} when the allowed set is unknown, which never pins).
std::vector<int> RotationCpus();

// Pins the calling thread to one CPU for its lifetime, then restores the
// thread's previous CPU set. A pin the system refuses leaves the thread
// where it was. Only for threads that start no threads while pinned.
class PinToCpu {
 public:
  explicit PinToCpu(int cpu);
  ~PinToCpu();

  PinToCpu(const PinToCpu&) = delete;
  PinToCpu& operator=(const PinToCpu&) = delete;

 private:
  cpu_set_t saved_;
  bool pinned_ = false;
};

}  // namespace perfbench

#endif  // PERFBENCH_CPUS_H_
