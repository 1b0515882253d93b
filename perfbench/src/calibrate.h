// The host's speed, read from reference loops that belong to the benchmark.
//
// The benchmark runs on shared machines whose speed drifts by a quarter
// and more from one minute to the next, with every part of the program
// slowing together. A pass over fixed loops of the benchmark's own
// (sorting, hashing over an 8 MiB table, a float convolution), timed
// between the measurements of a phase while the program is idle, tracks
// that drift; the phase's wall times are scaled by reference pass time /
// median pass time, which takes out much of it. A change to the program
// cannot move the loops, so it moves the scaled figures as it moves the
// raw ones.
#ifndef PERFBENCH_CALIBRATE_H_
#define PERFBENCH_CALIBRATE_H_

#include <vector>

namespace perfbench {

// One pass on the reference host: what the scaled figures are scaled to.
// Roughly what a pass took on the 4-vCPU machine the bounds were set on.
inline constexpr double kReferencePassMs = 40.0;

class HostScale {
 public:
  // Times one pass over the reference loops.
  void Sample();
  // kReferencePassMs / median pass time; 1 before the first sample.
  double factor() const;
  double median_pass_ms() const;

 private:
  std::vector<double> pass_ms_;
};

}  // namespace perfbench

#endif  // PERFBENCH_CALIBRATE_H_
