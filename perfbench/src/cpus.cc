#include "cpus.h"

#include <algorithm>
#include <cstddef>

namespace perfbench {

std::vector<int> AllowedCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &set)) cpus.push_back(cpu);
    }
  }
  if (cpus.empty()) cpus.push_back(-1);  // unknown: never pin
  return cpus;
}

std::vector<int> RotationCpus() {
  const std::vector<int> allowed = AllowedCpus();
  const std::size_t k =
      std::min(allowed.size(), static_cast<std::size_t>(kMaxRotationCpus));
  std::vector<int> cpus;
  for (std::size_t i = 0; i < k; ++i) {
    cpus.push_back(allowed[i * allowed.size() / k]);
  }
  return cpus;
}

PinToCpu::PinToCpu(int cpu) {
  CPU_ZERO(&saved_);
  if (cpu < 0 || sched_getaffinity(0, sizeof saved_, &saved_) != 0) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  pinned_ = sched_setaffinity(0, sizeof one, &one) == 0;
}

PinToCpu::~PinToCpu() {
  if (pinned_) sched_setaffinity(0, sizeof saved_, &saved_);
}

}  // namespace perfbench
