#include "checks.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <sstream>

namespace perfbench {

using serenity::graph::BufferId;
using serenity::graph::Graph;
using serenity::graph::NodeId;
using serenity::runtime::Tensor;
using serenity::sched::Schedule;

std::string CheckTopologicalCover(const Graph& graph,
                                  const Schedule& schedule) {
  const int n = graph.num_nodes();
  if (static_cast<int>(schedule.size()) != n) {
    return "schedule has " + std::to_string(schedule.size()) +
           " steps for " + std::to_string(n) + " nodes";
  }
  std::vector<int> step_of(static_cast<std::size_t>(n), -1);
  for (int step = 0; step < n; ++step) {
    const NodeId id = schedule[static_cast<std::size_t>(step)];
    if (id < 0 || id >= n) {
      return "step " + std::to_string(step) + " names node " +
             std::to_string(id) + ", outside the graph";
    }
    if (step_of[static_cast<std::size_t>(id)] >= 0) {
      return "node " + std::to_string(id) + " scheduled twice";
    }
    step_of[static_cast<std::size_t>(id)] = step;
  }
  for (const auto& node : graph.nodes()) {
    for (const NodeId input : node.inputs) {
      if (step_of[static_cast<std::size_t>(input)] >=
          step_of[static_cast<std::size_t>(node.id)]) {
        return "node " + std::to_string(node.id) + " runs before its input " +
               std::to_string(input);
      }
    }
  }
  return "";
}

std::vector<Lifetime> BufferLifetimes(const Graph& graph,
                                      const Schedule& schedule) {
  std::vector<Lifetime> life(static_cast<std::size_t>(graph.num_buffers()));
  std::vector<bool> read(life.size(), false);
  for (std::size_t b = 0; b < life.size(); ++b) {
    life[b].bytes = graph.buffer(static_cast<BufferId>(b)).size_bytes;
  }
  for (int step = 0; step < static_cast<int>(schedule.size()); ++step) {
    const auto& node = graph.node(schedule[static_cast<std::size_t>(step)]);
    Lifetime& own = life[static_cast<std::size_t>(node.buffer)];
    if (own.first < 0) own.first = step;
    own.last = std::max(own.last, step);
    for (const NodeId input : node.inputs) {
      const std::size_t b = static_cast<std::size_t>(graph.node(input).buffer);
      life[b].last = std::max(life[b].last, step);
      read[b] = true;
    }
  }
  const int end = static_cast<int>(schedule.size()) - 1;
  for (std::size_t b = 0; b < life.size(); ++b) {
    if (life[b].first >= 0 && !read[b]) life[b].last = end;
  }
  return life;
}

std::int64_t LivenessPeak(const Graph& graph, const Schedule& schedule) {
  // Difference array over steps: +bytes where a buffer goes live, -bytes
  // one step after it dies; the running sum is the live total per step.
  std::vector<std::int64_t> delta(schedule.size() + 1, 0);
  for (const Lifetime& l : BufferLifetimes(graph, schedule)) {
    if (l.first < 0) continue;
    delta[static_cast<std::size_t>(l.first)] += l.bytes;
    delta[static_cast<std::size_t>(l.last) + 1] -= l.bytes;
  }
  std::int64_t live = 0;
  std::int64_t peak = 0;
  for (std::size_t step = 0; step < schedule.size(); ++step) {
    live += delta[step];
    peak = std::max(peak, live);
  }
  return peak;
}

std::string CheckPlacements(const Graph& graph, const Schedule& schedule,
                            const serenity::alloc::ArenaPlan& plan) {
  const std::vector<Lifetime> life = BufferLifetimes(graph, schedule);
  std::vector<int> placement_of(life.size(), -1);
  for (std::size_t i = 0; i < plan.placements.size(); ++i) {
    const auto& p = plan.placements[i];
    if (p.buffer < 0 || static_cast<std::size_t>(p.buffer) >= life.size()) {
      return "placement " + std::to_string(i) + " names buffer " +
             std::to_string(p.buffer) + ", outside the graph";
    }
    if (placement_of[static_cast<std::size_t>(p.buffer)] >= 0) {
      return "buffer " + std::to_string(p.buffer) + " placed twice";
    }
    placement_of[static_cast<std::size_t>(p.buffer)] = static_cast<int>(i);
  }
  struct Placed {
    std::int64_t begin, end;  // bytes [begin, end)
    int first, last;          // steps
  };
  std::vector<Placed> placed;
  for (std::size_t b = 0; b < life.size(); ++b) {
    const Lifetime& l = life[b];
    if (l.first < 0 || l.bytes == 0) continue;
    if (placement_of[b] < 0) {
      return "buffer " + std::to_string(b) + " is written but not placed";
    }
    const auto& p = plan.placements[static_cast<std::size_t>(placement_of[b])];
    if (p.offset < 0 || p.size < l.bytes ||
        p.offset + l.bytes > plan.arena_bytes) {
      return "buffer " + std::to_string(b) + " at offset " +
             std::to_string(p.offset) + " (" + std::to_string(l.bytes) +
             " bytes) does not fit an arena of " +
             std::to_string(plan.arena_bytes);
    }
    if (p.first_step > l.first || p.last_step < l.last) {
      return "buffer " + std::to_string(b) + " placed for steps " +
             std::to_string(p.first_step) + ".." +
             std::to_string(p.last_step) + " but live " +
             std::to_string(l.first) + ".." + std::to_string(l.last);
    }
    placed.push_back({p.offset, p.offset + l.bytes, l.first, l.last});
  }
  for (std::size_t i = 0; i < placed.size(); ++i) {
    for (std::size_t j = i + 1; j < placed.size(); ++j) {
      const Placed& a = placed[i];
      const Placed& b = placed[j];
      const bool same_time = a.first <= b.last && b.first <= a.last;
      const bool same_bytes = a.begin < b.end && b.begin < a.end;
      if (same_time && same_bytes) {
        std::ostringstream os;
        os << "live buffers overlap in bytes [" << a.begin << "," << a.end
           << ") and [" << b.begin << "," << b.end << ")";
        return os.str();
      }
    }
  }
  return "";
}

namespace {

std::string CompareShapes(const std::vector<Tensor>& got,
                          const std::vector<Tensor>& want) {
  if (got.size() != want.size()) {
    return std::to_string(got.size()) + " sinks, expected " +
           std::to_string(want.size());
  }
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (!(got[i].shape() == want[i].shape())) {
      return "sink " + std::to_string(i) + " has another shape";
    }
  }
  return "";
}

}  // namespace

std::string CompareBitExact(const std::vector<Tensor>& got,
                            const std::vector<Tensor>& want) {
  std::string shapes = CompareShapes(got, want);
  if (!shapes.empty()) return shapes;
  for (std::size_t i = 0; i < got.size(); ++i) {
    const std::size_t n = got[i].size();
    const float* a = got[i].data();
    const float* b = want[i].data();
    for (std::size_t k = 0; k < n; ++k) {
      std::uint32_t x = 0;
      std::uint32_t y = 0;
      std::memcpy(&x, a + k, sizeof x);
      std::memcpy(&y, b + k, sizeof y);
      if (x != y) {
        return "sink " + std::to_string(i) + " element " + std::to_string(k) +
               " differs in its bits";
      }
    }
  }
  return "";
}

std::string CompareWithin(const std::vector<Tensor>& got,
                          const std::vector<Tensor>& want, double tolerance) {
  std::string shapes = CompareShapes(got, want);
  if (!shapes.empty()) return shapes;
  for (std::size_t i = 0; i < got.size(); ++i) {
    const float* a = got[i].data();
    const float* b = want[i].data();
    for (std::size_t k = 0; k < got[i].size(); ++k) {
      const double diff = std::fabs(static_cast<double>(a[k]) - b[k]);
      if (!(diff <= tolerance * (1.0 + std::fabs(static_cast<double>(b[k]))))) {
        return "sink " + std::to_string(i) + " element " + std::to_string(k) +
               " off by " + std::to_string(diff);
      }
    }
  }
  return "";
}

}  // namespace perfbench
