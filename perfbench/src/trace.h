// In-memory span recorder for the traced run.
//
// A span is one timed call into a layer, recorded from the benchmark's side
// of the call: name, start, end, parent span and request id. Spans live in
// memory while the run measures and are written out once at exit. A span's
// self time is its duration minus the part of it covered by its children.
//
// Every entry point takes a Tracer pointer; a null tracer records nothing,
// so the untraced run pays one branch per boundary.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = -1;  // -1 while open
  int parent = -1;           // index into the span list, -1 at the root
  std::int64_t request_id = -1;
};

class Tracer {
 public:
  Tracer() : origin_(Clock::now()) {}

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  // Opens a span under `parent` and returns its index.
  int Begin(const std::string& name, int parent, std::int64_t request_id);
  void End(int index);

  // Snapshot of every span recorded so far.
  std::vector<Span> spans() const;

  // Writes one JSON object per span; false on an I/O failure.
  bool WriteJsonLines(const std::string& path) const;

 private:
  using Clock = std::chrono::steady_clock;
  std::int64_t Now() const;

  const Clock::time_point origin_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
};

// Self time of every span in milliseconds, indexed like `spans`.
std::vector<double> SelfMillis(const std::vector<Span>& spans);

// RAII span. Nested ScopedSpans on one thread form the parent chain; a
// request id of -1 inherits the enclosing span's id.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, std::int64_t request_id = -1);
  ~ScopedSpan();

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* const tracer_;
  int index_ = -1;
  int saved_parent_ = -1;
  std::int64_t saved_request_ = -1;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
