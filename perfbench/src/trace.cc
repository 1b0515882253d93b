#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace perfbench {

namespace {

// The innermost open span of this thread and its request id.
thread_local int current_span = -1;
thread_local std::int64_t current_request = -1;

}  // namespace

std::int64_t Tracer::Now() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              origin_)
      .count();
}

int Tracer::Begin(const std::string& name, int parent,
                  std::int64_t request_id) {
  const std::int64_t now = Now();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Span{name, now, -1, parent, request_id});
  return static_cast<int>(spans_.size()) - 1;
}

void Tracer::End(int index) {
  const std::int64_t now = Now();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<std::size_t>(index)].end_ns = now;
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

bool Tracer::WriteJsonLines(const std::string& path) const {
  const std::vector<Span> all = spans();
  const std::vector<double> self = SelfMillis(all);
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    std::fprintf(out,
                 "{\"id\": %zu, \"name\": \"%s\", \"start_ns\": %lld, "
                 "\"end_ns\": %lld, \"parent\": %d, \"request\": %lld, "
                 "\"self_ms\": %.6f}\n",
                 i, s.name.c_str(), static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns), s.parent,
                 static_cast<long long>(s.request_id), self[i]);
  }
  return std::fclose(out) == 0;
}

std::vector<double> SelfMillis(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
      spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0 && s.end_ns >= 0) {
      children[static_cast<std::size_t>(s.parent)].emplace_back(s.start_ns,
                                                                s.end_ns);
    }
  }
  std::vector<double> self(spans.size(), 0.0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (s.end_ns < 0) continue;
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    // Union of the children's intervals, clipped to the parent.
    std::int64_t covered = 0;
    std::int64_t run_start = 0;
    std::int64_t run_end = -1;
    for (const auto& [start, end] : kids) {
      const std::int64_t a = std::max(start, s.start_ns);
      const std::int64_t b = std::min(end, s.end_ns);
      if (b <= a) continue;
      if (a > run_end) {
        if (run_end > run_start) covered += run_end - run_start;
        run_start = a;
        run_end = b;
      } else {
        run_end = std::max(run_end, b);
      }
    }
    if (run_end > run_start) covered += run_end - run_start;
    self[i] = static_cast<double>(s.end_ns - s.start_ns - covered) / 1e6;
  }
  return self;
}

ScopedSpan::ScopedSpan(Tracer* tracer, const char* name,
                       std::int64_t request_id)
    : tracer_(tracer) {
  if (tracer_ == nullptr) return;
  saved_parent_ = current_span;
  saved_request_ = current_request;
  const std::int64_t id = request_id >= 0 ? request_id : current_request;
  index_ = tracer_->Begin(name, current_span, id);
  current_span = index_;
  current_request = id;
}

ScopedSpan::~ScopedSpan() {
  if (tracer_ == nullptr) return;
  tracer_->End(index_);
  current_span = saved_parent_;
  current_request = saved_request_;
}

}  // namespace perfbench
