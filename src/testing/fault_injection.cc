#include "testing/fault_injection.h"

#include <atomic>
#include <cstdio>

#include "util/logging.h"

namespace serenity::testing {

const char* ToString(FaultPoint point) {
  switch (point) {
    case FaultPoint::kSchedulerTimeout: return "scheduler_timeout";
    case FaultPoint::kWorkerException: return "worker_exception";
    case FaultPoint::kArenaAllocation: return "arena_allocation";
    case FaultPoint::kSessionCheckout: return "session_checkout";
    case FaultPoint::kSocketTornFrame: return "socket_torn_frame";
    case FaultPoint::kSocketMidStreamClose: return "socket_mid_stream_close";
    case FaultPoint::kBudgetDenial: return "budget_denial";
    case FaultPoint::kCancelPoll: return "cancel_poll";
    case FaultPoint::kNumFaultPoints: break;
  }
  return "unknown";
}

FaultInjector& FaultInjector::Global() {
  static FaultInjector* injector = new FaultInjector();
  return *injector;
}

namespace {
int Index(FaultPoint point) {
  const int i = static_cast<int>(point);
  SERENITY_CHECK_GE(i, 0);
  SERENITY_CHECK_LT(i, static_cast<int>(FaultPoint::kNumFaultPoints));
  return i;
}
}  // namespace

void FaultInjector::ArmAfter(FaultPoint point, std::uint64_t skip) {
  PointState& s = points_[Index(point)];
  s.countdown.store(static_cast<std::int64_t>(skip),
                    std::memory_order_relaxed);
  s.armed.store(true, std::memory_order_release);
}

void FaultInjector::Disarm(FaultPoint point) {
  points_[Index(point)].armed.store(false, std::memory_order_release);
}

void FaultInjector::DisarmAll() {
  for (int i = 0; i < static_cast<int>(FaultPoint::kNumFaultPoints); ++i) {
    points_[i].armed.store(false, std::memory_order_release);
  }
}

std::uint64_t FaultInjector::fires(FaultPoint point) const {
  return points_[Index(point)].fires.load(std::memory_order_relaxed);
}

std::uint64_t FaultInjector::traversals(FaultPoint point) const {
  return points_[Index(point)].traversals.load(std::memory_order_relaxed);
}

void FaultInjector::ResetCounters() {
  for (int i = 0; i < static_cast<int>(FaultPoint::kNumFaultPoints); ++i) {
    points_[i].fires.store(0, std::memory_order_relaxed);
    points_[i].traversals.store(0, std::memory_order_relaxed);
  }
}

bool FaultInjector::ShouldFire(FaultPoint point) {
  PointState& s = points_[Index(point)];
  s.traversals.fetch_add(1, std::memory_order_relaxed);
  if (!s.armed.load(std::memory_order_acquire)) return false;
  // Count down atomically; exactly one traversal observes the transition
  // through zero and fires (one-shot semantics even under races).
  const std::int64_t before =
      s.countdown.fetch_sub(1, std::memory_order_acq_rel);
  if (before != 0) return false;
  s.armed.store(false, std::memory_order_release);
  s.fires.fetch_add(1, std::memory_order_relaxed);
  return true;
}

ScopedFault::ScopedFault(FaultPoint point, std::uint64_t skip) {
  FaultInjector::Global().ArmAfter(point, skip);
}

ScopedFault::~ScopedFault() { FaultInjector::Global().DisarmAll(); }

bool CorruptFileBit(const std::string& path, std::uint64_t bit_index) {
  std::FILE* f = std::fopen(path.c_str(), "r+b");
  if (f == nullptr) return false;
  const std::uint64_t byte_index = bit_index / 8;
  bool ok = false;
  if (std::fseek(f, 0, SEEK_END) == 0) {
    const long size = std::ftell(f);
    if (size > 0 && byte_index < static_cast<std::uint64_t>(size) &&
        std::fseek(f, static_cast<long>(byte_index), SEEK_SET) == 0) {
      int c = std::fgetc(f);
      if (c != EOF && std::fseek(f, static_cast<long>(byte_index),
                                 SEEK_SET) == 0) {
        const unsigned char flipped = static_cast<unsigned char>(
            static_cast<unsigned>(c) ^ (1u << (bit_index % 8)));
        ok = std::fputc(flipped, f) != EOF;
      }
    }
  }
  std::fclose(f);
  return ok;
}

bool TruncateFile(const std::string& path, std::uint64_t keep_bytes) {
  std::FILE* in = std::fopen(path.c_str(), "rb");
  if (in == nullptr) return false;
  std::string contents;
  int c;
  while ((c = std::fgetc(in)) != EOF &&
         contents.size() < keep_bytes) {
    contents.push_back(static_cast<char>(c));
  }
  std::fclose(in);
  std::FILE* out = std::fopen(path.c_str(), "wb");
  if (out == nullptr) return false;
  const std::size_t written =
      contents.empty()
          ? 0
          : std::fwrite(contents.data(), 1, contents.size(), out);
  std::fclose(out);
  return written == contents.size();
}

std::int64_t FileSizeBytes(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return -1;
  std::int64_t size = -1;
  if (std::fseek(f, 0, SEEK_END) == 0) size = std::ftell(f);
  std::fclose(f);
  return size;
}

}  // namespace serenity::testing
