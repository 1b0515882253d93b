// SessionPool: bounded per-plan session pools with arena checkout/return.
//
// Includes the zero-heap-allocation proof for the steady-state serve hot
// path: alloc_counter.h replaces global operator new, so this file must be
// the only TU of this binary that includes it.
#include "serve/session_pool.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <limits>
#include <thread>

#include "models/swiftnet.h"
#include "runtime/executor.h"
#include "serve/scheduler_service.h"
#include "testing/alloc_counter.h"
#include "testing/fault_injection.h"
#include "testing/runtime_inputs.h"
#include "testing/sink_compare.h"

namespace serenity::serve {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

std::shared_ptr<const CachedPlan> PlanFor(SchedulerService& service,
                                          const graph::Graph& graph) {
  const ServeResult result = service.Schedule(graph);
  EXPECT_NE(result.plan, nullptr) << result.status.ToString();
  return result.plan;
}

TEST(SessionPool, CheckoutRunsRealInferenceAndReturnsForReuse) {
  SchedulerService service;
  SessionPool pool;
  const auto plan = PlanFor(service, models::MakeSwiftNetCellA());

  {
    util::StatusOr<SessionPool::Lease> lease = pool.Checkout(plan, kInf);
    ASSERT_TRUE(lease.ok()) << lease.status().ToString();
    const std::vector<runtime::Tensor> inputs =
        serenity::testing::RandomInputsFor((*lease)->graph(), 11);
    (*lease)->Run(inputs);
    runtime::ReferenceExecutor reference((*lease)->graph());
    reference.Run(inputs, plan->plan.schedule);
    EXPECT_EQ(serenity::testing::DescribeSinkDivergence(
                  (*lease)->executor().SinkValues(), reference.SinkValues()),
              "");
  }
  SessionPoolStats stats = pool.stats();
  EXPECT_EQ(stats.checkouts, 1u);
  EXPECT_EQ(stats.creations, 1u);
  EXPECT_EQ(stats.returns, 1u);
  EXPECT_EQ(stats.sessions_idle, 1u);
  EXPECT_EQ(stats.sessions_leased, 0u);

  // The second checkout reuses the pooled session — no new arena.
  util::StatusOr<SessionPool::Lease> again = pool.Checkout(plan, kInf);
  ASSERT_TRUE(again.ok());
  stats = pool.stats();
  EXPECT_EQ(stats.reuses, 1u);
  EXPECT_EQ(stats.creations, 1u);
  EXPECT_EQ(stats.arena_bytes_pooled, plan->plan.arena.arena_bytes);
}

TEST(SessionPool, ReturnedSessionIsWipedByReset) {
  SchedulerService service;
  SessionPool pool;
  const auto plan = PlanFor(service, models::MakeSwiftNetCellB());

  {
    util::StatusOr<SessionPool::Lease> lease = pool.Checkout(plan, kInf);
    ASSERT_TRUE(lease.ok());
    (*lease)->Run(serenity::testing::RandomInputsFor((*lease)->graph(), 3));
    // A real inference leaves nonzero activations behind.
    bool any_nonzero = false;
    for (const runtime::Tensor& sink : (*lease)->executor().SinkValues()) {
      for (const float v : sink.ToVector()) any_nonzero |= (v != 0.0f);
    }
    EXPECT_TRUE(any_nonzero);
  }
  // The same pooled session comes back — its arena must read all zeros
  // (no activation leak between requests).
  util::StatusOr<SessionPool::Lease> lease = pool.Checkout(plan, kInf);
  ASSERT_TRUE(lease.ok());
  EXPECT_EQ(pool.stats().reuses, 1u);
  for (const runtime::Tensor& sink : (*lease)->executor().SinkValues()) {
    for (const float v : sink.ToVector()) EXPECT_EQ(v, 0.0f);
  }
}

TEST(SessionPool, PerPlanCapShedsAfterBoundedWait) {
  SchedulerService service;
  SessionPoolOptions options;
  options.max_sessions_per_plan = 1;
  SessionPool pool(options);
  const auto plan = PlanFor(service, models::MakeSwiftNetCellA());

  util::StatusOr<SessionPool::Lease> held = pool.Checkout(plan, kInf);
  ASSERT_TRUE(held.ok());
  const auto start = std::chrono::steady_clock::now();
  util::StatusOr<SessionPool::Lease> blocked = pool.Checkout(plan, 0.05);
  const auto waited = std::chrono::steady_clock::now() - start;
  ASSERT_FALSE(blocked.ok());
  EXPECT_EQ(blocked.status().code(), util::StatusCode::kResourceExhausted);
  EXPECT_GE(std::chrono::duration<double>(waited).count(), 0.05);
  const SessionPoolStats stats = pool.stats();
  EXPECT_EQ(stats.waits, 1u);
  EXPECT_EQ(stats.sheds, 1u);
}

TEST(SessionPool, FailFastWithZeroBudgetNeverQueues) {
  SchedulerService service;
  SessionPoolOptions options;
  options.max_sessions_per_plan = 1;
  SessionPool pool(options);
  const auto plan = PlanFor(service, models::MakeSwiftNetCellA());

  util::StatusOr<SessionPool::Lease> held = pool.Checkout(plan, kInf);
  ASSERT_TRUE(held.ok());
  util::StatusOr<SessionPool::Lease> shed = pool.Checkout(plan, 0);
  ASSERT_FALSE(shed.ok());
  EXPECT_EQ(shed.status().code(), util::StatusCode::kResourceExhausted);
  EXPECT_EQ(pool.stats().waits, 0u);  // deadline-aware: no pointless queue
}

TEST(SessionPool, ReturnUnblocksWaiterWithinDeadline) {
  SchedulerService service;
  SessionPoolOptions options;
  options.max_sessions_per_plan = 1;
  SessionPool pool(options);
  const auto plan = PlanFor(service, models::MakeSwiftNetCellA());

  std::atomic<bool> released{false};
  util::StatusOr<SessionPool::Lease> held = pool.Checkout(plan, kInf);
  ASSERT_TRUE(held.ok());
  std::thread releaser([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    released.store(true);
    held = util::ResourceExhaustedError("dropped");  // returns the lease
  });
  util::StatusOr<SessionPool::Lease> waiter = pool.Checkout(plan, 10.0);
  releaser.join();
  ASSERT_TRUE(waiter.ok()) << waiter.status().ToString();
  EXPECT_TRUE(released.load());  // the wait really blocked until the return
  const SessionPoolStats stats = pool.stats();
  EXPECT_EQ(stats.waits, 1u);
  EXPECT_EQ(stats.reuses, 1u);
}

TEST(SessionPool, ByteCapEvictsIdleSessionsOfOtherPlans) {
  SchedulerService service;
  const auto plan_a = PlanFor(service, models::MakeSwiftNetCellA());
  const auto plan_b = PlanFor(service, models::MakeSwiftNetCellB());
  SessionPoolOptions options;
  // Room for the larger arena alone, never both.
  options.max_total_arena_bytes =
      std::max(plan_a->plan.arena.arena_bytes, plan_b->plan.arena.arena_bytes);
  SessionPool pool(options);

  { auto lease = pool.Checkout(plan_a, kInf); ASSERT_TRUE(lease.ok()); }
  EXPECT_EQ(pool.stats().sessions_idle, 1u);

  // Checking out plan B cannot fit next to A's idle session: A is evicted.
  util::StatusOr<SessionPool::Lease> lease_b = pool.Checkout(plan_b, kInf);
  ASSERT_TRUE(lease_b.ok()) << lease_b.status().ToString();
  const SessionPoolStats stats = pool.stats();
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.creations, 2u);
  EXPECT_EQ(stats.arena_bytes_pooled, plan_b->plan.arena.arena_bytes);
}

TEST(SessionPool, PlanLargerThanCapShedsImmediately) {
  SchedulerService service;
  const auto plan = PlanFor(service, models::MakeSwiftNetCellA());
  SessionPoolOptions options;
  options.max_total_arena_bytes = 1;
  SessionPool pool(options);

  util::StatusOr<SessionPool::Lease> lease = pool.Checkout(plan, kInf);
  ASSERT_FALSE(lease.ok());
  EXPECT_EQ(lease.status().code(), util::StatusCode::kResourceExhausted);
  EXPECT_EQ(pool.stats().waits, 0u);  // a wait could never have helped
}

TEST(SessionPool, InjectedCheckoutFaultShedsStructurally) {
  SchedulerService service;
  SessionPool pool;
  const auto plan = PlanFor(service, models::MakeSwiftNetCellA());
  {
    serenity::testing::ScopedFault fault(
        serenity::testing::FaultPoint::kSessionCheckout);
    util::StatusOr<SessionPool::Lease> lease = pool.Checkout(plan, kInf);
    ASSERT_FALSE(lease.ok());
    EXPECT_EQ(lease.status().code(), util::StatusCode::kResourceExhausted);
    EXPECT_EQ(pool.stats().sheds, 1u);
  }
  // Disarmed again: the next checkout succeeds.
  EXPECT_TRUE(pool.Checkout(plan, kInf).ok());
}

// The tentpole invariant: once a plan's session exists in the pool, the
// whole checkout -> infer -> return cycle performs ZERO heap allocations
// on the serving thread. Measured, not claimed: operator new is replaced
// (alloc_counter.h) and the count must not move.
TEST(SessionPool, SteadyStateCheckoutInferReturnIsZeroAlloc) {
  SchedulerService service;
  SessionPool pool;
  const auto plan = PlanFor(service, models::MakeSwiftNetCellA());
  const std::vector<runtime::Tensor> inputs = serenity::testing::RandomInputsFor(
      plan->result.scheduled_graph, 42);

  // Warm-up: builds the session (allocates) and returns it to the pool.
  {
    util::StatusOr<SessionPool::Lease> lease = pool.Checkout(plan, kInf);
    ASSERT_TRUE(lease.ok());
    (*lease)->Run(inputs);
  }
  ASSERT_EQ(pool.stats().sessions_idle, 1u);

  const std::uint64_t before = serenity::testing::ThreadAllocationCount();
  for (int i = 0; i < 16; ++i) {
    util::StatusOr<SessionPool::Lease> lease = pool.Checkout(plan, kInf);
    (*lease)->Run(inputs);
  }
  // The serve path: inputs written straight into their placements, sinks
  // read through the arena views.
  float checksum = 0.0f;
  for (int i = 0; i < 16; ++i) {
    util::StatusOr<SessionPool::Lease> lease = pool.Checkout(plan, kInf);
    (*lease)->RunBinding([&inputs](std::size_t ordinal,
                                   runtime::Tensor& view) {
      std::copy_n(inputs[ordinal].data(), view.size(), view.data());
    });
    for (const runtime::Tensor* sink : (*lease)->executor().SinkViews()) {
      checksum += sink->At(0, 0, 0, 0);
    }
  }
  const std::uint64_t after = serenity::testing::ThreadAllocationCount();
  EXPECT_EQ(after - before, 0u)
      << (after - before) << " heap allocations leaked into the hot path";
  EXPECT_EQ(pool.stats().reuses, 32u);
  EXPECT_TRUE(std::isfinite(checksum));
}

}  // namespace
}  // namespace serenity::serve
