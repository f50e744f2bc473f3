// ThreadPool: parallel_for correctness and determinism, work-stealing
// stats, exception propagation, degenerate worker counts, nesting, and the
// sweep runner's order guarantee.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "obs/metrics.h"
#include "obs/pool_gauges.h"

namespace r2c2 {
namespace {

std::uint64_t mix(std::uint64_t v) { return splitmix64(v); }

TEST(ThreadPool, ParallelForCoversEveryIndexExactlyOnce) {
  for (const int workers : {0, 1, 3, 7}) {
    ThreadPool pool(workers);
    for (const std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{5},
                                std::size_t{64}, std::size_t{1000}}) {
      std::vector<std::atomic<int>> hits(n);
      pool.parallel_for(n, [&](std::size_t i, int lane) {
        ASSERT_GE(lane, 0);
        ASSERT_LT(lane, pool.lanes());
        hits[i].fetch_add(1, std::memory_order_relaxed);
      });
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(hits[i].load(), 1) << "workers=" << workers << " n=" << n << " i=" << i;
      }
    }
  }
}

TEST(ThreadPool, IndexAddressedResultsAreDeterministic) {
  // The determinism contract: out[i] = f(i) gives identical vectors for
  // every worker count because slots are index-addressed.
  const std::size_t n = 2048;
  std::vector<std::uint64_t> expected(n);
  for (std::size_t i = 0; i < n; ++i) expected[i] = mix(i);
  for (const int workers : {0, 1, 2, 7}) {
    ThreadPool pool(workers);
    std::vector<std::uint64_t> out(n, 0);
    pool.parallel_for(n, [&](std::size_t i, int) { out[i] = mix(i); });
    EXPECT_EQ(out, expected) << "workers=" << workers;
  }
}

TEST(ThreadPool, LaneIsUniqueAmongConcurrentBodies) {
  // Two bodies running at the same time must never share a lane id — this
  // is what makes per-lane scratch race-free. Track per-lane reentrancy.
  ThreadPool pool(3);
  std::vector<std::atomic<int>> in_lane(static_cast<std::size_t>(pool.lanes()));
  std::atomic<bool> clash{false};
  pool.parallel_for(400, [&](std::size_t, int lane) {
    if (in_lane[static_cast<std::size_t>(lane)].fetch_add(1) != 0) clash.store(true);
    std::this_thread::sleep_for(std::chrono::microseconds(20));
    in_lane[static_cast<std::size_t>(lane)].fetch_sub(1);
  });
  EXPECT_FALSE(clash.load());
}

TEST(ThreadPool, ParallelForPropagatesFirstException) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.parallel_for(100,
                                 [&](std::size_t i, int) {
                                   if (i == 37) throw std::runtime_error("boom");
                                 }),
               std::runtime_error);
  // The pool survives the exceptional batch.
  std::atomic<int> ran{0};
  pool.parallel_for(16, [&](std::size_t, int) { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), 16);
}

TEST(ThreadPool, StatsCountExecutedTasks) {
  ThreadPool pool(2);
  const auto before = pool.stats();
  pool.parallel_for(256, [](std::size_t, int) {});
  const auto after = pool.stats();
  EXPECT_GT(after.executed, before.executed);
  EXPECT_GE(after.stolen, before.stolen);  // stealing is possible, not required
}

TEST(ThreadPool, ZeroWorkersRunsInlineOnCaller) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.workers(), 0);
  EXPECT_EQ(pool.lanes(), 1);
  const auto caller = std::this_thread::get_id();
  std::vector<std::thread::id> ran(8);
  pool.parallel_for(8, [&](std::size_t i, int lane) {
    EXPECT_EQ(lane, 0);
    ran[i] = std::this_thread::get_id();
  });
  for (const auto& id : ran) EXPECT_EQ(id, caller);
}

TEST(ThreadPool, NestedParallelForRunsInline) {
  // A body that calls back into the pool must not deadlock: the inner call
  // degrades to inline execution on the worker's lane.
  ThreadPool pool(2);
  std::atomic<int> inner{0};
  pool.parallel_for(8, [&](std::size_t, int) {
    pool.parallel_for(4, [&](std::size_t, int) { inner.fetch_add(1); });
  });
  EXPECT_EQ(inner.load(), 32);
}

TEST(ThreadPool, AnotherPoolsWorkerCallsInAsLaneZero) {
  // A body of one pool may own a second pool (a sweep job running a
  // threaded search): it is that pool's caller, so the second pool runs
  // in parallel and hands its bodies lanes of its own range.
  ThreadPool outer(2);
  std::atomic<bool> out_of_range{false};
  std::atomic<int> ran{0};
  outer.parallel_for(4, [&](std::size_t, int) {
    ThreadPool inner(1);
    inner.parallel_for(16, [&](std::size_t, int lane) {
      if (lane < 0 || lane >= inner.lanes()) out_of_range.store(true);
      ran.fetch_add(1);
    });
  });
  EXPECT_FALSE(out_of_range.load());
  EXPECT_EQ(ran.load(), 64);
}

TEST(ThreadPool, PublishesStatsAsGauges) {
  ThreadPool pool(1);
  pool.parallel_for(32, [](std::size_t, int) {});
  obs::MetricsRegistry registry;
  obs::publish_pool_stats(pool, registry, "test_pool");
  EXPECT_EQ(registry.gauge("test_pool.workers").value(), 1.0);
  EXPECT_GE(registry.gauge("test_pool.tasks_executed").value(), 1.0);
}

TEST(Sweep, ResultsComeBackInInputOrder) {
  // The bench sweep pattern: jobs finishing out of order (later items
  // sleep less) must still land in input order because slots are
  // index-addressed.
  ThreadPool pool(3);
  const std::size_t n = 24;
  std::vector<int> out(n, -1);
  pool.parallel_for(n, [&](std::size_t i, int) {
    // Earlier items take longer, so completion order inverts input order.
    std::this_thread::sleep_for(std::chrono::microseconds((n - i) * 50));
    out[i] = static_cast<int>(i) * 3;
  });
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(out[i], static_cast<int>(i) * 3);
}

}  // namespace
}  // namespace r2c2
