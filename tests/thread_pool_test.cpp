// ThreadPool: parallel_for correctness and determinism, static placement
// of the first lanes() indices, stats, exception propagation, degenerate
// worker counts, nesting, and the sweep runner's order guarantee.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"

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

TEST(ThreadPool, OneIndexPerLaneRunsOnItsLane) {
  // A caller that splits its work into lanes() lists (the GA's lane plan,
  // the engine's shard-lane ranges) gets list i on lane i, and so on the
  // same thread, in every call.
  ThreadPool pool(3);
  const auto lanes = static_cast<std::size_t>(pool.lanes());
  std::vector<std::thread::id> first(lanes);
  for (int call = 0; call < 200; ++call) {
    std::vector<int> lane_of(lanes, -1);
    std::vector<std::thread::id> thread_of(lanes);
    pool.parallel_for(lanes, [&](std::size_t i, int lane) {
      lane_of[i] = lane;
      thread_of[i] = std::this_thread::get_id();
    });
    if (call == 0) first = thread_of;
    for (std::size_t i = 0; i < lanes; ++i) {
      ASSERT_EQ(lane_of[i], static_cast<int>(i)) << "call " << call;
      ASSERT_EQ(thread_of[i], first[i]) << "call " << call << " index " << i;
    }
  }
  EXPECT_EQ(first[0], std::this_thread::get_id());
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
  EXPECT_EQ(after.executed - before.executed, 256u);
  EXPECT_EQ(after.stolen, 0u);  // lanes claim from one cursor; nothing is stolen
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

TEST(ThreadPool, NestedCallOnTheCallersLaneRunsInline) {
  // The caller's own share is one of the pool's bodies too: a nested call
  // from it must stay on lane 0 like a nested call from a worker stays on
  // that worker's lane. The inner bodies sleep so that idle workers would
  // have time to pick up any inner index offered to them.
  ThreadPool pool(3);
  const auto lanes = static_cast<std::size_t>(pool.lanes());
  for (int call = 0; call < 200; ++call) {
    std::vector<std::atomic<int>> strays(lanes);
    pool.parallel_for(lanes, [&](std::size_t, int outer) {
      pool.parallel_for(4, [&](std::size_t, int inner) {
        if (inner != outer) strays[static_cast<std::size_t>(outer)].fetch_add(1);
        std::this_thread::sleep_for(std::chrono::microseconds(20));
      });
    });
    for (std::size_t l = 0; l < lanes; ++l) {
      ASSERT_EQ(strays[l].load(), 0) << "call " << call << " outer lane " << l;
    }
  }
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
