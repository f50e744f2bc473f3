// Fixed-size worker gang for every parallel loop in this repository: the
// sharded engine's windows, the GA's fitness batches, Router::precompute
// and the bench sweep runner.
//
// The pool follows the shared-nothing worker pattern of high-throughput
// packet frameworks (mTCP's per-core stacks, IX's run-to-completion
// dataplane): callers keep one unit of mutable scratch state *per lane* and
// share only immutable data, so no work item ever synchronizes with another
// beyond claiming its index. One entry point:
//
//  - parallel_for(n, body): runs body(i, lane) for every i in [0, n).
//    Index i < lanes() runs on lane i, so a caller that splits its work
//    into lanes() lists keeps each list on the same thread in every call;
//    further indices go to whichever lane claims them next from one shared
//    cursor. The calling thread is lane 0 and the call blocks until every
//    index ran. `lane` identifies the executing lane (0 = caller,
//    1..workers() = pool threads) and is unique among concurrently running
//    bodies, so indexing per-lane scratch by it is race-free by
//    construction.
//
// Workers park in a SpinBarrier between calls; a call crosses it twice
// (publish the body, then wait for every lane to finish its share).
//
// Determinism: which lane claims an index past lanes() depends on timing,
// so callers achieve deterministic results by writing into index-addressed
// slots (out[i] = f(i)) and doing any order-sensitive reduction over those
// slots afterwards. Every user in this repository follows that pattern,
// which is why their output is bit-identical for any worker count,
// including zero.
//
// External calls (constructor aside) must come from one thread at a time —
// the pool's owner. A parallel_for issued from inside any of this pool's
// bodies, the caller's own share included, runs inline on that body's lane;
// any other thread (a worker of another pool, say) calls in as lane 0.
#pragma once

#include <atomic>
#include <cstdint>
#include <exception>
#include <functional>
#include <thread>
#include <vector>

#include "common/spin_barrier.h"

namespace r2c2 {

class ThreadPool {
 public:
  // Spawns `workers` threads (clamped to >= 0). 0 is valid and useful:
  // parallel_for then runs inline on the caller, so code can be written
  // once against the pool API and run serially.
  explicit ThreadPool(int workers);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int workers() const { return static_cast<int>(threads_.size()); }
  // Execution lanes = workers + the calling thread.
  int lanes() const { return workers() + 1; }
  // Workers to spawn so that lanes() == the machine's hardware concurrency.
  static int hardware_workers();

  // Runs body(i, lane) for every i in [0, n); blocks until all ran. Runs
  // inline on the caller when the pool has no workers, when n == 1, or
  // when nested in one of this pool's bodies. The first exception thrown
  // by `body` is rethrown here once every lane has stopped (indices not
  // yet claimed are skipped, running bodies are not interrupted).
  void parallel_for(std::size_t n, const std::function<void(std::size_t, int)>& body);

  struct Stats {
    std::uint64_t executed = 0;  // indices run by parallel (not inline) calls
    // Always 0: lanes claim indices from one cursor and never steal.
    // rackbench still reports it as thread_pool.steal_ratio.
    std::uint64_t stolen = 0;
  };
  Stats stats() const { return {executed_.load(std::memory_order_relaxed), 0}; }

 private:
  using Body = std::function<void(std::size_t, int)>;

  void worker_main(int lane);
  // Runs index `lane` (if < n_), then claims indices from next_ until none
  // is left or a body has thrown.
  void run_share(int lane);

  SpinBarrier barrier_;  // workers + the caller
  // The call in flight, published to the workers by the opening barrier;
  // body_ == nullptr there tells them to exit.
  const Body* body_ = nullptr;
  std::size_t n_ = 0;
  std::atomic<std::size_t> next_{0};  // next unclaimed index >= lanes()
  std::atomic<bool> failed_{false};
  std::exception_ptr error_;  // written once, by the body that set failed_
  std::atomic<std::uint64_t> executed_{0};
  std::vector<std::thread> threads_;  // last: workers use every member above
};

}  // namespace r2c2
