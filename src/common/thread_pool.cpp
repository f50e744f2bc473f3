#include "common/thread_pool.h"

#include <algorithm>
#include <utility>

namespace r2c2 {

namespace {

// The pool whose body the current thread is running, and that body's lane
// (nullptr on any other thread). Workers hold their pool for life; a
// caller holds it while it runs its own share. Used to detect re-entrant
// parallel_for calls; a thread running another pool's body calls in as
// this pool's lane 0.
thread_local const ThreadPool* t_pool = nullptr;
thread_local int t_lane = 0;

}  // namespace

int ThreadPool::hardware_workers() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 1 ? static_cast<int>(hw) - 1 : 0;
}

ThreadPool::ThreadPool(int workers) : barrier_(std::max(0, workers) + 1) {
  threads_.reserve(static_cast<std::size_t>(std::max(0, workers)));
  for (int lane = 1; lane <= workers; ++lane) {
    threads_.emplace_back([this, lane] { worker_main(lane); });
  }
}

ThreadPool::~ThreadPool() {
  body_ = nullptr;
  barrier_.arrive_and_wait();
  for (std::thread& t : threads_) t.join();
}

void ThreadPool::worker_main(int lane) {
  t_pool = this;
  t_lane = lane;
  for (;;) {
    barrier_.arrive_and_wait();
    if (body_ == nullptr) return;
    run_share(lane);
    barrier_.arrive_and_wait();
  }
}

void ThreadPool::run_share(int lane) {
  std::uint64_t ran = 0;
  try {
    for (auto i = static_cast<std::size_t>(lane);
         i < n_ && !failed_.load(std::memory_order_relaxed);
         i = next_.fetch_add(1, std::memory_order_relaxed)) {
      (*body_)(i, lane);
      ++ran;
    }
  } catch (...) {
    if (!failed_.exchange(true)) error_ = std::current_exception();
  }
  executed_.fetch_add(ran, std::memory_order_relaxed);
}

void ThreadPool::parallel_for(std::size_t n, const Body& body) {
  if (n == 0) return;
  const bool nested = t_pool == this;
  if (workers() == 0 || n == 1 || nested) {
    const int lane = nested ? t_lane : 0;
    for (std::size_t i = 0; i < n; ++i) body(i, lane);
    return;
  }
  body_ = &body;
  n_ = n;
  next_.store(static_cast<std::size_t>(lanes()), std::memory_order_relaxed);
  failed_.store(false, std::memory_order_relaxed);
  barrier_.arrive_and_wait();
  // The caller's share runs as this pool's lane 0, so a nested call from
  // it runs inline like one from any worker's share.
  const ThreadPool* const outer_pool = std::exchange(t_pool, this);
  const int outer_lane = std::exchange(t_lane, 0);
  run_share(0);
  t_pool = outer_pool;
  t_lane = outer_lane;
  barrier_.arrive_and_wait();
  if (error_) std::rethrow_exception(std::exchange(error_, nullptr));
}

}  // namespace r2c2
