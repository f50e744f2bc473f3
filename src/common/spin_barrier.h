// Reusable sense-reversing barrier for small, tightly coupled worker gangs.
//
// ThreadPool's workers park here between parallel_for calls, and every
// call crosses it twice (publish the body -> every share done). The
// sharded event engine makes two such calls per conservative window (run
// events, then drain mailboxes), and a window can be as short as a few
// microseconds of wall time, so the barrier must not take a kernel
// round-trip on the fast path. Arrivals spin on the generation counter
// with a pause hint, degrade to yield, and only fall back to a condition
// variable when a wait lasts long enough that burning a core would be rude
// (e.g. the engine is idle between run() calls, or the GA breeds between
// generations). All transitions are acquire/release on the generation
// word, so everything written before arrive_and_wait() on one thread is
// visible after it returns on every other — TSan-clean by construction.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>

namespace r2c2 {

namespace detail {
inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__) || defined(__arm__)
  asm volatile("yield");
#else
  std::this_thread::yield();
#endif
}
}  // namespace detail

class SpinBarrier {
 public:
  explicit SpinBarrier(int parties) : parties_(parties) {}
  SpinBarrier(const SpinBarrier&) = delete;
  SpinBarrier& operator=(const SpinBarrier&) = delete;

  void arrive_and_wait() {
    if (parties_ <= 1) return;
    const std::uint64_t gen = gen_.load(std::memory_order_acquire);
    if (count_.fetch_add(1, std::memory_order_acq_rel) + 1 == parties_) {
      // Last arrival: reset the arrival count *before* publishing the new
      // generation — waiters only proceed (and re-arrive) after observing
      // the bump, so the reset cannot race with next-round arrivals.
      count_.store(0, std::memory_order_relaxed);
      {
        std::lock_guard<std::mutex> lock(mu_);
        gen_.store(gen + 1, std::memory_order_release);
      }
      cv_.notify_all();
      return;
    }
    for (int spins = 0; gen_.load(std::memory_order_acquire) == gen; ++spins) {
      if (spins < kSpinIterations) {
        detail::cpu_relax();
      } else if (spins < kSpinIterations + kYieldIterations) {
        std::this_thread::yield();
      } else {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [&] { return gen_.load(std::memory_order_acquire) != gen; });
        return;
      }
    }
  }

  int parties() const { return parties_; }

 private:
  static constexpr int kSpinIterations = 4096;
  static constexpr int kYieldIterations = 256;

  const int parties_;
  std::atomic<int> count_{0};
  std::atomic<std::uint64_t> gen_{0};
  std::mutex mu_;
  std::condition_variable cv_;
};

}  // namespace r2c2
