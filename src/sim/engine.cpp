// The event engine's one driver, for every lane count: conservative
// windows, serial phases, and the persistent worker gang.
//
// The schedule alternates between two regimes, chosen by comparing the
// earliest pending event time Tmin against the global lane's top. A
// 1-shard engine's only lane is the global lane, so it runs serial phases
// alone, one per distinct event time:
//
//   * Serial phase (global lane owns Tmin): every event stamped exactly
//     Tmin — across all lanes — executes single-threaded on the driving
//     thread in global (time, key) order. Global control logic (flow
//     starts, rate recomputation, failure detection, context rebuilds)
//     may touch any lane here, including scheduling directly onto shard
//     lanes via schedule_on.
//
//   * Parallel window [Tmin, We) with We = min(Tmin + lookahead,
//     global_top, until + 1): every shard lane runs its own events with
//     time < We on its owning worker. The lookahead is the minimum
//     shard-boundary propagation delay, so anything a shard emits toward
//     another shard inside the window is stamped >= We — conservatively
//     safe, no rollback. Cross-shard packets go through mailboxes; the
//     destination lane drains them at the window barrier (lane_drain
//     hook), and the simulator's deferred cross-shard state ops apply
//     after that (barrier_apply hook), with all workers parked.
//
// Determinism: which regime runs, the window bounds, each lane's event
// order, the mailbox drain order (fixed source-lane sweep) and the op
// merge order are all functions of simulation state only — never of
// thread timing — so a run with W workers is bit-identical to W = 1.
#include "sim/engine.h"

#include <atomic>
#include <stdexcept>
#include <string>
#include <thread>

#include "common/spin_barrier.h"

namespace r2c2::sim {

// Persistent worker gang: workers_ - 1 helper threads plus the driving
// thread, synchronized by a reusable barrier three times per window
// (publish -> events done -> drains done). Helpers park in the barrier
// between windows, so serial phases and idle time cost nothing.
class Engine::Gang {
 public:
  explicit Gang(Engine& e) : e_(e), barrier_(e.workers_) {
    threads_.reserve(static_cast<std::size_t>(e.workers_ - 1));
    for (int w = 1; w < e.workers_; ++w) {
      threads_.emplace_back([this, w] { worker_main(w); });
    }
  }

  ~Gang() {
    exit_.store(true, std::memory_order_release);
    barrier_.arrive_and_wait();
    for (std::thread& t : threads_) t.join();
  }

  // Runs one parallel window. The caller has set window_we_ and
  // in_window_ = true; both are published to the helpers by the first
  // barrier and every lane/mailbox write is published back to the caller
  // by the last one.
  void run_window() {
    barrier_.arrive_and_wait();
    work(0);
    barrier_.arrive_and_wait();
    e_.in_window_ = false;  // next read is behind a barrier on every thread
    drain(0);
    barrier_.arrive_and_wait();
  }

 private:
  void worker_main(int w) {
    for (;;) {
      barrier_.arrive_and_wait();
      if (exit_.load(std::memory_order_acquire)) return;
      work(w);
      barrier_.arrive_and_wait();
      drain(w);
      barrier_.arrive_and_wait();
    }
  }

  // Worker w owns the contiguous lane range [w*K/W, (w+1)*K/W).
  void work(int w) {
    const int K = e_.shards_;
    const int W = e_.workers_;
    const int lo = w * K / W;
    const int hi = (w + 1) * K / W;
    for (int lane = lo; lane < hi; ++lane) {
      detail::tls_engine_lane = lane;
      e_.run_lane_until(e_.lanes_[static_cast<std::size_t>(lane)], e_.window_we_);
    }
    detail::tls_engine_lane = -1;
  }

  void drain(int w) {
    if (!e_.lane_drain_) return;
    const int K = e_.shards_;
    const int W = e_.workers_;
    const int lo = w * K / W;
    const int hi = (w + 1) * K / W;
    for (int lane = lo; lane < hi; ++lane) {
      detail::tls_engine_lane = lane;
      e_.lane_drain_(lane);
    }
    detail::tls_engine_lane = -1;
  }

  Engine& e_;
  SpinBarrier barrier_;
  std::atomic<bool> exit_{false};
  std::vector<std::thread> threads_;
};

Engine::Engine() : lanes_(1) {}

Engine::~Engine() = default;

void Engine::configure_shards(int shards, int workers, TimeNs lookahead) {
  if (shards < 1 || shards > kMaxShards) {
    throw std::invalid_argument("engine shards must be in [1, " + std::to_string(kMaxShards) +
                                "], got " + std::to_string(shards));
  }
  assert(empty() && total_events() == 0 && next_seq() == 0 &&
         "configure_shards must precede all scheduling");
  assert(shards == 1 || lookahead > 0);
  gang_.reset();
  shards_ = shards;
  workers_ = workers < 1 ? 1 : (workers > shards ? shards : workers);
  lookahead_ = shards == 1 ? 0 : lookahead;
  lanes_.clear();
  lanes_.resize(static_cast<std::size_t>(shards == 1 ? 1 : shards + 1));
  cur_lane_ = global_lane();
}

void Engine::ensure_gang() {
  if (!gang_) gang_ = std::make_unique<Gang>(*this);
}

std::uint64_t Engine::run_lane_until(Lane& lane, TimeNs we) {
  std::uint64_t n = 0;
  while (!lane.heap.empty() && lane.heap.front().time < we) {
    lane.now = lane.heap.front().time;
    Action action = pop_min(lane);
    action();
    ++n;
  }
  lane.events += n;
  ++lane.windows;
  if (n == 0) ++lane.stalls;
  return n;
}

std::uint64_t Engine::serial_phase(TimeNs t) {
  ++serial_phases_;
  std::uint64_t n = 0;
  bool shard_ran = false;
  const int saved = cur_lane_;
  // Keep draining events stamped exactly t across all lanes in global
  // (time, key) order; events executed here may schedule more work at t
  // (e.g. a flow start arming its first emission), which joins the same
  // phase in key order.
  for (;;) {
    int best = -1;
    std::uint64_t best_key = 0;
    for (int i = 0; i < num_lanes(); ++i) {
      const auto& heap = lanes_[static_cast<std::size_t>(i)].heap;
      if (heap.empty() || heap.front().time != t) continue;
      if (best < 0 || heap.front().key < best_key) {
        best = i;
        best_key = heap.front().key;
      }
    }
    if (best < 0) break;
    Lane& lane = lanes_[static_cast<std::size_t>(best)];
    Action action = pop_min(lane);
    lane.now = t;
    cur_lane_ = best;
    action();
    ++lane.events;
    ++n;
    shard_ran |= best != global_lane();
  }
  cur_lane_ = saved;
  // Only shard lanes defer state ops, so a phase that ran none of their
  // events (every phase of a 1-shard engine) has nothing to apply.
  if (shard_ran && barrier_apply_) barrier_apply_();
  return n;
}

void Engine::run_window(TimeNs we) {
  window_we_ = we;
  in_window_ = true;
  ++windows_;
  if (workers_ > 1) {
    ensure_gang();
    gang_->run_window();
    return;
  }
  // Single-worker sharded run: same phases, same order, no threads.
  for (int lane = 0; lane < shards_; ++lane) {
    detail::tls_engine_lane = lane;
    run_lane_until(lanes_[static_cast<std::size_t>(lane)], we);
  }
  detail::tls_engine_lane = -1;
  in_window_ = false;
  if (lane_drain_) {
    for (int lane = 0; lane < shards_; ++lane) {
      detail::tls_engine_lane = lane;
      lane_drain_(lane);
    }
    detail::tls_engine_lane = -1;
  }
}

std::uint64_t Engine::run(TimeNs until) {
  constexpr TimeNs kMax = std::numeric_limits<TimeNs>::max();
  const int g = global_lane();
  std::uint64_t processed = 0;
  for (;;) {
    TimeNs tmin = kMax;
    for (const Lane& lane : lanes_) {
      if (!lane.heap.empty() && lane.heap.front().time < tmin) tmin = lane.heap.front().time;
    }
    if (tmin == kMax || tmin > until) break;
    const Lane& global = lanes_[static_cast<std::size_t>(g)];
    const TimeNs gtop = global.heap.empty() ? kMax : global.heap.front().time;
    if (gtop == tmin) {
      processed += serial_phase(tmin);
      continue;
    }
    TimeNs we = lookahead_ >= kMax - tmin ? kMax : tmin + lookahead_;
    if (gtop < we) we = gtop;
    if (until != kMax && we > until + 1) we = until + 1;
    const std::uint64_t before = total_events();
    run_window(we);
    processed += total_events() - before;
    // The global clock trails the shards by at most one window; pinning
    // it to the window base keeps barrier-context scheduling (rebuild
    // delays, deferred ops) anchored deterministically.
    Lane& global_mut = lanes_[static_cast<std::size_t>(g)];
    if (global_mut.now < tmin) global_mut.now = tmin;
    if (barrier_apply_) barrier_apply_();
  }
  if (until != kMax) {
    for (Lane& lane : lanes_) {
      if (lane.now < until) lane.now = until;
    }
  }
  return processed;
}

}  // namespace r2c2::sim
