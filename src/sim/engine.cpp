// The event engine's one driver, for every lane count: conservative
// windows and serial phases.
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
//     time < We on its owning worker, in one ThreadPool::parallel_for
//     over the workers. The lookahead is the minimum shard-boundary
//     propagation delay, so anything a shard emits toward another shard
//     inside the window is stamped >= We — conservatively safe, no
//     rollback. Cross-shard packets go through mailboxes; a second
//     parallel_for has each destination lane drain them (lane_drain
//     hook), and the simulator's deferred cross-shard state ops apply
//     after that on the driving thread (barrier_apply hook), with all
//     workers parked.
//
// Determinism: which regime runs, the window bounds, each lane's event
// order, the mailbox drain order (fixed source-lane sweep) and the op
// merge order are all functions of simulation state only — never of
// thread timing — so a run with W workers is bit-identical to W = 1.
#include "sim/engine.h"

#include <stdexcept>
#include <string>

#include "common/thread_pool.h"

namespace r2c2::sim {

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
  pool_.reset();
  shards_ = shards;
  workers_ = workers < 1 ? 1 : (workers > shards ? shards : workers);
  lookahead_ = shards == 1 ? 0 : lookahead;
  lanes_.clear();
  lanes_.resize(static_cast<std::size_t>(shards == 1 ? 1 : shards + 1));
  cur_lane_ = global_lane();
}

void Engine::handle(std::uint32_t kind, Handler run, Check check) {
  if (kind >= kinds_.size()) kinds_.resize(kind + 1);
  assert(!kinds_[kind].run && "one handler per event kind");
  kinds_[kind] = Kind{std::move(run), std::move(check)};
}

bool Engine::runnable(const EventDesc& ev) const {
  if (ev.kind >= kinds_.size() || !kinds_[ev.kind].run) return false;
  const Check& check = kinds_[ev.kind].check;
  return !check || check(ev);
}

std::uint64_t Engine::run_lane_until(Lane& lane, TimeNs we) {
  std::uint64_t n = 0;
  while (!lane.heap.empty() && lane.heap.front().time < we) {
    lane.now = lane.heap.front().time;
    dispatch(pop_min(lane));
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
    const EventDesc ev = pop_min(lane);
    lane.now = t;
    cur_lane_ = best;
    dispatch(ev);
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
  in_window_ = true;
  ++windows_;
  if (!pool_) pool_ = std::make_unique<ThreadPool>(workers_ - 1);
  // Pool lane w owns the contiguous shard lanes [w*K/W, (w+1)*K/W) in both
  // calls and in every window.
  const auto on_shard_lanes = [this](const auto& fn) {
    pool_->parallel_for(static_cast<std::size_t>(workers_), [this, &fn](std::size_t w, int) {
      const int lo = static_cast<int>(w) * shards_ / workers_;
      const int hi = (static_cast<int>(w) + 1) * shards_ / workers_;
      for (int lane = lo; lane < hi; ++lane) {
        detail::tls_engine_lane = lane;
        fn(lane);
      }
      detail::tls_engine_lane = -1;
    });
  };
  on_shard_lanes(
      [this, we](int lane) { run_lane_until(lanes_[static_cast<std::size_t>(lane)], we); });
  in_window_ = false;
  if (lane_drain_) on_shard_lanes([this](int lane) { lane_drain_(lane); });
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
