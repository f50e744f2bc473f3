// Discrete-event simulation engine: per-lane binary heaps under one
// driver, sharded into lanes that run in parallel under conservative
// lookahead; a serial run is the one-lane case.
//
// An event is its descriptor (EventDesc): a kind and two operands. The
// component that schedules a kind registers one handler for it (handle),
// and the engine runs every event, live or restored from a snapshot, by
// calling the handler of its kind. Each lane's queue is two parts: a slot
// arena holding every pending event's descriptor, and a binary min-heap
// (std::push_heap / std::pop_heap) of 24-byte (time, key, slot) entries
// pointing into it. Sifting moves only the plain entries; a descriptor is
// copied into its slot once when scheduled and out once when popped.
//
// configure_shards(K, ...) splits the event queue into K shard lanes plus
// one global lane (index K), each with its own heap and clock. A 1-shard
// engine (the default) has exactly one lane, and it is the global lane.
// One driver serves every lane count. Whenever the global lane owns the
// earliest event, the engine runs a single-threaded serial phase, in which
// global control logic may touch any lane. Otherwise the shard lanes run
// a conservative window [T, T + lookahead) on worker threads: the
// lookahead is the minimum propagation latency across shard-boundary
// links, so nothing a shard does inside a window can affect another shard
// within the same window — no rollback is ever needed. With one lane every
// event belongs to the global lane, so a 1-shard run is a sequence of
// serial phases that process events in (time, key) order: ties in time run
// in scheduling order, which makes every simulation fully deterministic
// for a given seed.
//
// Event keys are stamped (origin_seq << 7 | origin_lane), a composite that
// totally orders same-timestamp ties by origin and scheduling order — an
// N-worker run is bit-identical to the 1-worker run with the same shard
// count.
//
// Worker count is pure parallelism: it never changes the trajectory.
// Shard count K > 1 is part of the configuration (different event
// interleaving than K == 1) and is mixed into snapshot fingerprints by
// the simulator.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "common/types.h"
#include "snapshot/persist.h"

namespace r2c2 {
class ThreadPool;
}  // namespace r2c2

namespace r2c2::sim {

// One scheduled event: its kind (sim/event_kind.h) and up to two operands
// (a flow id, a link id, a parked-packet slot, ...). The descriptor is the
// whole event: the engine runs it with the handler registered for its kind,
// and a snapshot archives it as it is (src/snapshot/).
struct EventDesc {
  std::uint32_t kind = 0;
  std::uint64_t a = 0;
  std::uint64_t b = 0;
};

namespace detail {
// Lane context of the executing thread during a parallel window (or
// mailbox drain); -1 everywhere else. One engine runs a window at a time
// per thread, so a single slot suffices.
inline thread_local int tls_engine_lane = -1;
}  // namespace detail

class Engine {
 public:
  // Lane index fits in the low 7 bits of an event key.
  static constexpr int kLaneBits = 7;
  static constexpr int kMaxShards = 126;

  Engine();
  ~Engine();
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  // Splits the engine into `shards` shard lanes plus one global lane, or
  // for shards == 1 into the one lane that is also the global lane.
  // `lookahead` is the conservative window width (minimum shard-boundary
  // propagation delay, see topology/partition.h) and must be positive when
  // shards > 1. `workers` threads drive the shard lanes inside windows
  // (clamped to [1, shards]; the engine's pool of workers - 1 threads
  // starts at the first window). Must be called before anything is
  // scheduled.
  // Throws std::invalid_argument unless 1 <= shards <= kMaxShards: lane ids
  // live in the low kLaneBits of every event key, so a larger count would
  // alias lanes and break the tie order.
  void configure_shards(int shards, int workers, TimeNs lookahead);

  int shards() const { return shards_; }
  int workers() const { return workers_; }
  int num_lanes() const { return static_cast<int>(lanes_.size()); }
  int global_lane() const { return shards_ == 1 ? 0 : shards_; }
  TimeNs lookahead() const { return lookahead_; }

  // Lane the calling thread is executing in: the worker's lane inside a
  // parallel window or drain, the executing event's lane in a serial
  // phase, the global lane outside run().
  int current_lane() const {
    const int tls = detail::tls_engine_lane;
    return tls >= 0 ? tls : cur_lane_;
  }
  // True while shard lanes are running a conservative window in parallel.
  // Cross-lane interaction is forbidden then: hand packets over via
  // mailboxes and drain them at the window barrier.
  bool in_window() const { return in_window_; }

  // Clock of the calling context's lane (the single clock of a 1-shard
  // engine).
  TimeNs now() const { return lanes_[static_cast<std::size_t>(current_lane())].now; }
  TimeNs lane_now(int lane) const { return lanes_[static_cast<std::size_t>(lane)].now; }

  // Runs one event of a kind. `check`, if given, vets the operands of an
  // archived event of the kind: a load rejects the event unless it returns
  // true (no check: any operands). The component that schedules a kind
  // registers its handler once, before the first event of the kind is
  // scheduled or loaded. Handlers run on the lane of their event, so a
  // handler of a shard-lane kind may run on any worker thread.
  using Handler = std::function<void(const EventDesc&)>;
  using Check = std::function<bool(const EventDesc&)>;
  void handle(std::uint32_t kind, Handler run, Check check = nullptr);

  void schedule_at(TimeNs t, const EventDesc& desc) {
    const int lane_idx = current_lane();
    enqueue(lane_idx, t, alloc_key_from(lane_idx), desc);
  }
  void schedule_in(TimeNs dt, const EventDesc& desc) { schedule_at(now() + dt, desc); }

  // Schedules onto an explicit lane, stamping the key from the *calling*
  // lane's sequence counter (ties keep the origin's serial order). Only
  // legal across lanes outside parallel windows; inside a window a shard
  // may only reach other lanes through mailboxes + schedule_keyed.
  void schedule_on(int lane_idx, TimeNs t, const EventDesc& desc) {
    assert(lane_idx >= 0 && lane_idx < num_lanes());
    assert(!in_window_ || lane_idx == current_lane());
    enqueue(lane_idx, t, alloc_key_from(current_lane()), desc);
  }

  // Allocates an event key from the calling lane without scheduling —
  // mailbox posts stamp (time, key) at send time and the destination
  // inserts via schedule_keyed at the window barrier, preserving the
  // origin's tie order exactly as if the event had been pushed directly.
  std::uint64_t alloc_key() { return alloc_key_from(current_lane()); }

  void schedule_keyed(int lane_idx, TimeNs t, std::uint64_t key, const EventDesc& desc) {
    enqueue(lane_idx, t, key, desc);
  }

  // Runs events until the queue drains or simulated time would exceed
  // `until`, alternating serial phases with parallel windows (engine.cpp).
  // Returns the number of events processed by this call. For a finite
  // horizon every lane clock lands exactly on `until` (whether or not
  // events remain) — callers stepping the engine in fixed intervals, like
  // the snapshot/digest driver, stay on their grid.
  std::uint64_t run(TimeNs until = std::numeric_limits<TimeNs>::max());

  bool empty() const {
    for (const Lane& lane : lanes_) {
      if (!lane.heap.empty()) return false;
    }
    return true;
  }
  std::size_t pending() const {
    std::size_t n = 0;
    for (const Lane& lane : lanes_) n += lane.heap.size();
    return n;
  }
  std::uint64_t total_events() const {
    std::uint64_t n = 0;
    for (const Lane& lane : lanes_) n += lane.events;
    return n;
  }
  std::uint64_t next_seq() const {
    std::uint64_t n = 0;
    for (const Lane& lane : lanes_) n += lane.next_key;
    return n;
  }

  // --- Window hooks ---
  // lane_drain(lane) runs at the window barrier, on the thread that owns
  // `lane`, after all lanes finished the window: the network drains the
  // lane's incoming mailboxes here. barrier_apply() runs on the driving
  // thread with all workers parked, after every window and after every
  // serial phase that ran a shard lane's event: the simulator applies the
  // cross-shard state ops (flow-table and broadcast bookkeeping) that
  // shard lanes defer.
  void set_lane_drain(std::function<void(int)> fn) { lane_drain_ = std::move(fn); }
  void set_barrier_apply(std::function<void()> fn) { barrier_apply_ = std::move(fn); }

  // --- Observability ---
  struct LaneStats {
    TimeNs now = 0;
    std::uint64_t events = 0;    // events executed on this lane
    std::uint64_t clamped = 0;   // past-time schedules clamped to the lane clock
    std::uint64_t windows = 0;   // parallel windows this lane participated in
    std::uint64_t stalls = 0;    // windows in which the lane had no runnable event
  };
  LaneStats lane_stats(int lane) const {
    const Lane& l = lanes_[static_cast<std::size_t>(lane)];
    return LaneStats{l.now, l.events, l.clamped, l.windows, l.stalls};
  }
  // Total past-time clamps across lanes (the satellite obs metric).
  std::uint64_t clamped_schedules() const {
    std::uint64_t n = 0;
    for (const Lane& lane : lanes_) n += lane.clamped;
    return n;
  }
  // Parallel windows executed (0 on a 1-shard engine).
  std::uint64_t windows_run() const { return windows_; }
  // Serial phases executed (global-lane turns; one per distinct event time
  // on a 1-shard engine).
  std::uint64_t serial_phases() const { return serial_phases_; }

  // --- Snapshot support (src/snapshot/) ---
  // The queue's field walk (src/snapshot/persist.h): per lane the clock,
  // the key counter, the events run and every pending event in ascending
  // (time, key) order — the queue's state, not its heap layout, so equal
  // queues archive and digest alike however they were built. Each event
  // archives its time, key and kind, then `operands(desc, lane)` walks the
  // rest of its descriptor: the two operands, or what the queue's owner
  // archives in their place. The reader requires the order strictly, every
  // key's lane tag to name a lane of this engine and every event to be
  // runnable() here, so a loaded event runs exactly as a live one would. A
  // sorted array is a valid heap, so a load adopts it as is: event i of a
  // lane lands in slot i with an empty free list. clamped/windows/stalls
  // are observability only and restart from zero.
  template <class Self, class V, class Operands>
  static void persist(Self& e, V& v, Operands&& operands) {
    // time, key and kind, plus the two operands' worth every event walk
    // archives at least.
    constexpr std::size_t kArchivedEventBytes = 8 + 8 + 4 + 8 + 8;
    constexpr std::uint64_t kLaneMask = (std::uint64_t{1} << kLaneBits) - 1;
    v.section("engine", [&] {
      int lane_idx = 0;
      v.each(e.lanes_, [&](auto& lane) {
        v.i64(lane.now);
        v.u64(lane.next_key);
        v.u64(lane.events);
        std::vector<Entry> sorted;  // saving: the heap in (time, key) order
        if constexpr (!V::kLoading) {
          sorted = lane.heap;
          std::sort(sorted.begin(), sorted.end());
        }
        std::optional<Entry> prev;
        v.seq(V::kLoading ? lane.heap : sorted, [&](auto& entry) {
          v.i64(entry.time);
          v.u64(entry.key);
          v.expect((entry.key & kLaneMask) < e.lanes_.size(),
                   "archived event key names no lane of this engine");
          v.expect(!prev || *prev < entry, "archived events not in (time, key) order");
          prev = entry;
          if constexpr (V::kLoading) {
            entry.slot = static_cast<std::uint32_t>(lane.slots.size());
            lane.slots.emplace_back();
          }
          auto& desc = lane.slots[entry.slot];
          v.u32(desc.kind);
          operands(desc, lane_idx);
          v.expect(e.runnable(desc), "archived event of a kind without a handler, or with "
                                     "operands its handler rejects");
        }, kArchivedEventBytes, [&lane](auto n) { lane.slots.reserve(n); });
        ++lane_idx;
      });
    });
  }
  // The walk of a queue whose descriptors archive as they are.
  template <class Self, class V>
  static void persist(Self& e, V& v) {
    persist(e, v, [&v](auto& desc, int) {
      v.u64(desc.a);
      v.u64(desc.b);
    });
  }
  void save(snapshot::ArchiveWriter& w) const {
    snapshot::SaveVisitor v(w);
    persist(*this, v);
  }
  // Replaces the entire engine state with the archived one; parse-then-
  // commit, so a failed load leaves the engine unchanged.
  void load(snapshot::ArchiveReader& r) {
    snapshot::LoadVisitor v(r);
    persist(*this, v);
    v.commit();
  }
  void mix_digest(snapshot::Digest& d) const {
    snapshot::DigestVisitor v(d);
    persist(*this, v);
  }

 private:
  // Heap entry: the sort key plus the index of the event's arena slot.
  // Sifting moves only these 24 plain bytes, never a descriptor.
  struct Entry {
    TimeNs time = 0;
    std::uint64_t key = 0;
    std::uint32_t slot = 0;
    bool operator<(const Entry& o) const { return time != o.time ? time < o.time : key < o.key; }
  };
  static_assert(sizeof(Entry) == 24);
  // The std heap algorithms keep the greatest entry at the front; ordered
  // by `later`, that is the earliest (time, key).
  static constexpr auto later = [](const Entry& a, const Entry& b) { return b < a; };

  // Each lane is an independent queue + clock. Slots freed by pops are
  // reused LIFO, so a warm lane schedules without allocating. Neither the
  // heap's array order nor the slot numbering is archived. Padded so
  // neighboring lanes' hot cursors don't share a cache line when pool
  // threads run them.
  struct alignas(64) Lane {
    std::vector<Entry> heap;                // binary min-heap over (time, key)
    std::vector<EventDesc> slots;           // one per pending event
    std::vector<std::uint32_t> free_slots;  // LIFO
    TimeNs now = 0;
    std::uint64_t next_key = 0;  // raw per-lane sequence; encoded on allocation
    std::uint64_t events = 0;
    std::uint64_t clamped = 0;
    std::uint64_t windows = 0;
    std::uint64_t stalls = 0;
  };

  std::uint64_t alloc_key_from(int origin) {
    const std::uint64_t seq = lanes_[static_cast<std::size_t>(origin)].next_key++;
    return (seq << kLaneBits) | static_cast<std::uint64_t>(origin);
  }

  // True if `ev`'s kind has a handler and its check accepts the operands.
  bool runnable(const EventDesc& ev) const;

  // Copies the descriptor into a free slot of the target lane (growing the
  // arena only when none is free) and sifts its entry into the lane's heap.
  void enqueue(int lane_idx, TimeNs t, std::uint64_t key, const EventDesc& desc) {
    assert(runnable(desc) && "scheduled an event of a kind without a handler");
    Lane& lane = lanes_[static_cast<std::size_t>(lane_idx)];
    if (t < lane.now) {
      // Never schedule into the past — but never do it silently either.
      // Outside parallel windows a past-time deadline is legal (an RTO
      // that expired while the flow was stalled, a barrier-deferred op
      // re-arming a tick); the clamp is counted so the obs layer can
      // surface it. Inside a window it is a causality violation (a local
      // schedule or a mailbox delivery landing behind the lane's cursor):
      // the event would be lost.
      ++lane.clamped;
      assert(!in_window_ && "past-time schedule inside a parallel window");
      t = lane.now;
    }
    auto slot = static_cast<std::uint32_t>(lane.slots.size());
    if (lane.free_slots.empty()) {
      lane.slots.push_back(desc);
    } else {
      slot = lane.free_slots.back();
      lane.free_slots.pop_back();
      lane.slots[slot] = desc;
    }
    lane.heap.push_back(Entry{t, key, slot});
    std::push_heap(lane.heap.begin(), lane.heap.end(), later);
  }

  // Removes the earliest entry and returns its descriptor, freeing its
  // slot. A copy, because the handler it goes to may schedule events and
  // grow the arena.
  static EventDesc pop_min(Lane& lane) {
    std::pop_heap(lane.heap.begin(), lane.heap.end(), later);
    const std::uint32_t slot = lane.heap.back().slot;
    lane.heap.pop_back();
    lane.free_slots.push_back(slot);
    return lane.slots[slot];
  }
  void dispatch(const EventDesc& ev) const { kinds_[ev.kind].run(ev); }

  // Driver steps (engine.cpp).
  std::uint64_t serial_phase(TimeNs t);
  std::uint64_t run_lane_until(Lane& lane, TimeNs we);
  void run_window(TimeNs we);

  std::vector<Lane> lanes_;
  int shards_ = 1;
  int workers_ = 1;
  TimeNs lookahead_ = 0;
  int cur_lane_ = 0;        // executing lane outside windows
  bool in_window_ = false;  // written by the driver, read by workers across barriers
  std::uint64_t windows_ = 0;
  std::uint64_t serial_phases_ = 0;
  struct Kind {
    Handler run;
    Check check;
  };
  std::vector<Kind> kinds_;  // indexed by EventDesc::kind
  std::function<void(int)> lane_drain_;
  std::function<void()> barrier_apply_;
  std::unique_ptr<ThreadPool> pool_;  // runs windows; workers_ - 1 threads
};

}  // namespace r2c2::sim
