// Shared packet-level network model: output-queued nodes, links with
// serialization + propagation delay, per-port FIFO queues with an optional
// strict-priority control class, finite buffers with drop-tail.
//
// Forwarding follows the R2C2 data plane (Section 3.5): the sender encodes
// the packet's path; intermediate nodes forward to the port indicated by
// the route index and increment it. Broadcast packets are forwarded by the
// broadcast FIB instead (handled by the transport's deliver callback
// re-injecting copies).
//
// Per-lane state follows the engine's shard plan (set_shard_plan; a
// 1-shard plan, whose one lane is the global lane, by default). Every port
// is owned by the lane of its source node: all queue and busy-flag
// mutation for a link happens on that lane (link-free completions are
// scheduled onto it explicitly). Deliveries that stay inside a lane
// schedule directly; deliveries that cross lanes inside a parallel window
// are posted to a per-(src,dst) mailbox stamped (arrival time, origin
// event key) and inserted into the destination lane's queue at the window
// barrier by the destination's owner — same (time, key) tie order as a
// direct push, so a run is bit-identical at any worker count.
#pragma once

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstdint>
#include <deque>
#include <functional>
#include <span>
#include <vector>

#include "common/rng.h"
#include "common/types.h"
#include "packet/packet.h"
#include "sim/engine.h"
#include "snapshot/persist.h"
#include "topology/partition.h"
#include "topology/topology.h"

namespace r2c2::sim {

// In-memory packet. `wire_bytes` is what occupies links and buffers; the
// header fields mirror the Section 4.2 formats without byte serialization
// (the packet codec is exercised by the emulator and its tests).
struct SimPacket {
  PacketType type = PacketType::kData;
  FlowId flow = 0;
  NodeId src = 0;
  NodeId dst = 0;           // data: receiver. broadcast: unused
  std::uint32_t seq = 0;    // data: payload byte offset; ack: cumulative ack
  std::uint32_t payload = 0;  // payload bytes carried
  std::uint32_t wire_bytes = 0;
  // Source route (data/ack packets).
  RouteCode route;
  std::uint8_t ridx = 0;
  // Broadcast routing state (control packets).
  std::uint8_t tree = 0;
  NodeId bcast_src = 0;
  std::uint64_t bcast_id = 0;  // which broadcast event this copy belongs to
  TimeNs sent_at = 0;
  // Reliability-extension ACK payload (type kAck): cumulative byte offset
  // plus up to two SACK ranges (begin/end pairs; 0/0 = unused).
  std::uint64_t ack_cum = 0;
  std::uint64_t sack[4] = {0, 0, 0, 0};

  // Snapshot field walk (src/snapshot/persist.h), shared by the port
  // queues and the events that own a parked packet.
  template <class Self, class V>
  static void persist(Self& s, V& v) {
    v.enum8(s.type, PacketType::kKeepalive);
    v.u32(s.flow);
    v.u16(s.src);
    v.u16(s.dst);
    v.u32(s.seq);
    v.u32(s.payload);
    v.u32(s.wire_bytes);
    RouteCode::persist(s.route, v);
    v.u8(s.ridx);
    v.u8(s.tree);
    v.u16(s.bcast_src);
    v.u64(s.bcast_id);
    v.i64(s.sent_at);
    v.u64(s.ack_cum);
    for (auto& x : s.sack) v.u64(x);
  }
};

// Gray (partial) degradation of one directed link. A degraded link stays
// *up* — traffic still flows — but every packet transmitted on it is
// subject to extra loss, extra corruption, added latency/jitter, and a
// square-wave flap oscillator that blackholes the direction for
// `flap_down` out of every `flap_period` nanoseconds (anchored at
// `flap_anchor`, the time the degradation was applied). Degradation is per
// direction: asymmetric faults set it on one directed link only.
struct LinkDegrade {
  double loss_prob = 0.0;     // per-packet silent loss on the wire
  double corrupt_prob = 0.0;  // per-packet checksum corruption (additive
                              // with NetworkConfig::corruption_rate)
  TimeNs added_latency = 0;   // fixed extra propagation delay
  TimeNs jitter = 0;          // extra delay uniform in [0, jitter)
  TimeNs flap_period = 0;     // 0 = no flapping
  TimeNs flap_down = 0;       // dark span at the start of each period
  TimeNs flap_anchor = 0;     // set by Network when the degrade is applied

  bool active() const {
    return loss_prob > 0.0 || corrupt_prob > 0.0 || added_latency > 0 || jitter > 0 ||
           (flap_period > 0 && flap_down > 0);
  }
};

struct NetworkConfig {
  // Per-port buffer for the data class, in bytes; 0 = unbounded. R2C2 runs
  // measure occupancy with effectively unbounded buffers (queues stay tiny);
  // TCP runs use finite drop-tail buffers.
  std::uint64_t data_buffer_bytes = 0;
  // Failure injection: probability that a transmitted packet is corrupted
  // in flight and discarded at the receiving hop (checksum detection,
  // Section 3.2). Exercises the reliability extension (Section 6).
  double corruption_rate = 0.0;
};

// Registers the handlers of kEvLinkFree and kEvDeliver on its engine, so
// one engine carries one Network.
class Network {
 public:
  // `deliver` is invoked when a packet reaches the head of `to`'s pipeline
  // (either its destination or an intermediate hop for broadcast fan-out is
  // decided by the transport). `dropped` is invoked on buffer overflow.
  using DeliverFn = std::function<void(NodeId at, SimPacket&& pkt)>;
  using DropFn = std::function<void(NodeId at, const SimPacket& pkt)>;

  Network(Engine& engine, const Topology& topo, NetworkConfig config);

  void set_deliver(DeliverFn fn) { deliver_ = std::move(fn); }
  void set_drop(DropFn fn) { dropped_ = std::move(fn); }
  // Invoked when the corruption model discards a packet (after the class
  // counters are bumped and before any drop-notice recovery runs). Purely
  // observational — used by the transports' flight recorders.
  void set_corrupt(DropFn fn) { corrupted_fn_ = std::move(fn); }

  // Adopts the engine's shard partition (the constructor adopts a 1-shard
  // plan). Must be called before any traffic, with the plan the engine was
  // configured with: the parked-packet stores, corruption RNG streams and
  // byte counters are one per engine lane, the mailboxes one per pair of
  // shard lanes.
  void set_shard_plan(const ShardPlan& plan);

  const Topology& topology() const { return topo_; }
  Engine& engine() { return engine_; }
  const NetworkConfig& config() const { return config_; }

  // Enqueues `pkt` on the directed link `link`. Data packets overflowing
  // the buffer are dropped (DropFn). Control packets (anything but kData
  // and kAck) take strict priority over data at every port, so flow events
  // propagate with minimal queuing, and are never dropped here — their
  // queue is unbounded, mirroring reserved control buffers.
  void send_on_link(LinkId link, SimPacket&& pkt);

  // Routes a data/ack packet out of `at` using its source route; delivers
  // locally if the route is exhausted.
  void forward(NodeId at, SimPacket&& pkt);

  // Inserts every packet mailed to lane `dst` during the closing window
  // into its queue, in fixed source-lane order. Called by the engine's
  // lane-drain hook on the thread that owns `dst`.
  void drain_mailbox(int dst);

  // --- Runtime fault injection (Section 3.2) ---
  // Marks one directed link up or down. A down link blackholes: everything
  // queued on it is flushed and every later send is silently lost (no drop
  // callback — the drop-notice recovery cannot run over a dead cable;
  // keepalive detection plus rebroadcast recover instead). Packets already
  // propagating still arrive: a cable cut loses at most one propagation
  // delay of traffic.
  void set_link_up(LinkId link, bool up);
  bool link_up(LinkId link) const { return ports_[link].up; }

  // Gray degradation of one *directed* link (see LinkDegrade). The flap
  // anchor is stamped with the current engine time. Like set_link_up, only
  // called from fault events (serial engine phases), so the plain fields
  // are never written concurrently with a parallel window.
  void set_link_degrade(LinkId link, const LinkDegrade& degrade);
  void clear_link_degrade(LinkId link);
  const LinkDegrade& link_degrade(LinkId link) const { return degrade_[link]; }
  // Directed links currently carrying an active degradation.
  int degraded_links() const { return degraded_links_; }

  // --- Introspection for metrics ---
  std::uint64_t queue_bytes(LinkId link) const { return ports_[link].queued_bytes; }
  std::uint64_t max_queue_bytes(LinkId link) const { return ports_[link].max_queued_bytes; }
  // Wire bytes sent, summed over the per-lane counters. Read outside
  // parallel windows only.
  std::uint64_t total_data_bytes_sent() const {
    std::uint64_t n = 0;
    for (const LaneBytes& b : lane_bytes_) n += b.data;
    return n;
  }
  std::uint64_t total_control_bytes_sent() const {
    std::uint64_t n = 0;
    for (const LaneBytes& b : lane_bytes_) n += b.control;
    return n;
  }
  std::uint64_t drops() const { return drops_.load(std::memory_order_relaxed); }
  // Corruption accounting, split by class: control packets (broadcasts,
  // keepalives, drop notices) vs data/ack packets.
  std::uint64_t corrupted_data() const { return corrupted_data_.load(std::memory_order_relaxed); }
  std::uint64_t corrupted_control() const {
    return corrupted_control_.load(std::memory_order_relaxed);
  }
  // Packets lost to a down link (flushed from its queue or sent into it).
  std::uint64_t failed_link_drops() const {
    return failed_link_drops_.load(std::memory_order_relaxed);
  }
  // Packets lost to gray degradation (loss draws and flap dark windows).
  std::uint64_t gray_drops() const { return gray_drops_.load(std::memory_order_relaxed); }
  // Max occupancy per port, for the queue-occupancy CDFs (Figs. 7b, 14).
  std::vector<std::uint64_t> max_queue_snapshot() const;

  // --- Congestion signal (adaptive routing) ---
  // Folds each port's peak queue depth since the previous sample into an
  // EWMA-smoothed ECN-style mark per directed link. A port whose peak
  // stayed below `threshold_bytes` contributes a mark of exactly 0; above
  // it the mark grades with the overshoot (peak / threshold), so heavier
  // congestion biases spraying away harder. The EWMA snaps to exact 0.0
  // below a tiny floor, so links that drain stop contributing bias and a
  // run that never congests keeps an all-zero signal (bit-identical RNG
  // draws to the congestion-blind data plane). Must be called from a
  // serial engine phase (the simulator's congestion tick lives on the
  // global lane): it reads port state owned by every lane, which is only
  // race-free with the engine's workers parked — that is also what makes the
  // signal identical at any worker count.
  void sample_congestion(double alpha, std::uint64_t threshold_bytes);
  // Current EWMA mark per directed (substrate) link. Zero everywhere until
  // sample_congestion observes a peak above threshold.
  std::span<const double> congestion() const { return congestion_; }

  // Mailbox traffic stats (obs gauges). Only shard lanes of a sharded
  // engine post mailbox traffic; every other lane reads 0.
  std::uint64_t mailbox_posted(int src_lane) const {
    const auto i = static_cast<std::size_t>(src_lane);
    return i < mail_posted_.size() ? mail_posted_[i] : 0;
  }
  std::uint64_t mailbox_peak_depth(int dst_lane) const {
    const auto i = static_cast<std::size_t>(dst_lane);
    return i < mail_peak_.size() ? mail_peak_[i] : 0;
  }

  // --- Snapshot support (src/snapshot/) ---
  // Packets owned by pending engine events live in a slot store, and the
  // events carry the slot as an operand. There is one store per engine
  // lane, and a lane takes packets only from its own store; slot ids carry
  // the store index in their top bits. Slot ids are memory layout, not
  // state: each event archives its packet in place of its slot
  // (parked_walk).
  std::uint64_t park(SimPacket&& pkt);
  SimPacket take_parked(std::uint64_t slot);
  // Packets parked, in all stores.
  std::size_t parked_packets() const {
    std::size_t n = 0;
    for (const ParkStore& store : parks_) n += store.slots.size() - store.free.size();
    return n;
  }

  // The walk of a parked packet, called with the slot of each pending
  // event that owns one and the event's engine lane: the packet itself is
  // archived. A load parks it in a fresh store of that lane, staged to
  // commit with everything else, and points the slot at it.
  template <class Self, class V>
  static auto parked_walk(Self& n, V& v) {
    if constexpr (V::kLoading) {
      auto& stores = v.stage(n.parks_, std::vector<ParkStore>(n.parks_.size()));
      return [&v, &stores](std::uint64_t& slot, int lane) {
        SimPacket pkt;
        SimPacket::persist(pkt, v);
        slot = park_in(stores, lane, std::move(pkt));
      };
    } else {
      return [&v, &n](std::uint64_t slot, int) {
        SimPacket::persist(n.parks_[slot_store(slot)].slots[slot_index(slot)], v);
      };
    }
  }

  // Snapshot field walk (src/snapshot/persist.h): ports (queued packets of
  // both classes), the corruption RNG stream(s), traffic and drop
  // counters, and the gray-degradation and congestion tables (sparse: links
  // at their default are not archived). The engine's event queue, and with
  // it every parked packet, is archived separately by the owning transport.
  // Saves only happen at run_until boundaries, where every window mailbox
  // has drained.
  template <class Self, class V>
  static void persist(Self& n, V& v) {
    assert(std::all_of(n.mail_.begin(), n.mail_.end(),
                       [](const auto& box) { return box.empty(); }));
    const auto active = [](const LinkDegrade& g) { return g.active(); };
    v.section("network", [&] {
      v.fixed(n.ports_, [&v](auto& p) {
        v.flag(p.up);
        v.flag(p.busy);
        v.u64(p.queued_bytes);
        v.u64(p.max_queued_bytes);
        v.u64(p.epoch_max_queued);
        v.seq(p.ctrl_q, [&v](auto& pkt) { SimPacket::persist(pkt, v); });
        v.seq(p.data_q, [&v](auto& pkt) { SimPacket::persist(pkt, v); });
      });
      v.each(n.corruption_rngs_, [&v](auto& rng) { Rng::persist(rng, v); });
      v.u64(n, &Network::total_data_bytes_sent, &Network::restore_data_bytes);
      v.u64(n, &Network::total_control_bytes_sent, &Network::restore_control_bytes);
      v.u64(n.drops_);
      v.u64(n.corrupted_data_);
      v.u64(n.corrupted_control_);
      v.u64(n.failed_link_drops_);
      v.u64(n.gray_drops_);
      v.sparse(n.degrade_, active, [&v](auto& g) {
        v.f64(g.loss_prob);
        v.f64(g.corrupt_prob);
        v.i64(g.added_latency);
        v.i64(g.jitter);
        v.i64(g.flap_period);
        v.i64(g.flap_down);
        v.i64(g.flap_anchor);
      });
      v.sparse(n.congestion_, [](double mark) { return mark != 0.0; },
               [&v](auto& mark) { v.f64(mark); });
    });
    if constexpr (V::kLoading) {
      v.on_commit([&n, active] {
        n.degraded_links_ =
            static_cast<int>(std::count_if(n.degrade_.begin(), n.degrade_.end(), active));
      });
    }
  }

 private:
  struct Port {
    std::deque<SimPacket> data_q;
    std::deque<SimPacket> ctrl_q;
    std::uint64_t queued_bytes = 0;  // both classes
    std::uint64_t max_queued_bytes = 0;
    // Peak occupancy since the last congestion sample (reset per sample
    // window, unlike the run-lifetime max above). Mutated only by the
    // port-owning lane; read/reset only in serial phases.
    std::uint64_t epoch_max_queued = 0;
    bool busy = false;
    bool up = true;
  };

  // Parked packets owned by pending engine events, one store per engine
  // lane so window-parallel park/take never contend. The store that parks
  // a packet is the lane of the event that will take it back.
  struct ParkStore {
    std::vector<SimPacket> slots;
    std::vector<std::uint64_t> free;  // LIFO free list
  };

  // Wire bytes sent by one engine lane. Every packet is counted, so the
  // counters are per lane (and a cache line each) rather than shared atomics
  // that concurrent shard lanes would contend on.
  struct alignas(64) LaneBytes {
    std::uint64_t data = 0;
    std::uint64_t control = 0;
  };

  // A packet crossing a shard boundary inside a parallel window, queued
  // for insertion at the barrier. `key` is allocated from the origin
  // lane at post time, so (at, key) reproduces the serial tie order.
  struct MailEntry {
    TimeNs at = 0;
    std::uint64_t key = 0;
    NodeId to = 0;
    SimPacket pkt;
  };

  // Slot ids carry the store index above bit 48 (store sizes stay far
  // below 2^48 packets).
  static constexpr int kSlotLaneShift = 48;
  static std::uint64_t encode_slot(int store, std::uint64_t idx) {
    return (static_cast<std::uint64_t>(store) << kSlotLaneShift) | idx;
  }
  static int slot_store(std::uint64_t slot) { return static_cast<int>(slot >> kSlotLaneShift); }
  static std::uint64_t slot_index(std::uint64_t slot) {
    return slot & ((std::uint64_t{1} << kSlotLaneShift) - 1);
  }

  // Only the wire-byte totals are archived; a restored network carries
  // them on lane 0.
  void restore_data_bytes(std::uint64_t total) {
    for (LaneBytes& b : lane_bytes_) b.data = 0;
    lane_bytes_[0].data = total;
  }
  void restore_control_bytes(std::uint64_t total) {
    for (LaneBytes& b : lane_bytes_) b.control = 0;
    lane_bytes_[0].control = total;
  }

  static std::uint64_t park_in(std::vector<ParkStore>& stores, int store, SimPacket&& pkt);
  void schedule_delivery(NodeId to, TimeNs at, SimPacket&& pkt);
  void try_transmit(LinkId link);
  // Index of the executing lane's per-lane state.
  std::size_t exec_lane() const { return static_cast<std::size_t>(engine_.current_lane()); }
  // The bernoulli/jitter stream of the executing lane — concurrent lanes
  // never contend on one RNG.
  Rng& lane_rng() { return corruption_rngs_[exec_lane()]; }
  static bool is_control(const SimPacket& pkt) {
    return pkt.type != PacketType::kData && pkt.type != PacketType::kAck;
  }

  Engine& engine_;
  const Topology& topo_;
  NetworkConfig config_;
  std::vector<Port> ports_;  // one per directed link
  // EWMA congestion mark per directed link (see sample_congestion).
  // Written only in serial phases; read by the spray bias between samples.
  std::vector<double> congestion_;
  // Gray degradation, one entry per directed link; degraded_links_ counts
  // active entries so the clean-path transmit check is one compare.
  std::vector<LinkDegrade> degrade_;
  int degraded_links_ = 0;
  DeliverFn deliver_;
  DropFn dropped_;
  DropFn corrupted_fn_;
  int shards_ = 1;
  std::vector<std::int32_t> node_lane_;  // per node
  std::vector<std::int32_t> link_lane_;  // lane of link.from
  std::vector<ParkStore> parks_;         // per engine lane
  std::vector<Rng> corruption_rngs_;     // per engine lane
  std::vector<std::vector<MailEntry>> mail_;  // [src * shards + dst]; cleared per window
  std::vector<std::uint64_t> mail_posted_;    // per src shard lane
  std::vector<std::uint64_t> mail_peak_;      // per dst shard lane, max drained per window
  std::vector<LaneBytes> lane_bytes_;         // per engine lane
  // Loss counters are rare; they commute, so relaxed atomic adds from
  // concurrent shard lanes still read deterministically at every barrier.
  std::atomic<std::uint64_t> drops_{0};
  std::atomic<std::uint64_t> corrupted_data_{0};
  std::atomic<std::uint64_t> corrupted_control_{0};
  std::atomic<std::uint64_t> failed_link_drops_{0};
  std::atomic<std::uint64_t> gray_drops_{0};
};

}  // namespace r2c2::sim
