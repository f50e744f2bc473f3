#include "sim/network.h"

#include <array>
#include <cassert>
#include <span>
#include <string>
#include <utility>

#include "sim/event_kind.h"

namespace r2c2::sim {

namespace {
// Deterministic per-lane seed derivation (splitmix-style odd multiplier);
// lane streams must differ from each other and from the serial stream.
std::uint64_t lane_seed(std::uint64_t base, int lane) {
  return base ^ (0x9e3779b97f4a7c15ULL * static_cast<std::uint64_t>(lane + 1));
}

// EWMA values below this snap to exact 0.0, so a drained link's mark stops
// biasing spray draws entirely instead of decaying forever (the zero-bias
// fast path is what keeps congestion-free runs bit-identical).
constexpr double kCongestionFloor = 1e-9;
}  // namespace

Network::Network(Engine& engine, const Topology& topo, NetworkConfig config)
    : engine_(engine),
      topo_(topo),
      config_(config),
      ports_(topo.num_links()),
      congestion_(topo.num_links(), 0.0),
      degrade_(topo.num_links()),
      lane_bytes_(1) {
  parks_.resize(1);
  corruption_rngs_.emplace_back(config.corruption_seed);
}

void Network::set_link_degrade(LinkId link, const LinkDegrade& degrade) {
  LinkDegrade& g = degrade_[link];
  const bool was_active = g.active();
  g = degrade;
  g.flap_anchor = engine_.now();
  if (g.active() && !was_active) ++degraded_links_;
  if (!g.active() && was_active) --degraded_links_;
}

void Network::clear_link_degrade(LinkId link) {
  if (degrade_[link].active()) --degraded_links_;
  degrade_[link] = LinkDegrade{};
}

void Network::set_shard_plan(const ShardPlan& plan) {
  assert(parks_.size() == 1 && parks_[0].slots.empty() &&
         "set_shard_plan must precede all traffic");
  shards_ = plan.shards;
  if (shards_ <= 1) return;
  const int lanes = shards_ + 1;  // + global lane
  node_lane_ = plan.lane_of;
  link_lane_.resize(topo_.num_links());
  for (std::size_t l = 0; l < topo_.num_links(); ++l) {
    link_lane_[l] = node_lane_[topo_.link(static_cast<LinkId>(l)).from];
  }
  parks_.assign(static_cast<std::size_t>(lanes), ParkStore{});
  corruption_rngs_.clear();
  for (int i = 0; i < lanes; ++i) {
    corruption_rngs_.emplace_back(lane_seed(config_.corruption_seed, i));
  }
  mail_.assign(static_cast<std::size_t>(shards_) * static_cast<std::size_t>(shards_), {});
  mail_posted_.assign(static_cast<std::size_t>(shards_), 0);
  mail_peak_.assign(static_cast<std::size_t>(shards_), 0);
  lane_bytes_.assign(static_cast<std::size_t>(lanes), LaneBytes{});
}

void Network::set_link_up(LinkId link, bool up) {
  Port& port = ports_[link];
  if (port.up == up) return;
  port.up = up;
  if (!up) {
    failed_link_drops_.fetch_add(port.data_q.size() + port.ctrl_q.size(),
                                 std::memory_order_relaxed);
    port.data_q.clear();
    port.ctrl_q.clear();
    port.queued_bytes = 0;
    // A transmission in progress keeps the busy flag; its completion event
    // clears it and finds the queues empty.
  }
}

void Network::send_on_link(LinkId link, SimPacket&& pkt) {
  Port& port = ports_[link];
  if (!port.up) {
    failed_link_drops_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  const bool ctrl = is_control(pkt);
  if (!ctrl && config_.data_buffer_bytes > 0 &&
      port.queued_bytes + pkt.wire_bytes > config_.data_buffer_bytes) {
    drops_.fetch_add(1, std::memory_order_relaxed);
    if (dropped_) dropped_(topo_.link(link).from, pkt);
    return;
  }
  port.queued_bytes += pkt.wire_bytes;
  port.max_queued_bytes = std::max(port.max_queued_bytes, port.queued_bytes);
  port.epoch_max_queued = std::max(port.epoch_max_queued, port.queued_bytes);
  if (ctrl && config_.control_priority) {
    port.ctrl_q.push_back(std::move(pkt));
  } else {
    port.data_q.push_back(std::move(pkt));
  }
  if (!port.busy) try_transmit(link);
}

// Schedules the arrival of `pkt` at `to`. Same-lane (and serial-mode)
// arrivals push straight onto the destination lane; cross-lane arrivals
// inside a parallel window go through the mailbox and are inserted at the
// barrier with the key allocated here — identical (time, key) order
// either way.
void Network::schedule_delivery(NodeId to, TimeNs at, SimPacket&& pkt) {
  if (shards_ == 1) {
    const std::uint64_t slot = park_in(0, std::move(pkt));
    engine_.schedule_at(at, EventDesc{kEvDeliver, slot, to},
                        [this, to, slot] { deliver_(to, take_parked(slot)); });
    return;
  }
  const int dst_lane = node_lane_[to];
  const int cur = engine_.current_lane();
  if (engine_.in_window() && dst_lane != cur) {
    mail_[static_cast<std::size_t>(cur) * static_cast<std::size_t>(shards_) +
          static_cast<std::size_t>(dst_lane)]
        .push_back(MailEntry{at, engine_.alloc_key(), to, std::move(pkt)});
    ++mail_posted_[static_cast<std::size_t>(cur)];
    return;
  }
  // Park in the destination lane's store: the deliver event executes
  // there, and only a lane's owner touches its store inside windows.
  const std::uint64_t slot = park_in(dst_lane, std::move(pkt));
  engine_.schedule_on(dst_lane, at, EventDesc{kEvDeliver, slot, to},
                      [this, to, slot] { deliver_(to, take_parked(slot)); });
}

void Network::drain_mailbox(int dst) {
  std::uint64_t depth = 0;
  for (int src = 0; src < shards_; ++src) {
    auto& box = mail_[static_cast<std::size_t>(src) * static_cast<std::size_t>(shards_) +
                      static_cast<std::size_t>(dst)];
    depth += box.size();
    for (MailEntry& e : box) {
      const NodeId to = e.to;
      const std::uint64_t slot = park_in(dst, std::move(e.pkt));
      engine_.schedule_keyed(dst, e.at, e.key, EventDesc{kEvDeliver, slot, to},
                             [this, to, slot] { deliver_(to, take_parked(slot)); });
    }
    box.clear();  // keeps capacity: steady-state windows do not allocate
  }
  if (depth > mail_peak_[static_cast<std::size_t>(dst)]) {
    mail_peak_[static_cast<std::size_t>(dst)] = depth;
  }
}

void Network::try_transmit(LinkId link) {
  Port& port = ports_[link];
  assert(!port.busy);
  std::deque<SimPacket>* q = nullptr;
  if (!port.ctrl_q.empty()) {
    q = &port.ctrl_q;
  } else if (!port.data_q.empty()) {
    q = &port.data_q;
  } else {
    return;
  }
  SimPacket pkt = std::move(q->front());
  q->pop_front();
  port.queued_bytes -= pkt.wire_bytes;
  port.busy = true;

  const Link& l = topo_.link(link);
  const TimeNs tx = transmission_time_ns(pkt.wire_bytes, l.bandwidth);
  LaneBytes& sent = lane_bytes_[exec_lane()];
  (is_control(pkt) ? sent.control : sent.data) += pkt.wire_bytes;

  // The link frees after serialization; the packet arrives after
  // serialization + propagation (+ forwarding overhead at the next node).
  // The completion always runs on the lane that owns the port; inside a
  // window that is the current lane, from global context it hops lanes.
  const auto link_free = [this, link] {
    ports_[link].busy = false;
    try_transmit(link);
  };
  if (shards_ == 1) {
    engine_.schedule_in(tx, EventDesc{kEvLinkFree, link, 0}, link_free);
  } else {
    engine_.schedule_on(link_lane_[link], engine_.now() + tx, EventDesc{kEvLinkFree, link, 0},
                        link_free);
  }
  // Gray degradation: a flap oscillator's dark window or a loss draw loses
  // the packet on the wire — silently, like a dead cable, so the transport
  // has to *infer* it; degrade corruption folds into the checksum path
  // below, and added latency/jitter stretch the delivery time. Every draw
  // comes from the executing lane's stream in a fixed order, so sharded
  // runs stay bit-identical at any worker count.
  TimeNs gray_delay = 0;
  bool corrupt = false;
  if (degraded_links_ > 0) {
    const LinkDegrade& gray = degrade_[link];
    if (gray.active()) {
      if (gray.flap_period > 0 && gray.flap_down > 0 &&
          (engine_.now() - gray.flap_anchor) % gray.flap_period < gray.flap_down) {
        gray_drops_.fetch_add(1, std::memory_order_relaxed);
        return;
      }
      if (gray.loss_prob > 0.0 && lane_rng().bernoulli(gray.loss_prob)) {
        gray_drops_.fetch_add(1, std::memory_order_relaxed);
        return;
      }
      if (gray.corrupt_prob > 0.0) corrupt = lane_rng().bernoulli(gray.corrupt_prob);
      gray_delay = gray.added_latency;
      if (gray.jitter > 0) {
        gray_delay += static_cast<TimeNs>(
            lane_rng().uniform_int(static_cast<std::uint64_t>(gray.jitter)));
      }
    }
  }
  // Checksum corruption: a corrupted packet fails its checksum at the next
  // hop and is discarded. Corrupted control packets are reported through
  // the drop callback so the transport's Section 3.2 recovery (retransmit
  // the broadcast copy) runs; corrupted data is the reliability layer's
  // problem (Section 6).
  if (!corrupt && config_.corruption_rate > 0.0) {
    corrupt = lane_rng().bernoulli(config_.corruption_rate);
  }
  if (corrupt) {
    if (is_control(pkt)) {
      corrupted_control_.fetch_add(1, std::memory_order_relaxed);
      if (corrupted_fn_) corrupted_fn_(l.from, pkt);
      if (dropped_) dropped_(l.from, pkt);
    } else {
      corrupted_data_.fetch_add(1, std::memory_order_relaxed);
      if (corrupted_fn_) corrupted_fn_(l.from, pkt);
    }
    return;
  }
  schedule_delivery(l.to, engine_.now() + tx + l.latency + config_.forwarding_delay + gray_delay,
                    std::move(pkt));
}

void Network::forward(NodeId at, SimPacket&& pkt) {
  if (pkt.ridx >= pkt.route.length()) {
    deliver_(at, std::move(pkt));
    return;
  }
  const int port = pkt.route.port_at(pkt.ridx);
  ++pkt.ridx;
  const LinkId link = topo_.out_link_by_port(at, port);
  send_on_link(link, std::move(pkt));
}

void Network::sample_congestion(double alpha, std::uint64_t threshold_bytes) {
  assert(!engine_.in_window() && "congestion sampling is a serial-phase operation");
  for (std::size_t l = 0; l < ports_.size(); ++l) {
    Port& p = ports_[l];
    const std::uint64_t peak = std::max(p.epoch_max_queued, p.queued_bytes);
    p.epoch_max_queued = p.queued_bytes;  // next window's peak starts at current depth
    double mark = 0.0;
    if (threshold_bytes > 0 && peak >= threshold_bytes) {
      mark = static_cast<double>(peak) / static_cast<double>(threshold_bytes);
    }
    double& c = congestion_[l];
    c = (1.0 - alpha) * c + alpha * mark;
    if (c < kCongestionFloor) c = 0.0;
  }
}

std::vector<std::uint64_t> Network::max_queue_snapshot() const {
  std::vector<std::uint64_t> snapshot;
  snapshot.reserve(ports_.size());
  for (const Port& p : ports_) snapshot.push_back(p.max_queued_bytes);
  return snapshot;
}

// --- Snapshot support ---

std::uint64_t Network::park_in(int store_idx, SimPacket&& pkt) {
  ParkStore& store = parks_[static_cast<std::size_t>(store_idx)];
  if (!store.free.empty()) {
    const std::uint64_t idx = store.free.back();
    store.free.pop_back();
    store.slots[idx] = std::move(pkt);
    store.used[idx] = 1;
    return encode_slot(store_idx, idx);
  }
  store.slots.push_back(std::move(pkt));
  store.used.push_back(1);
  return encode_slot(store_idx, store.slots.size() - 1);
}

std::uint64_t Network::park(SimPacket&& pkt) {
  return park_in(static_cast<int>(exec_lane()), std::move(pkt));
}

SimPacket Network::take_parked(std::uint64_t slot) {
  ParkStore& store = parks_[static_cast<std::size_t>(slot_store(slot))];
  const std::uint64_t idx = slot_index(slot);
  assert(idx < store.slots.size() && store.used[idx]);
  store.used[idx] = 0;
  store.free.push_back(idx);
  return std::move(store.slots[idx]);
}

Engine::Action Network::rebuild_event(const EventDesc& desc) {
  switch (desc.kind) {
    case kEvLinkFree: {
      if (desc.a >= ports_.size()) throw snapshot::SnapshotError("link-free event out of range");
      const LinkId link = static_cast<LinkId>(desc.a);
      return [this, link] {
        ports_[link].busy = false;
        try_transmit(link);
      };
    }
    case kEvDeliver: {
      const int store_idx = slot_store(desc.a);
      const std::uint64_t idx = slot_index(desc.a);
      if (store_idx >= static_cast<int>(parks_.size()) ||
          idx >= parks_[static_cast<std::size_t>(store_idx)].slots.size() ||
          !parks_[static_cast<std::size_t>(store_idx)].used[idx]) {
        throw snapshot::SnapshotError("deliver event references an empty packet slot");
      }
      const std::uint64_t slot = desc.a;
      const NodeId to = static_cast<NodeId>(desc.b);
      return [this, to, slot] { deliver_(to, take_parked(slot)); };
    }
    default:
      throw snapshot::SnapshotError("network cannot rebuild event kind " +
                                    std::to_string(desc.kind));
  }
}

void Network::write_packet(snapshot::ArchiveWriter& w, const SimPacket& pkt) {
  w.u8(static_cast<std::uint8_t>(pkt.type));
  w.u32(pkt.flow);
  w.u16(pkt.src);
  w.u16(pkt.dst);
  w.u32(pkt.seq);
  w.u32(pkt.payload);
  w.u32(pkt.wire_bytes);
  w.bytes(std::span<const std::uint8_t>(pkt.route.bits()));
  w.u8(static_cast<std::uint8_t>(pkt.route.length()));
  w.u8(pkt.ridx);
  w.u8(pkt.tree);
  w.u16(pkt.bcast_src);
  w.u64(pkt.bcast_id);
  w.i64(pkt.sent_at);
  w.u64(pkt.ack_cum);
  for (std::uint64_t s : pkt.sack) w.u64(s);
}

SimPacket Network::read_packet(snapshot::ArchiveReader& r) {
  SimPacket pkt;
  pkt.type = static_cast<PacketType>(r.u8());
  pkt.flow = r.u32();
  pkt.src = r.u16();
  pkt.dst = r.u16();
  pkt.seq = r.u32();
  pkt.payload = r.u32();
  pkt.wire_bytes = r.u32();
  std::array<std::uint8_t, 16> bits{};
  r.bytes(std::span<std::uint8_t>(bits));
  const int rlen = r.u8();
  pkt.route = RouteCode::from_bits(bits, rlen);
  pkt.ridx = r.u8();
  pkt.tree = r.u8();
  pkt.bcast_src = r.u16();
  pkt.bcast_id = r.u64();
  pkt.sent_at = r.i64();
  pkt.ack_cum = r.u64();
  for (std::uint64_t& s : pkt.sack) s = r.u64();
  return pkt;
}

void Network::mix_packet(snapshot::Digest& d, const SimPacket& pkt) {
  d.mix(static_cast<std::uint64_t>(pkt.type));
  d.mix(pkt.flow);
  d.mix(pkt.src);
  d.mix(pkt.dst);
  d.mix(pkt.seq);
  d.mix(pkt.payload);
  d.mix(pkt.wire_bytes);
  for (std::uint8_t b : pkt.route.bits()) d.mix(b);
  d.mix(static_cast<std::uint64_t>(pkt.route.length()));
  d.mix(pkt.ridx);
  d.mix(pkt.tree);
  d.mix(pkt.bcast_src);
  d.mix(pkt.bcast_id);
  d.mix_i64(pkt.sent_at);
  d.mix(pkt.ack_cum);
  for (std::uint64_t s : pkt.sack) d.mix(s);
}

void Network::save(snapshot::ArchiveWriter& w) const {
  w.begin_section("network");
  w.u64(ports_.size());
  for (const Port& p : ports_) {
    w.u8(p.up ? 1 : 0);
    w.u8(p.busy ? 1 : 0);
    w.u64(p.queued_bytes);
    w.u64(p.max_queued_bytes);
    w.u64(p.epoch_max_queued);
    w.u64(p.ctrl_q.size());
    for (const SimPacket& pkt : p.ctrl_q) write_packet(w, pkt);
    w.u64(p.data_q.size());
    for (const SimPacket& pkt : p.data_q) write_packet(w, pkt);
  }
  // Per-lane park stores and RNG streams; with one shard this is one of
  // each — byte-identical to the historical format. Saves only happen at
  // run_until boundaries, where every window mailbox has been drained.
  for (const auto& box : mail_) {
    assert(box.empty() && "snapshot inside an undrained window");
    (void)box;
  }
  for (const ParkStore& store : parks_) {
    w.u64(store.slots.size());
    for (std::size_t i = 0; i < store.slots.size(); ++i) {
      w.u8(store.used[i]);
      if (store.used[i]) write_packet(w, store.slots[i]);
    }
    w.u64(store.free.size());
    for (std::uint64_t slot : store.free) w.u64(slot);
  }
  for (const Rng& rng : corruption_rngs_) {
    for (std::uint64_t word : rng.state()) w.u64(word);
  }
  w.u64(total_data_bytes_sent());
  w.u64(total_control_bytes_sent());
  w.u64(drops_.load(std::memory_order_relaxed));
  w.u64(corrupted_data_.load(std::memory_order_relaxed));
  w.u64(corrupted_control_.load(std::memory_order_relaxed));
  w.u64(failed_link_drops_.load(std::memory_order_relaxed));
  w.u64(gray_drops_.load(std::memory_order_relaxed));
  // Gray degradation table, sparse: only directed links with an active
  // entry are archived.
  std::uint64_t active = 0;
  for (const LinkDegrade& g : degrade_) {
    if (g.active()) ++active;
  }
  w.u64(active);
  for (std::size_t i = 0; i < degrade_.size(); ++i) {
    const LinkDegrade& g = degrade_[i];
    if (!g.active()) continue;
    w.u32(static_cast<std::uint32_t>(i));
    w.f64(g.loss_prob);
    w.f64(g.corrupt_prob);
    w.i64(g.added_latency);
    w.i64(g.jitter);
    w.i64(g.flap_period);
    w.i64(g.flap_down);
    w.i64(g.flap_anchor);
  }
  // Congestion EWMA, sparse: only links with a nonzero mark (the floor
  // snaps drained links back to exact 0, so a calm network archives none).
  std::uint64_t marked = 0;
  for (double c : congestion_) {
    if (c != 0.0) ++marked;
  }
  w.u64(marked);
  for (std::size_t i = 0; i < congestion_.size(); ++i) {
    if (congestion_[i] == 0.0) continue;
    w.u32(static_cast<std::uint32_t>(i));
    w.f64(congestion_[i]);
  }
  w.end_section();
}

void Network::load(snapshot::ArchiveReader& r) {
  r.open_section("network");
  const std::uint64_t num_ports = r.u64();
  if (num_ports != ports_.size()) {
    throw snapshot::SnapshotError("snapshot topology mismatch: " + std::to_string(num_ports) +
                                  " links archived, " + std::to_string(ports_.size()) +
                                  " in this network");
  }
  // Parse-then-commit: build everything in locals, swap in only after the
  // section has been fully consumed without error.
  std::vector<Port> ports(num_ports);
  for (Port& p : ports) {
    p.up = r.u8() != 0;
    p.busy = r.u8() != 0;
    p.queued_bytes = r.u64();
    p.max_queued_bytes = r.u64();
    p.epoch_max_queued = r.u64();
    const std::uint64_t nctrl = r.u64();
    for (std::uint64_t i = 0; i < nctrl; ++i) p.ctrl_q.push_back(read_packet(r));
    const std::uint64_t ndata = r.u64();
    for (std::uint64_t i = 0; i < ndata; ++i) p.data_q.push_back(read_packet(r));
  }
  std::vector<ParkStore> parks(parks_.size());
  for (ParkStore& store : parks) {
    const std::uint64_t nslots = r.u64();
    store.slots.resize(nslots);
    store.used.assign(nslots, 0);
    for (std::uint64_t i = 0; i < nslots; ++i) {
      store.used[i] = r.u8();
      if (store.used[i]) store.slots[i] = read_packet(r);
    }
    const std::uint64_t nfree = r.u64();
    store.free.reserve(nfree);
    for (std::uint64_t i = 0; i < nfree; ++i) {
      const std::uint64_t slot = r.u64();
      if (slot >= nslots || store.used[slot]) {
        throw snapshot::SnapshotError("corrupt parked-packet free list");
      }
      store.free.push_back(slot);
    }
  }
  std::vector<std::array<std::uint64_t, 4>> rng_states(corruption_rngs_.size());
  for (auto& state : rng_states) {
    for (std::uint64_t& word : state) word = r.u64();
  }
  const std::uint64_t data_bytes = r.u64();
  const std::uint64_t control_bytes = r.u64();
  const std::uint64_t drops = r.u64();
  const std::uint64_t corrupted_data = r.u64();
  const std::uint64_t corrupted_control = r.u64();
  const std::uint64_t failed_link_drops = r.u64();
  const std::uint64_t gray_drops = r.u64();
  const std::uint64_t num_gray = r.u64();
  std::vector<std::pair<std::uint32_t, LinkDegrade>> grays;
  grays.reserve(num_gray);
  for (std::uint64_t i = 0; i < num_gray; ++i) {
    const std::uint32_t link = r.u32();
    if (link >= num_ports) {
      throw snapshot::SnapshotError("degrade table references link out of range");
    }
    LinkDegrade g;
    g.loss_prob = r.f64();
    g.corrupt_prob = r.f64();
    g.added_latency = r.i64();
    g.jitter = r.i64();
    g.flap_period = r.i64();
    g.flap_down = r.i64();
    g.flap_anchor = r.i64();
    grays.emplace_back(link, g);
  }
  const std::uint64_t marked = r.u64();
  std::vector<std::pair<std::uint32_t, double>> marks;
  marks.reserve(marked);
  for (std::uint64_t i = 0; i < marked; ++i) {
    const std::uint32_t link = r.u32();
    if (link >= num_ports) {
      throw snapshot::SnapshotError("congestion table references link out of range");
    }
    marks.emplace_back(link, r.f64());
  }
  r.close_section();

  ports_ = std::move(ports);
  parks_ = std::move(parks);
  congestion_.assign(ports_.size(), 0.0);
  for (const auto& [link, mark] : marks) congestion_[link] = mark;
  degrade_.assign(ports_.size(), LinkDegrade{});
  degraded_links_ = 0;
  for (const auto& [link, g] : grays) {
    degrade_[link] = g;
    if (g.active()) ++degraded_links_;
  }
  for (std::size_t i = 0; i < corruption_rngs_.size(); ++i) {
    corruption_rngs_[i].set_state(rng_states[i]);
  }
  // Only the totals are archived; lane 0 carries them from here on.
  lane_bytes_.assign(lane_bytes_.size(), LaneBytes{});
  lane_bytes_[0] = LaneBytes{data_bytes, control_bytes};
  drops_.store(drops, std::memory_order_relaxed);
  corrupted_data_.store(corrupted_data, std::memory_order_relaxed);
  corrupted_control_.store(corrupted_control, std::memory_order_relaxed);
  failed_link_drops_.store(failed_link_drops, std::memory_order_relaxed);
  gray_drops_.store(gray_drops, std::memory_order_relaxed);
}

void Network::mix_digest(snapshot::Digest& d) const {
  d.mix(ports_.size());
  for (const Port& p : ports_) {
    d.mix(p.up ? 1 : 0);
    d.mix(p.busy ? 1 : 0);
    d.mix(p.queued_bytes);
    d.mix(p.epoch_max_queued);
    d.mix(p.ctrl_q.size());
    for (const SimPacket& pkt : p.ctrl_q) mix_packet(d, pkt);
    d.mix(p.data_q.size());
    for (const SimPacket& pkt : p.data_q) mix_packet(d, pkt);
  }
  for (const ParkStore& store : parks_) {
    d.mix(store.slots.size());
    for (std::size_t i = 0; i < store.slots.size(); ++i) {
      d.mix(store.used[i]);
      if (store.used[i]) mix_packet(d, store.slots[i]);
    }
  }
  for (const Rng& rng : corruption_rngs_) {
    for (std::uint64_t word : rng.state()) d.mix(word);
  }
  d.mix(total_data_bytes_sent());
  d.mix(total_control_bytes_sent());
  d.mix(drops_.load(std::memory_order_relaxed));
  d.mix(corrupted_data_.load(std::memory_order_relaxed));
  d.mix(corrupted_control_.load(std::memory_order_relaxed));
  d.mix(failed_link_drops_.load(std::memory_order_relaxed));
  d.mix(gray_drops_.load(std::memory_order_relaxed));
  for (std::size_t i = 0; i < degrade_.size(); ++i) {
    const LinkDegrade& g = degrade_[i];
    if (!g.active()) continue;
    d.mix(i);
    d.mix_f64(g.loss_prob);
    d.mix_f64(g.corrupt_prob);
    d.mix_i64(g.added_latency);
    d.mix_i64(g.jitter);
    d.mix_i64(g.flap_period);
    d.mix_i64(g.flap_down);
    d.mix_i64(g.flap_anchor);
  }
  for (std::size_t i = 0; i < congestion_.size(); ++i) {
    if (congestion_[i] == 0.0) continue;
    d.mix(i);
    d.mix_f64(congestion_[i]);
  }
}

}  // namespace r2c2::sim
