#include "sim/network.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <span>
#include <utility>

#include "sim/event_kind.h"

namespace r2c2::sim {

namespace {
// Base seed of the data-plane corruption streams (NetworkConfig::
// corruption_rate); a 1-lane network draws from it directly.
constexpr std::uint64_t kCorruptionSeed = 99;

// Deterministic per-lane seed derivation (splitmix-style odd multiplier);
// lane streams must differ from each other and from the 1-shard stream.
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
      degrade_(topo.num_links()) {
  set_shard_plan(ShardPlan{.shards = 1, .lane_of = std::vector<std::int32_t>(topo.num_nodes())});
  engine_.handle(
      kEvLinkFree,
      [this](const EventDesc& ev) {
        const auto link = static_cast<LinkId>(ev.a);
        ports_[link].busy = false;
        try_transmit(link);
      },
      [this](const EventDesc& ev) { return ev.a < ports_.size(); });
  engine_.handle(
      kEvDeliver,
      [this](const EventDesc& ev) { deliver_(static_cast<NodeId>(ev.b), take_parked(ev.a)); },
      [this](const EventDesc& ev) { return ev.b < topo_.num_nodes(); });
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
  assert(std::all_of(parks_.begin(), parks_.end(),
                     [](const ParkStore& store) { return store.slots.empty(); }) &&
         "set_shard_plan must precede all traffic");
  assert(plan.shards == engine_.shards() && "the network follows the engine's shard plan");
  shards_ = plan.shards;
  const int lanes = engine_.num_lanes();
  node_lane_ = plan.lane_of;
  link_lane_.resize(topo_.num_links());
  for (std::size_t l = 0; l < topo_.num_links(); ++l) {
    link_lane_[l] = node_lane_[topo_.link(static_cast<LinkId>(l)).from];
  }
  parks_.assign(static_cast<std::size_t>(lanes), ParkStore{});
  // A single lane keeps the base seed, so 1-shard trajectories stay as they
  // were before per-lane streams existed.
  corruption_rngs_.clear();
  for (int i = 0; i < lanes; ++i) {
    corruption_rngs_.emplace_back(lanes == 1 ? kCorruptionSeed : lane_seed(kCorruptionSeed, i));
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
  if (ctrl) {
    port.ctrl_q.push_back(std::move(pkt));
  } else {
    port.data_q.push_back(std::move(pkt));
  }
  if (!port.busy) try_transmit(link);
}

// Schedules the arrival of `pkt` at `to`. Same-lane arrivals, and any
// arrival outside a parallel window, push straight onto the destination
// lane; cross-lane arrivals inside a window go through the mailbox and are
// inserted at the barrier with the key allocated here — identical
// (time, key) order either way.
void Network::schedule_delivery(NodeId to, TimeNs at, SimPacket&& pkt) {
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
  const std::uint64_t slot = park_in(parks_, dst_lane, std::move(pkt));
  engine_.schedule_on(dst_lane, at, EventDesc{kEvDeliver, slot, to});
}

void Network::drain_mailbox(int dst) {
  std::uint64_t depth = 0;
  for (int src = 0; src < shards_; ++src) {
    auto& box = mail_[static_cast<std::size_t>(src) * static_cast<std::size_t>(shards_) +
                      static_cast<std::size_t>(dst)];
    depth += box.size();
    for (MailEntry& e : box) {
      const std::uint64_t slot = park_in(parks_, dst, std::move(e.pkt));
      engine_.schedule_keyed(dst, e.at, e.key, EventDesc{kEvDeliver, slot, e.to});
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
  engine_.schedule_on(link_lane_[link], engine_.now() + tx, EventDesc{kEvLinkFree, link, 0});
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
  schedule_delivery(l.to, engine_.now() + tx + l.latency + gray_delay, std::move(pkt));
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

std::uint64_t Network::park_in(std::vector<ParkStore>& stores, int store_idx, SimPacket&& pkt) {
  ParkStore& store = stores[static_cast<std::size_t>(store_idx)];
  if (!store.free.empty()) {
    const std::uint64_t idx = store.free.back();
    store.free.pop_back();
    store.slots[idx] = std::move(pkt);
    return encode_slot(store_idx, idx);
  }
  store.slots.push_back(std::move(pkt));
  return encode_slot(store_idx, store.slots.size() - 1);
}

std::uint64_t Network::park(SimPacket&& pkt) {
  return park_in(parks_, static_cast<int>(exec_lane()), std::move(pkt));
}

SimPacket Network::take_parked(std::uint64_t slot) {
  ParkStore& store = parks_[static_cast<std::size_t>(slot_store(slot))];
  const std::uint64_t idx = slot_index(slot);
  assert(idx < store.slots.size());
  store.free.push_back(idx);
  return std::move(store.slots[idx]);
}

}  // namespace r2c2::sim
