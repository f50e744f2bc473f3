#include "sim/pfq_sim.h"

#include <algorithm>
#include <cassert>

#include "sim/event_kind.h"

namespace r2c2::sim {

namespace {
constexpr std::uint32_t kMtuPayload = static_cast<std::uint32_t>(kMaxPayloadBytes);
// Seed of the one RNG stream behind every randomized path draw.
constexpr std::uint64_t kPfqSeed = 7;
}  // namespace

PfqSim::PfqSim(const Topology& topo, const Router& router, PfqSimConfig config)
    : topo_(topo), router_(router), config_(config), rng_(kPfqSeed),
      ports_(topo.num_links()), trace_(config.trace) {
  if (config_.metrics != nullptr) {
    c_started_ = &config_.metrics->counter("pfq.flows_started");
    c_finished_ = &config_.metrics->counter("pfq.flows_finished");
  }
  engine_.handle(kEvPfqStart, [this](const EventDesc& ev) { start_flow(arrivals_[ev.a]); });
  engine_.handle(kEvPfqLinkFree, [this](const EventDesc& ev) {
    const auto link = static_cast<LinkId>(ev.a);
    ports_[link].busy = false;
    try_transmit(link);
  });
  engine_.handle(kEvPfqArrive, [this](const EventDesc& ev) {
    const auto link = static_cast<LinkId>(ev.a);
    std::deque<SimPacket>& wire = ports_[link].in_flight;
    SimPacket pkt = std::move(wire.front());
    wire.pop_front();
    arrive(link, std::move(pkt));
  });
}

void PfqSim::add_flows(const std::vector<FlowArrival>& flows) {
  for (const FlowArrival& f : flows) {
    engine_.schedule_at(f.start, EventDesc{kEvPfqStart, arrivals_.size(), 0});
    arrivals_.push_back(f);
  }
}

RunMetrics PfqSim::run(TimeNs until) {
  engine_.run(until);
  RunMetrics m;
  m.flows = records_;
  m.max_queue_bytes.reserve(ports_.size());
  for (const Port& p : ports_) m.max_queue_bytes.push_back(p.max_queued_bytes);
  m.data_bytes_on_wire = data_bytes_;
  m.events = engine_.total_events();
  m.sim_end = engine_.now();
  return m;
}

void PfqSim::start_flow(const FlowArrival& arrival) {
  const FlowId id = static_cast<FlowId>(records_.size() + 1);
  FlowRecord rec;
  rec.id = id;
  rec.src = arrival.src;
  rec.dst = arrival.dst;
  rec.bytes = std::max<std::uint64_t>(arrival.bytes, 1);
  rec.arrival = engine_.now();
  records_.push_back(rec);
  if (c_started_ != nullptr) c_started_->add(1);
  obs::trace(trace_, engine_.now(), arrival.src, obs::EventType::kFlowStart,
             static_cast<std::uint64_t>(id), rec.bytes);

  SenderFlow s;
  s.src = arrival.src;
  s.dst = arrival.dst;
  s.total_bytes = rec.bytes;
  senders_.emplace(id, s);
  receivers_.emplace(id, ReceiverFlow{});
  try_inject(id);
}

bool PfqSim::eligible(NodeId next, const SimPacket& pkt) const {
  // The final destination always drains instantly; intermediate nodes admit
  // a flow's packet only within the per-flow quota (back-pressure).
  if (next == pkt.dst) return true;
  const auto it = occupancy_.find(nf_key(next, pkt.flow));
  const std::uint64_t occ = it == occupancy_.end() ? 0 : it->second;
  return occ + pkt.wire_bytes <= kPfqFlowQuotaBytes;
}

void PfqSim::try_inject(FlowId id) {
  auto it = senders_.find(id);
  if (it == senders_.end()) return;
  SenderFlow& s = it->second;
  while (s.sent_bytes < s.total_bytes) {
    const std::uint32_t payload = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(s.total_bytes - s.sent_bytes, kMtuPayload));
    const std::uint32_t wire = payload + static_cast<std::uint32_t>(DataHeader::kWireSize);
    // Source back-pressure: the sender's own node is subject to the quota.
    std::uint64_t& occ = occupancy_[nf_key(s.src, id)];
    if (occ + wire > kPfqFlowQuotaBytes) return;  // resumes on drain
    SimPacket pkt;
    pkt.type = PacketType::kData;
    pkt.flow = id;
    pkt.src = s.src;
    pkt.dst = s.dst;
    pkt.seq = static_cast<std::uint32_t>(s.sent_bytes);
    pkt.payload = payload;
    pkt.wire_bytes = wire;
    pkt.sent_at = engine_.now();
    pkt.route = encode_path(topo_, router_.pick_path(config_.route_alg, s.src, s.dst, rng_, id));
    s.sent_bytes += payload;
    occ += wire;
    enqueue(s.src, std::move(pkt));
  }
  senders_.erase(it);  // everything handed to the source node's queues
}

void PfqSim::enqueue(NodeId at, SimPacket&& pkt) {
  assert(pkt.ridx < pkt.route.length());
  const int port_no = pkt.route.port_at(pkt.ridx);
  ++pkt.ridx;
  const LinkId link = topo_.out_link_by_port(at, port_no);
  Port& port = ports_[link];
  auto [qit, fresh] = port.queues.try_emplace(pkt.flow);
  if (qit->second.empty()) port.ring.push_back(pkt.flow);
  port.queued_bytes += pkt.wire_bytes;
  port.max_queued_bytes = std::max(port.max_queued_bytes, port.queued_bytes);
  qit->second.push_back(std::move(pkt));
  if (!port.busy) try_transmit(link);
}

void PfqSim::try_transmit(LinkId link) {
  Port& port = ports_[link];
  if (port.busy) return;
  const NodeId next = topo_.link(link).to;
  // Round-robin: find the first flow (starting at rr_pos) whose head packet
  // the downstream node will admit.
  for (std::size_t scanned = 0; scanned < port.ring.size(); ++scanned) {
    const std::size_t pos = (port.rr_pos + scanned) % port.ring.size();
    const FlowId flow = port.ring[pos];
    auto qit = port.queues.find(flow);
    assert(qit != port.queues.end() && !qit->second.empty());
    SimPacket& head = qit->second.front();
    if (!eligible(next, head)) {
      // Park this port on (next, flow); it wakes when occupancy drops.
      waiters_[nf_key(next, flow)].push_back(link);
      continue;
    }
    // Transmit the head packet.
    SimPacket pkt = std::move(head);
    qit->second.pop_front();
    port.queued_bytes -= pkt.wire_bytes;
    if (qit->second.empty()) {
      port.queues.erase(qit);
      port.ring.erase(port.ring.begin() + static_cast<std::ptrdiff_t>(pos));
      port.rr_pos = port.ring.empty() ? 0 : pos % port.ring.size();
    } else {
      port.rr_pos = (pos + 1) % port.ring.size();
    }
    // Reserve downstream buffer immediately (zero-delay back-pressure):
    // in-flight bytes count against the next node's quota so that several
    // upstream ports cannot oversubscribe it.
    if (next != pkt.dst) occupancy_[nf_key(next, pkt.flow)] += pkt.wire_bytes;
    port.busy = true;
    const Link& l = topo_.link(link);
    const TimeNs tx = transmission_time_ns(pkt.wire_bytes, l.bandwidth);
    data_bytes_ += pkt.wire_bytes;
    engine_.schedule_in(tx, EventDesc{kEvPfqLinkFree, link, 0});
    engine_.schedule_in(tx + l.latency, EventDesc{kEvPfqArrive, link, 0});
    port.in_flight.push_back(std::move(pkt));
    return;
  }
  // Nothing eligible: the port idles until an enqueue or an occupancy drop.
}

void PfqSim::arrive(LinkId link, SimPacket&& pkt) {
  const NodeId from = topo_.link(link).from;
  const NodeId at = topo_.link(link).to;
  // The packet fully left `from`: release its occupancy there and wake any
  // upstream ports (and the sender, if it lives on `from`).
  auto oit = occupancy_.find(nf_key(from, pkt.flow));
  if (oit != occupancy_.end()) {
    oit->second -= std::min<std::uint64_t>(oit->second, pkt.wire_bytes);
    if (oit->second == 0) occupancy_.erase(oit);
  }
  on_occupancy_drop(from, pkt.flow);

  if (at == pkt.dst) {
    // Delivered (its reserved occupancy was never charged for the dst).
    auto rit = receivers_.find(pkt.flow);
    if (rit == receivers_.end()) return;
    ReceiverFlow& r = rit->second;
    r.received_bytes += pkt.payload;
    r.reorder.on_packet(pkt.seq / kMtuPayload);
    FlowRecord& rec = records_[pkt.flow - 1];
    if (r.received_bytes >= rec.bytes) {
      rec.completed = engine_.now();
      rec.max_reorder_pkts = r.reorder.max_depth();
      receivers_.erase(rit);
      if (c_finished_ != nullptr) c_finished_->add(1);
      obs::trace(trace_, engine_.now(), at, obs::EventType::kFlowFinish,
                 static_cast<std::uint64_t>(pkt.flow),
                 static_cast<std::uint64_t>(rec.fct()));
    }
    return;
  }
  enqueue(at, std::move(pkt));
}

void PfqSim::on_occupancy_drop(NodeId node, FlowId flow) {
  const std::uint64_t key = nf_key(node, flow);
  // If the flow's sender sits on this node, it may inject again.
  if (auto sit = senders_.find(flow); sit != senders_.end() && sit->second.src == node) {
    try_inject(flow);
  }
  // Wake any ports blocked on this (node, flow).
  auto wit = waiters_.find(key);
  if (wit == waiters_.end()) return;
  std::vector<LinkId> blocked = std::move(wit->second);
  waiters_.erase(wit);
  for (const LinkId l : blocked) try_transmit(l);
}

}  // namespace r2c2::sim
