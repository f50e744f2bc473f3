#include "sim/tcp_sim.h"

#include <algorithm>
#include <cassert>

#include "common/rng.h"
#include "sim/event_kind.h"

namespace r2c2::sim {

namespace {
constexpr std::uint32_t kMtuPayload = static_cast<std::uint32_t>(kMaxPayloadBytes);
constexpr std::uint32_t kAckWireBytes = 40;
constexpr double kInitCwndPkts = 10.0;
constexpr TimeNs kMinRto = 100 * kNsPerUs;
constexpr TimeNs kInitRto = 1 * kNsPerMs;
}  // namespace

TcpSim::TcpSim(const Topology& topo, const Router& router, TcpSimConfig config)
    : topo_(topo), router_(router), net_(engine_, topo, config.net), trace_(config.trace) {
  if (config.metrics != nullptr) {
    c_started_ = &config.metrics->counter("tcp.flows_started");
    c_finished_ = &config.metrics->counter("tcp.flows_finished");
    c_retransmissions_ = &config.metrics->counter("tcp.retransmissions");
  }
  net_.set_deliver([this](NodeId at, SimPacket&& pkt) { deliver(at, std::move(pkt)); });
  // Drops are recovered by TCP itself (dup-ACKs / RTO); the recorder still
  // notes them so loss shows up on the trace timeline.
  net_.set_drop([this]([[maybe_unused]] NodeId at, [[maybe_unused]] const SimPacket& pkt) {
    obs::trace(trace_, engine_.now(), at, obs::EventType::kPacketDrop,
               static_cast<std::uint64_t>(pkt.type), pkt.wire_bytes);
  });
  engine_.handle(kEvTcpStart, [this](const EventDesc& ev) { start_flow(arrivals_[ev.a]); });
  engine_.handle(kEvTcpRto, [this](const EventDesc& ev) {
    on_rto(static_cast<FlowId>(ev.a), ev.b);
  });
}

void TcpSim::add_flows(const std::vector<FlowArrival>& flows) {
  for (const FlowArrival& f : flows) {
    engine_.schedule_at(f.start, EventDesc{kEvTcpStart, arrivals_.size(), 0});
    arrivals_.push_back(f);
  }
}

RunMetrics TcpSim::run(TimeNs until) {
  engine_.run(until);
  RunMetrics m;
  m.flows = records_;
  m.max_queue_bytes = net_.max_queue_snapshot();
  m.data_bytes_on_wire = net_.total_data_bytes_sent();
  m.control_bytes_on_wire = 0;
  m.drops = net_.drops();
  m.events = engine_.total_events();
  m.sim_end = engine_.now();
  return m;
}

std::uint32_t TcpSim::payload_of(const Sender& s, std::uint32_t pkt_index) const {
  const std::uint64_t offset = static_cast<std::uint64_t>(pkt_index) * kMtuPayload;
  return static_cast<std::uint32_t>(
      std::min<std::uint64_t>(kMtuPayload, s.total_bytes - offset));
}

void TcpSim::start_flow(const FlowArrival& arrival) {
  const FlowId id = static_cast<FlowId>(records_.size() + 1);
  FlowRecord rec;
  rec.id = id;
  rec.src = arrival.src;
  rec.dst = arrival.dst;
  rec.bytes = std::max<std::uint64_t>(arrival.bytes, 1);
  rec.arrival = engine_.now();
  records_.push_back(rec);
  ++unfinished_;
  if (c_started_ != nullptr) c_started_->add(1);
  obs::trace(trace_, engine_.now(), arrival.src, obs::EventType::kFlowStart,
             static_cast<std::uint64_t>(id), rec.bytes);

  Sender s;
  s.src = arrival.src;
  s.dst = arrival.dst;
  s.total_bytes = rec.bytes;
  s.total_pkts = static_cast<std::uint32_t>(
      (rec.bytes + kMtuPayload - 1) / kMtuPayload);
  s.cwnd = kInitCwndPkts;
  s.rto = kInitRto;
  s.first_sent.assign(s.total_pkts, -1);
  Rng unused(0);
  s.fwd_route = encode_path(topo_, router_.pick_path(RouteAlg::kEcmp, s.src, s.dst, unused, id));
  s.rev_route = encode_path(topo_, router_.pick_path(RouteAlg::kEcmp, s.dst, s.src, unused, id));

  Receiver r;
  r.got.assign(s.total_pkts, false);
  receivers_.emplace(id, std::move(r));
  senders_.emplace(id, std::move(s));
  send_window(id);
  arm_rto(id);
}

void TcpSim::send_window(FlowId id) {
  auto it = senders_.find(id);
  if (it == senders_.end()) return;
  Sender& s = it->second;
  const std::uint32_t wnd = static_cast<std::uint32_t>(std::max(1.0, s.cwnd));
  while (s.next_send < s.total_pkts && s.next_send < s.acked + wnd) {
    send_packet(id, s.next_send, /*retransmit=*/false);
    ++s.next_send;
  }
}

void TcpSim::send_packet(FlowId id, std::uint32_t pkt_index, bool retransmit) {
  Sender& s = senders_.at(id);
  SimPacket pkt;
  pkt.type = PacketType::kData;
  pkt.flow = id;
  pkt.src = s.src;
  pkt.dst = s.dst;
  pkt.seq = pkt_index;
  pkt.payload = payload_of(s, pkt_index);
  pkt.wire_bytes = pkt.payload + static_cast<std::uint32_t>(DataHeader::kWireSize);
  pkt.route = s.fwd_route;
  pkt.sent_at = engine_.now();
  if (retransmit) {
    ++retransmissions_;
    if (c_retransmissions_ != nullptr) c_retransmissions_->add(1);
    s.first_sent[pkt_index] = -1;  // Karn: never sample a retransmitted packet
  } else if (s.first_sent[pkt_index] < 0) {
    s.first_sent[pkt_index] = engine_.now();
  }
  net_.forward(s.src, std::move(pkt));
}

void TcpSim::arm_rto(FlowId id) {
  auto it = senders_.find(id);
  if (it == senders_.end() || it->second.done) return;
  Sender& s = it->second;
  engine_.schedule_in(s.rto, EventDesc{kEvTcpRto, id, ++s.rto_epoch});
}

void TcpSim::on_rto(FlowId id, std::uint64_t epoch) {
  auto it = senders_.find(id);
  if (it == senders_.end()) return;
  Sender& s = it->second;
  if (s.done || epoch != s.rto_epoch) return;  // stale timer
  if (s.acked >= s.total_pkts) return;
  // Timeout: multiplicative backoff, collapse to slow start, go-back-N.
  s.ssthresh = std::max(s.cwnd / 2.0, 2.0);
  s.cwnd = 1.0;
  s.dup_acks = 0;
  s.in_recovery = false;
  s.next_send = s.acked;
  s.rto = std::min<TimeNs>(s.rto * 2, 100 * kNsPerMs);
  send_window(id);
  arm_rto(id);
}

void TcpSim::deliver(NodeId at, SimPacket&& pkt) {
  if (pkt.ridx < pkt.route.length()) {
    net_.forward(at, std::move(pkt));
    return;
  }
  if (pkt.type == PacketType::kData) {
    on_data(std::move(pkt));
  } else if (pkt.type == PacketType::kAck) {
    on_ack(std::move(pkt));
  }
}

void TcpSim::on_data(SimPacket&& pkt) {
  auto rit = receivers_.find(pkt.flow);
  if (rit == receivers_.end()) return;  // flow already completed; stale dup
  Receiver& r = rit->second;
  const std::uint32_t idx = pkt.seq;
  if (idx < r.got.size() && !r.got[idx]) {
    r.got[idx] = true;
    r.received_bytes += pkt.payload;
    r.reorder.on_packet(idx);
    while (r.cum_pkts < r.got.size() && r.got[r.cum_pkts]) ++r.cum_pkts;
  }

  auto sit = senders_.find(pkt.flow);
  if (sit == senders_.end()) return;
  Sender& s = sit->second;
  // Cumulative ACK back to the sender on the reverse ECMP path.
  SimPacket ack;
  ack.type = PacketType::kAck;
  ack.flow = pkt.flow;
  ack.src = s.dst;
  ack.dst = s.src;
  ack.seq = r.cum_pkts;
  ack.wire_bytes = kAckWireBytes;
  ack.route = s.rev_route;
  ack.sent_at = engine_.now();
  net_.forward(s.dst, std::move(ack));

  if (r.received_bytes >= records_[pkt.flow - 1].bytes) {
    FlowRecord& rec = records_[pkt.flow - 1];
    if (!rec.finished()) {
      rec.completed = engine_.now();
      rec.max_reorder_pkts = r.reorder.max_depth();
      --unfinished_;
      if (c_finished_ != nullptr) c_finished_->add(1);
      obs::trace(trace_, engine_.now(), s.dst, obs::EventType::kFlowFinish,
                 static_cast<std::uint64_t>(pkt.flow),
                 static_cast<std::uint64_t>(rec.fct()));
    }
  }
}

void TcpSim::on_ack(SimPacket&& pkt) {
  auto it = senders_.find(pkt.flow);
  if (it == senders_.end()) return;
  Sender& s = it->second;
  if (s.done) return;
  const std::uint32_t ack = pkt.seq;

  if (ack > s.acked) {
    const std::uint32_t newly = ack - s.acked;
    // RTT sample from the highest newly acked, first-transmission packet.
    const std::uint32_t sample_idx = ack - 1;
    if (sample_idx < s.first_sent.size() && s.first_sent[sample_idx] >= 0) {
      const TimeNs rtt = engine_.now() - s.first_sent[sample_idx];
      if (s.srtt == 0) {
        s.srtt = rtt;
        s.rttvar = rtt / 2;
      } else {
        const TimeNs err = std::abs(rtt - s.srtt);
        s.rttvar = (3 * s.rttvar + err) / 4;
        s.srtt = (7 * s.srtt + rtt) / 8;
      }
      s.rto = std::max(kMinRto, s.srtt + 4 * s.rttvar);
    }
    s.acked = ack;
    s.dup_acks = 0;
    if (s.in_recovery && s.acked >= s.recover_point) {
      s.in_recovery = false;
      s.cwnd = s.ssthresh;
    }
    if (!s.in_recovery) {
      if (s.cwnd < s.ssthresh) {
        s.cwnd += newly;  // slow start
      } else {
        s.cwnd += static_cast<double>(newly) / s.cwnd;  // congestion avoidance
      }
    }
    if (s.acked >= s.total_pkts) {
      s.done = true;
      return;
    }
    arm_rto(pkt.flow);
    send_window(pkt.flow);
  } else if (ack == s.acked) {
    ++s.dup_acks;
    if (s.dup_acks == 3 && !s.in_recovery) {
      // Fast retransmit of the first missing packet.
      s.in_recovery = true;
      s.recover_point = s.next_send;
      s.ssthresh = std::max(s.cwnd / 2.0, 2.0);
      s.cwnd = s.ssthresh;
      if (s.acked < s.total_pkts) send_packet(pkt.flow, s.acked, /*retransmit=*/true);
      arm_rto(pkt.flow);
    }
  }
}

}  // namespace r2c2::sim
