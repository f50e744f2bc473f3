#include "maze/maze.h"

#include <algorithm>
#include <cassert>
#include <chrono>

namespace r2c2::maze {

namespace {
// Upper bound on a worker's sleep. Wake-ups are race-free (the atomic work
// flag is read by the wait predicate, so a kick between the flag clear and
// the wait entry is never lost); the cap only bounds how long a worker can
// oversleep if a deadline computation missed something.
constexpr TimeNs kMaxNap = 10 * kNsPerMs;
// Back-off when a downstream data ring is full (link-level flow control:
// the emulator never drops data packets; see header note).
constexpr TimeNs kRingFullBackoff = 20 * kNsPerUs;
// Every node's stack uses the default AllocationConfig, kMazeBroadcastTrees
// trees per source and the seed kMazeSeed + node id; every incoming link's
// data ring holds kMazeRingSlots packet slots.
constexpr int kMazeBroadcastTrees = 2;
constexpr std::size_t kMazeRingSlots = 512;
constexpr std::uint64_t kMazeSeed = 11;
}  // namespace

bool MazeRack::DataRing::push(Slot&& slot) {
  std::lock_guard lock(mu);
  if (ready.size() >= kMazeRingSlots) return false;
  queued_bytes += slot.bytes.size();
  max_queued_bytes = std::max(max_queued_bytes, queued_bytes);
  ready.push_back(std::move(slot));
  return true;
}

MazeRack::MazeRack(const Topology& topo, MazeConfig config)
    : topo_(topo), config_(config), router_(topo), trees_(topo, kMazeBroadcastTrees) {
  ctx_.topo = &topo_;
  ctx_.router = &router_;
  ctx_.trees = &trees_;

  rings_.reserve(topo.num_links());
  for (LinkId l = 0; l < topo.num_links(); ++l) rings_.push_back(std::make_unique<DataRing>());

  nodes_.reserve(topo.num_nodes());
  for (NodeId n = 0; n < topo.num_nodes(); ++n) {
    auto node = std::make_unique<Node>();
    node->id = n;
    node->out.resize(topo.out_links(n).size());
    for (std::size_t p = 0; p < node->out.size(); ++p) {
      node->out[p].link = topo.out_links(n)[p];
    }
    Node* raw = node.get();
    R2c2Stack::Callbacks cb;
    cb.send_control = [this, raw](NodeId next_hop, std::vector<std::uint8_t> bytes) {
      // Invoked from stack calls, which always run under raw->mu.
      const LinkId link = topo_.find_link(raw->id, next_hop);
      assert(link != kInvalidLink);
      PendingPacket pkt;
      pkt.bytes = std::move(bytes);
      pkt.control = true;
      enqueue_out(*raw, topo_.port_of(link), std::move(pkt));
    };
    cb.set_rate = [raw](FlowId flow, Bps rate) {
      auto it = raw->app_flows.find(flow);
      if (it != raw->app_flows.end()) it->second.rate_bps = rate;
    };
    node->stack = std::make_unique<R2c2Stack>(n, ctx_, std::move(cb), kMazeSeed + n);
    nodes_.push_back(std::move(node));
  }
}

MazeRack::~MazeRack() { stop(); }

TimeNs MazeRack::now() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(std::chrono::steady_clock::now() -
                                                              epoch_)
      .count();
}

void MazeRack::start() {
  if (running_.exchange(true)) return;
  epoch_ = std::chrono::steady_clock::now();
  for (auto& node : nodes_) {
    node->next_recompute = config_.recompute_interval;
    node->worker = std::thread([this, raw = node.get()] { worker_loop(*raw); });
  }
}

void MazeRack::stop() {
  if (!running_.exchange(false)) return;
  for (auto& node : nodes_) {
    kick(node->id);
    if (node->worker.joinable()) node->worker.join();
  }
}

void MazeRack::kick(NodeId id) {
  Node& node = *nodes_[id];
  node.work = true;
  node.cv.notify_one();
}

FlowId MazeRack::start_flow(NodeId src, NodeId dst, std::uint64_t bytes,
                            const FlowOptions& options) {
  Node& node = *nodes_[src];
  FlowId id = 0;
  {
    std::lock_guard lock(node.mu);
    id = node.stack->open_flow(dst, options);
    AppFlow flow;
    flow.id = id;
    flow.dst = dst;
    flow.total_bytes = std::max<std::uint64_t>(bytes, 1);
    flow.queued_bytes = flow.total_bytes;
    flow.rate_bps = node.stack->rate_of(id);
    flow.last_refill = now();
    flow.started_at = flow.last_refill;
    node.app_flows.emplace(id, flow);
  }
  {
    std::lock_guard lock(results_mu_);
    expected_bytes_[id] = std::max<std::uint64_t>(bytes, 1);
    MazeFlowResult res;
    res.id = id;
    res.src = src;
    res.dst = dst;
    res.bytes = std::max<std::uint64_t>(bytes, 1);
    res.started_at = now();
    results_[id] = res;
  }
  flows_outstanding_.fetch_add(1);
  kick(src);
  return id;
}

bool MazeRack::all_complete() const { return flows_outstanding_.load() == 0; }

bool MazeRack::wait_all(TimeNs timeout) {
  const TimeNs deadline = now() + timeout;
  while (!all_complete()) {
    if (now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  return true;
}

std::vector<MazeFlowResult> MazeRack::results() const {
  std::lock_guard lock(results_mu_);
  std::vector<MazeFlowResult> out;
  out.reserve(results_.size());
  for (const auto& [id, res] : results_) out.push_back(res);
  return out;
}

std::vector<std::uint64_t> MazeRack::max_ring_occupancy() const {
  std::vector<std::uint64_t> out(rings_.size(), 0);
  for (const auto& node : nodes_) {
    std::lock_guard lock(node->mu);
    for (const OutLink& link : node->out) out[link.link] = link.max_queued_bytes;
  }
  return out;
}

void MazeRack::worker_loop(Node& node) {
  std::unique_lock lock(node.mu);
  while (running_.load()) {
    node.work = false;
    const TimeNs deadline = node_step(node);
    const TimeNs nap = std::clamp<TimeNs>(deadline - now(), 0, kMaxNap);
    if (nap > 0 && !node.work) {
      node.cv.wait_for(lock, std::chrono::nanoseconds(nap),
                       [&] { return node.work || !running_.load(); });
    }
  }
}

TimeNs MazeRack::node_step(Node& node) {
  const TimeNs t = now();
  const TimeNs incoming_deadline = pump_incoming(node);
  if (t >= node.next_recompute) {
    node.stack->recompute();
    // Demand estimation: report sender backlog once per recompute period.
    for (auto& [id, flow] : node.app_flows) {
      node.stack->note_backlog(id, flow.queued_bytes);
      flow.rate_bps = node.stack->rate_of(id);
    }
    node.next_recompute = t + config_.recompute_interval;
  }
  pump_apps(node, t);
  pump_outgoing(node, t);

  // Next deadline: the earliest pending delivery, link becoming free,
  // token refill that unblocks an app flow, or the recompute timer.
  TimeNs deadline = std::min(node.next_recompute, incoming_deadline);
  for (const OutLink& out : node.out) {
    const bool has_work = !out.ctrl_pr.empty() || !out.rr.empty();
    if (has_work) deadline = std::min(deadline, std::max(out.busy_until, t));
  }
  for (const auto& [id, flow] : node.app_flows) {
    if (flow.queued_bytes > 0 && flow.rate_bps > 0.0) {
      const double need = static_cast<double>(std::min<std::uint64_t>(
                              flow.queued_bytes + DataHeader::kWireSize, kMtuBytes)) -
                          flow.tokens;
      if (need <= 0.0) {
        deadline = t;
      } else {
        deadline = std::min(deadline, t + static_cast<TimeNs>(need * 8.0 * 1e9 / flow.rate_bps));
      }
    }
  }
  return deadline;
}

TimeNs MazeRack::pump_incoming(Node& node) {
  const TimeNs t = now();
  TimeNs next_deadline = std::numeric_limits<TimeNs>::max();
  bool completed_any = false;
  for (std::size_t p = 0; p < node.out.size(); ++p) {
    // Incoming link paired with out port p: the reverse direction link
    // (all built-in topologies use duplex cables).
    const Link& out_link = topo_.link(node.out[p].link);
    const LinkId in = topo_.find_link(out_link.to, node.id);
    if (in == kInvalidLink) continue;
    DataRing& ring = *rings_[in];
    for (;;) {
      Slot slot;
      {
        std::lock_guard rlock(ring.mu);
        if (ring.ready.empty()) break;
        if (ring.ready.front().deliver_at > t) {
          next_deadline = std::min(next_deadline, ring.ready.front().deliver_at);
          break;
        }
        slot = std::move(ring.ready.front());
        ring.ready.pop_front();
        ring.queued_bytes -= slot.bytes.size();
      }
      // Process the packet.
      if (slot.bytes.empty()) continue;
      const auto type = static_cast<PacketType>(slot.bytes[0]);
      if (type != PacketType::kData) {
        node.stack->on_control_packet(slot.bytes);
        continue;
      }
      auto header = DataHeader::parse(slot.bytes);
      if (!header) continue;  // corrupted: drop (checksum, Section 3.2)
      if (header->ridx < header->rlen) {
        // Zero-copy forward: move the slot's buffer onto the out PR after
        // bumping the route index.
        const RouteCode route = RouteCode::from_bits(header->route, header->rlen);
        const int port = route.port_at(header->ridx);
        DataHeader fwd = *header;
        ++fwd.ridx;
        fwd.serialize(slot.bytes);  // rewrite header (checksum refresh)
        PendingPacket pkt;
        pkt.bytes = std::move(slot.bytes);
        pkt.control = false;
        pkt.flow = fwd.flow;
        enqueue_out(node, port, std::move(pkt));
        continue;
      }
      // Delivered here.
      node.rx_bytes[header->flow] += header->plen;
      std::lock_guard res_lock(results_mu_);
      auto exp = expected_bytes_.find(header->flow);
      if (exp != expected_bytes_.end() && node.rx_bytes[header->flow] >= exp->second) {
        MazeFlowResult& res = results_[header->flow];
        if (!res.finished()) {
          res.fct = t - res.started_at;
          res.throughput_bps =
              res.fct > 0 ? static_cast<double>(res.bytes) * 8.0 * 1e9 /
                                static_cast<double>(res.fct)
                          : 0.0;
          expected_bytes_.erase(exp);
          node.rx_bytes.erase(header->flow);
          flows_outstanding_.fetch_sub(1);
          completed_any = true;
        }
      }
    }
  }
  (void)completed_any;
  return next_deadline;
}

void MazeRack::pump_apps(Node& node, TimeNs t) {
  std::vector<FlowId> finished;
  for (auto& [id, flow] : node.app_flows) {
    // Token-bucket refill at the allocated rate. The burst allowance (four
    // MTUs) absorbs worker wake-up jitter on an oversubscribed host — with
    // a one-MTU bucket every late wake-up would permanently discard credit
    // and bias the emulated rate low.
    if (flow.rate_bps > 0.0) {
      flow.tokens += flow.rate_bps / 8.0 * static_cast<double>(t - flow.last_refill) / 1e9;
      flow.tokens = std::min(flow.tokens, 4.0 * static_cast<double>(kMtuBytes));
    }
    flow.last_refill = t;
    while (flow.queued_bytes > 0) {
      const std::uint32_t payload = static_cast<std::uint32_t>(
          std::min<std::uint64_t>(flow.queued_bytes, kMaxPayloadBytes));
      const std::uint32_t wire = payload + static_cast<std::uint32_t>(DataHeader::kWireSize);
      if (flow.tokens < static_cast<double>(wire)) break;
      const RouteCode route = node.stack->pick_route(id);
      DataHeader header;
      header.rlen = static_cast<std::uint8_t>(route.length());
      header.ridx = 1;  // the first hop is taken by this enqueue
      header.flow = id;
      header.src = node.id;
      header.dst = flow.dst;
      header.seq = static_cast<std::uint32_t>(flow.total_bytes - flow.queued_bytes);
      header.plen = static_cast<std::uint16_t>(payload);
      header.route = route.bits();
      PendingPacket pkt;
      pkt.bytes.assign(wire, 0);
      header.serialize(pkt.bytes);
      pkt.control = false;
      pkt.flow = id;
      flow.tokens -= static_cast<double>(wire);
      flow.queued_bytes -= payload;
      enqueue_out(node, route.port_at(0), std::move(pkt));
    }
    if (flow.queued_bytes == 0) finished.push_back(id);
  }
  for (const FlowId id : finished) {
    // All bytes handed to the network: announce the finish (Section 3.1).
    node.stack->close_flow(id);
    node.app_flows.erase(id);
  }
}

void MazeRack::enqueue_out(Node& node, int port, PendingPacket&& pkt) {
  OutLink& out = node.out[static_cast<std::size_t>(port)];
  out.queued_bytes += pkt.bytes.size();
  out.max_queued_bytes = std::max(out.max_queued_bytes, out.queued_bytes);
  if (pkt.control) {
    out.ctrl_pr.push_back(std::move(pkt));
    return;
  }
  auto [it, fresh] = out.flow_pr.try_emplace(pkt.flow);
  if (it->second.empty()) out.rr.push_back(&it->second);
  it->second.push_back(std::move(pkt));
}

void MazeRack::pump_outgoing(Node& node, TimeNs t) {
  for (OutLink& out : node.out) {
    const Link& link = topo_.link(out.link);
    DataRing& downstream = *rings_[out.link];
    while (t >= out.busy_until) {
      // Control pointer ring has strict priority; data PRs are served
      // round-robin (Section 4.1's per-flow pointer rings).
      std::deque<PendingPacket>* src_q = nullptr;
      bool control = false;
      if (!out.ctrl_pr.empty()) {
        src_q = &out.ctrl_pr;
        control = true;
      } else if (!out.rr.empty()) {
        src_q = out.rr.front();
      } else {
        break;
      }
      PendingPacket& head = src_q->front();
      const TimeNs tx = transmission_time_ns(head.bytes.size(), link.bandwidth);
      Slot slot;
      slot.deliver_at = std::max(out.busy_until, t) + tx + config_.link_latency;
      slot.bytes = std::move(head.bytes);
      const std::size_t wire = slot.bytes.size();
      if (!downstream.push(std::move(slot))) {
        // Downstream ring full: restore the buffer (push leaves its
        // argument intact on failure), keep the packet queued, back off.
        head.bytes = std::move(slot.bytes);
        out.busy_until = t + kRingFullBackoff;
        break;
      }
      // The packet left this node: retire its pointer-ring entry (the
      // paper's "zero the memory" step collapses to the buffer move).
      out.queued_bytes -= wire;
      src_q->pop_front();
      if (!control) {
        out.rr.pop_front();
        if (!src_q->empty()) out.rr.push_back(src_q);
      }
      if (control) {
        control_bytes_.fetch_add(wire);
      } else {
        data_bytes_.fetch_add(wire);
      }
      out.busy_until = std::max(out.busy_until, t) + tx;
      kick(link.to);
    }
  }
}

}  // namespace r2c2::maze
