// Idealized per-flow-queues baseline ("PFQ", Section 5.2).
//
// Every node keeps a queue per flow; output ports serve flows round-robin;
// hop-by-hop back-pressure stops a flow's packets from being forwarded to
// a node whose per-flow buffer quota for that flow is full. The paper uses
// this impractical design (per-flow state at every node, large buffering,
// complex forwarding) as the upper bound on what any rate-control protocol
// can achieve: it yields near-perfect max-min fairness with bounded queues.
//
// Idealization: back-pressure state is visible upstream with zero delay
// (the signaling channel is free and instantaneous).
#pragma once

#include <cstdint>
#include <deque>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "routing/routing.h"
#include "sim/engine.h"
#include "sim/metrics.h"
#include "sim/network.h"
#include "topology/topology.h"
#include "workload/generator.h"

namespace r2c2::sim {

// Per (node, flow) buffer quota. Generous by design: the paper calls out
// PFQ's "very high buffering requirements" — the quota must cover one
// packet in flight per first-hop link for multipath flows to aggregate
// bandwidth (8 x MTU covers the torus' six ports with slack).
inline constexpr std::uint64_t kPfqFlowQuotaBytes = 8 * kMtuBytes;

// Packets carry kMaxPayloadBytes.
struct PfqSimConfig {
  RouteAlg route_alg = RouteAlg::kRps;
  // Optional observability (src/obs/): flow lifecycle trace events and
  // "pfq.*" counters. Null = disabled.
  obs::FlightRecorder* trace = nullptr;
  obs::MetricsRegistry* metrics = nullptr;
};

class PfqSim {
 public:
  PfqSim(const Topology& topo, const Router& router, PfqSimConfig config);

  void add_flows(const std::vector<FlowArrival>& flows);
  RunMetrics run(TimeNs until = std::numeric_limits<TimeNs>::max());

 private:
  struct Port {
    std::unordered_map<FlowId, std::deque<SimPacket>> queues;
    std::vector<FlowId> ring;  // round-robin ring of flows with packets
    std::size_t rr_pos = 0;
    bool busy = false;
    std::uint64_t queued_bytes = 0;
    std::uint64_t max_queued_bytes = 0;
    // Sent, not yet arrived. The port sends one packet at a time and each
    // takes the link's latency, so they arrive in send order: a
    // kEvPfqArrive event takes the front one.
    std::deque<SimPacket> in_flight;
  };

  struct SenderFlow {
    NodeId src = 0;
    NodeId dst = 0;
    std::uint64_t total_bytes = 0;
    std::uint64_t sent_bytes = 0;
  };

  struct ReceiverFlow {
    std::uint64_t received_bytes = 0;
    ReorderTracker reorder;
  };

  static std::uint64_t nf_key(NodeId node, FlowId flow) {
    return (static_cast<std::uint64_t>(node) << 32) | flow;
  }

  void start_flow(const FlowArrival& arrival);
  void try_inject(FlowId id);
  void enqueue(NodeId at, SimPacket&& pkt);
  void try_transmit(LinkId link);
  void arrive(LinkId link, SimPacket&& pkt);
  void on_occupancy_drop(NodeId node, FlowId flow);
  bool eligible(NodeId next, const SimPacket& pkt) const;

  const Topology& topo_;
  const Router& router_;
  PfqSimConfig config_;
  Engine engine_;
  Rng rng_;

  std::vector<FlowArrival> arrivals_;  // kEvPfqStart names an index here
  std::vector<Port> ports_;
  std::unordered_map<std::uint64_t, std::uint64_t> occupancy_;      // (node,flow) -> bytes
  std::unordered_map<std::uint64_t, std::vector<LinkId>> waiters_;  // (node,flow) -> blocked ports
  std::unordered_map<FlowId, SenderFlow> senders_;
  std::unordered_map<FlowId, ReceiverFlow> receivers_;
  std::vector<FlowRecord> records_;
  std::uint64_t data_bytes_ = 0;
  obs::FlightRecorder* trace_ = nullptr;
  obs::Counter* c_started_ = nullptr;
  obs::Counter* c_finished_ = nullptr;
};

}  // namespace r2c2::sim
