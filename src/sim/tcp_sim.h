// TCP baseline over ECMP single-path routing (Section 5.2).
//
// The paper compares R2C2 against "TCP with an ECMP-like routing protocol
// which selects a single path between source and destination based on the
// hash of the flow ID". This is a NewReno-style loss-based TCP: slow
// start, AIMD congestion avoidance, fast retransmit on three duplicate
// ACKs, go-back-N on retransmission timeout, RTT estimation with Karn's
// algorithm. Ports use finite drop-tail buffers (micro-servers have
// limited buffers), which is exactly what hurts TCP here: short flows
// queue behind long ones and a single path cannot exploit the rack's path
// diversity.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "routing/routing.h"
#include "sim/engine.h"
#include "sim/metrics.h"
#include "sim/network.h"
#include "topology/topology.h"
#include "workload/generator.h"

namespace r2c2::sim {

// Segments carry kMaxPayloadBytes; the TCP constants (initial window,
// initial and minimum RTO, ACK size) are in tcp_sim.cpp.
struct TcpSimConfig {
  // Micro-servers have limited buffers (goal G3): ~21 MTUs of drop-tail
  // buffering per port.
  NetworkConfig net{.data_buffer_bytes = 32 * 1024};
  // Optional observability (src/obs/): flow lifecycle + drop trace events
  // and "tcp.*" counters. Null = disabled.
  obs::FlightRecorder* trace = nullptr;
  obs::MetricsRegistry* metrics = nullptr;
};

class TcpSim {
 public:
  TcpSim(const Topology& topo, const Router& router, TcpSimConfig config);

  void add_flows(const std::vector<FlowArrival>& flows);
  RunMetrics run(TimeNs until = std::numeric_limits<TimeNs>::max());

  std::uint64_t retransmissions() const { return retransmissions_; }

 private:
  struct Sender {
    NodeId src = 0;
    NodeId dst = 0;
    std::uint32_t total_pkts = 0;
    std::uint64_t total_bytes = 0;
    std::uint32_t acked = 0;      // cumulative packets acked
    std::uint32_t next_send = 0;  // next new packet index
    double cwnd = 10.0;           // packets
    double ssthresh = 1e9;
    int dup_acks = 0;
    bool in_recovery = false;
    std::uint32_t recover_point = 0;
    // RTT estimation (Karn: only first transmissions are sampled).
    TimeNs srtt = 0;
    TimeNs rttvar = 0;
    TimeNs rto = 0;
    std::uint64_t rto_epoch = 0;  // invalidates stale timer events
    bool done = false;
    RouteCode fwd_route;  // single ECMP path, fixed for the flow
    RouteCode rev_route;
    std::vector<TimeNs> first_sent;  // per packet; -1 once retransmitted
  };

  struct Receiver {
    std::uint32_t cum_pkts = 0;  // contiguous packets received
    std::uint64_t received_bytes = 0;
    std::vector<bool> got;
    ReorderTracker reorder;
  };

  void start_flow(const FlowArrival& arrival);
  void deliver(NodeId at, SimPacket&& pkt);
  void on_data(SimPacket&& pkt);
  void on_ack(SimPacket&& pkt);
  void send_window(FlowId id);
  void send_packet(FlowId id, std::uint32_t pkt_index, bool retransmit);
  void arm_rto(FlowId id);
  void on_rto(FlowId id, std::uint64_t epoch);
  std::uint32_t payload_of(const Sender& s, std::uint32_t pkt_index) const;

  const Topology& topo_;
  const Router& router_;
  Engine engine_;
  Network net_;

  std::vector<FlowArrival> arrivals_;  // kEvTcpStart names an index here
  std::unordered_map<FlowId, Sender> senders_;
  std::unordered_map<FlowId, Receiver> receivers_;
  std::vector<FlowRecord> records_;
  std::uint64_t retransmissions_ = 0;
  std::size_t unfinished_ = 0;
  obs::FlightRecorder* trace_ = nullptr;
  obs::Counter* c_started_ = nullptr;
  obs::Counter* c_finished_ = nullptr;
  obs::Counter* c_retransmissions_ = nullptr;
};

}  // namespace r2c2::sim
