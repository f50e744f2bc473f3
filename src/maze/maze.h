// Maze: a rack-scale network emulation platform (Section 4.1), substituted
// for the paper's 16-server RDMA cluster by an in-process, thread-per-node
// implementation (see DESIGN.md, "Substitutions").
//
// The architecture follows Fig. 5:
//  - every directed virtual link terminates in a *data ring* (DR) of fixed
//    packet slots owned by the receiving node — the stand-in for the RDMA
//    write target memory;
//  - forwarding is zero-copy within a node: the forwarding step moves a
//    slot *reference* onto a *pointer ring* (PR) of the chosen outgoing
//    link; per-flow pointer rings give the rate-control hook;
//  - the outgoing-link worker serializes packets onto the downstream DR at
//    the emulated link bandwidth and then releases ("zeroes") the local
//    slot;
//  - each node runs the real R2c2Stack (broadcast fan-out, flow table,
//    water-filled rate computation) and software token-bucket rate
//    limiters; packets use the Section 4.2 wire formats end to end.
//
// Fidelity note: the original Maze paces 10-40 Gbps virtual links across
// physical RDMA hardware; this in-process substitute paces links against
// the host's monotonic clock, so absolute rates must be chosen low enough
// (tens to hundreds of Mbps per virtual link) for one machine to sustain.
// Cross-validation against the packet-level simulator (Fig. 7) compares
// *relative* behavior — throughput CDFs and queue occupancy — which this
// substitution preserves.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "broadcast/broadcast.h"
#include "common/types.h"
#include "r2c2/stack.h"
#include "routing/routing.h"
#include "topology/topology.h"

namespace r2c2::maze {

// Trees per source, data-ring slots and stack seeds are fixed (maze.cpp).
struct MazeConfig {
  Bps link_bandwidth = 100 * kMbps;  // emulated rate per virtual link
  TimeNs link_latency = 20 * kNsPerUs;  // emulated propagation per hop
  TimeNs recompute_interval = 2 * kNsPerMs;
};

struct MazeFlowResult {
  FlowId id = 0;
  NodeId src = 0;
  NodeId dst = 0;
  std::uint64_t bytes = 0;
  TimeNs started_at = 0;
  TimeNs fct = -1;  // flow open to last byte received; -1 if unfinished
  double throughput_bps = 0.0;

  bool finished() const { return fct >= 0; }
};

class MazeRack {
 public:
  MazeRack(const Topology& topo, MazeConfig config);
  ~MazeRack();

  MazeRack(const MazeRack&) = delete;
  MazeRack& operator=(const MazeRack&) = delete;

  void start();
  void stop();

  // Application API: opens an R2C2 flow carrying `bytes` from src to dst.
  // Thread-safe; returns the flow id. Data is generated internally (the
  // emulated application is a bulk sender).
  FlowId start_flow(NodeId src, NodeId dst, std::uint64_t bytes, const FlowOptions& options = {});

  // True once every started flow has been fully received.
  bool all_complete() const;
  // Blocks until all flows complete or `timeout` elapses; returns success.
  bool wait_all(TimeNs timeout);

  std::vector<MazeFlowResult> results() const;
  // Max output-queue occupancy (bytes across a link's pointer rings), per
  // directed link — comparable to the simulator's per-port queues.
  std::vector<std::uint64_t> max_ring_occupancy() const;
  std::uint64_t control_bytes() const { return control_bytes_.load(); }
  std::uint64_t data_bytes() const { return data_bytes_.load(); }

 private:
  struct Slot {
    std::vector<std::uint8_t> bytes;
    TimeNs deliver_at = 0;  // emulated propagation: not visible before this
  };

  // Incoming data ring of one directed link (owner: the link's dst node).
  struct DataRing {
    mutable std::mutex mu;
    std::deque<Slot> ready;  // FIFO of received packets
    std::uint64_t queued_bytes = 0;
    std::uint64_t max_queued_bytes = 0;
    bool push(Slot&& slot);  // false if the ring is full (packet dropped)
  };

  // A local flow's sender state (application + token bucket).
  struct AppFlow {
    FlowId id = 0;
    NodeId dst = 0;
    std::uint64_t total_bytes = 0;
    std::uint64_t queued_bytes = 0;  // bytes not yet packetized
    double tokens = 0.0;             // bytes
    double rate_bps = 0.0;
    TimeNs last_refill = 0;
    TimeNs started_at = 0;
  };

  struct PendingPacket {
    std::vector<std::uint8_t> bytes;
    bool control = false;
    FlowId flow = 0;
  };

  // Outgoing link state (owner: the link's src node).
  struct OutLink {
    LinkId link = kInvalidLink;
    TimeNs busy_until = 0;
    std::deque<PendingPacket> ctrl_pr;               // control pointer ring
    std::deque<std::deque<PendingPacket>*> rr;       // round-robin over flow PRs
    std::unordered_map<FlowId, std::deque<PendingPacket>> flow_pr;
    // Output-queue occupancy (bytes across all PRs) — the metric that
    // corresponds to the simulator's per-port queues (Fig. 7b).
    std::uint64_t queued_bytes = 0;
    std::uint64_t max_queued_bytes = 0;
  };

  struct Node {
    NodeId id = 0;
    std::unique_ptr<R2c2Stack> stack;
    std::mutex mu;
    std::condition_variable cv;
    std::vector<OutLink> out;                      // parallel to topo out_links
    std::unordered_map<FlowId, AppFlow> app_flows;
    std::unordered_map<FlowId, std::uint64_t> rx_bytes;  // receiver side
    TimeNs next_recompute = 0;
    std::atomic<bool> work{false};
    std::thread worker;
  };

  void worker_loop(Node& node);
  // One pass of a node's duties; returns the next wake-up deadline.
  TimeNs node_step(Node& node);
  // Drains deliverable packets; returns the earliest deliver_at still
  // pending (or a far-future sentinel).
  TimeNs pump_incoming(Node& node);
  void pump_apps(Node& node, TimeNs now);
  void pump_outgoing(Node& node, TimeNs now);
  void enqueue_out(Node& node, int port, PendingPacket&& pkt);
  void kick(NodeId node);
  TimeNs now() const;

  const Topology& topo_;
  MazeConfig config_;
  Router router_;
  BroadcastTrees trees_;
  RackContext ctx_;

  std::vector<std::unique_ptr<Node>> nodes_;
  std::vector<std::unique_ptr<DataRing>> rings_;  // one per directed link

  mutable std::mutex results_mu_;
  std::unordered_map<FlowId, MazeFlowResult> results_;
  std::unordered_map<FlowId, std::uint64_t> expected_bytes_;
  std::atomic<std::size_t> flows_outstanding_{0};
  std::atomic<std::uint64_t> control_bytes_{0};
  std::atomic<std::uint64_t> data_bytes_{0};
  std::atomic<bool> running_{false};
  std::chrono::steady_clock::time_point epoch_;
};

}  // namespace r2c2::maze
