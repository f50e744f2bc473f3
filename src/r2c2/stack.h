// The per-node R2C2 network stack: the public API tying together
// broadcast, congestion control, routing and the wire formats.
//
// One R2c2Stack instance runs on every rack node (in the Maze emulator, in
// the examples, or in a unit test). It is transport-agnostic: the host
// environment supplies callbacks for moving bytes to a neighbor and for
// programming per-flow rate limiters; the stack implements the control
// plane of Sections 3.1-3.4:
//
//   - open_flow/close_flow broadcast 16-byte flow events along a
//     load-balanced spanning tree and keep the local flow table in sync;
//   - on_control_packet forwards broadcast copies to this node's FIB
//     children and applies the event to the local view;
//   - recompute() water-fills the visible traffic matrix and programs the
//     host's rate limiters for this node's own flows (to be called every
//     recompute interval rho);
//   - pick_route() returns the per-packet source route for a local flow;
//   - note_backlog() feeds the demand estimator; when a flow turns out to
//     be host-limited, a demand-update broadcast is emitted;
//   - run_route_selection() runs the genetic algorithm over long flows and
//     broadcasts the new assignments (any node may be the one running it,
//     Section 3.4).
//
// The stack is single-threaded by design: the host serializes calls (the
// Maze emulated node runs the stack on its control loop).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "broadcast/broadcast.h"
#include "common/rng.h"
#include "congestion/demand.h"
#include "congestion/waterfill.h"
#include "control/flow_table.h"
#include "control/route_selection.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "packet/packet.h"
#include "routing/routing.h"
#include "snapshot/archive.h"
#include "snapshot/digest.h"
#include "topology/topology.h"

namespace r2c2 {

// Immutable per-rack context shared by all stacks.
struct RackContext {
  const Topology* topo = nullptr;
  const Router* router = nullptr;
  const BroadcastTrees* trees = nullptr;
  AllocationConfig alloc{};
  // Lease protocol (Section 3.1 hardening): every `lease_interval` each
  // stack re-advertises its local flows (demand-update broadcasts double
  // as lease refreshes), and entries not refreshed within
  // kLeaseTtlIntervals intervals are garbage-collected. Heals views that
  // diverged because a flow event was lost (corrupted control packet,
  // failed link). 0 disables the protocol.
  TimeNs lease_interval = 0;
  // --- Observability (src/obs/, optional, shared by all stacks) ---
  // Flight recorder for control-plane trace events; the stack stamps them
  // with its own node id and its tick()-driven clock. Null = no tracing.
  obs::FlightRecorder* trace = nullptr;
  // Metrics registry for the profiling histograms (recompute/tick/GA wall
  // time) and stack counters. Aggregated across nodes by design: every
  // stack sharing the context feeds the same named series. Null = none.
  obs::MetricsRegistry* metrics = nullptr;
};

struct FlowOptions {
  RouteAlg alg = RouteAlg::kRps;
  double weight = 1.0;
  std::uint8_t priority = 0;
};

class R2c2Stack {
 public:
  struct Callbacks {
    // Transmit a serialized control packet to a directly connected
    // neighbor (the broadcast fan-out path).
    std::function<void(NodeId next_hop, std::vector<std::uint8_t> bytes)> send_control;
    // Program the host's rate limiter for a locally originated flow.
    std::function<void(FlowId flow, Bps rate)> set_rate;
  };

  R2c2Stack(NodeId self, const RackContext& ctx, Callbacks callbacks, std::uint64_t seed = 1);

  NodeId self() const { return self_; }

  // --- Sender-side flow lifecycle ---
  FlowId open_flow(NodeId dst, const FlowOptions& options = {});
  void close_flow(FlowId flow);
  // Periodic backlog report for demand estimation (Section 3.3.2). Call
  // once per demand period with the sender-side queue length and, when
  // known, the rate the flow actually achieved over the period. A
  // backlogged flow achieves its allocation, so d = r + q/T estimates
  // demand above the allocation; a slack (host-limited) flow achieves less
  // than its allocation with an empty queue, so the estimate drops below
  // it and a demand-update broadcast is emitted.
  void note_backlog(FlowId flow, std::uint64_t queued_bytes,
                    std::optional<Bps> achieved_rate = std::nullopt);

  // --- Data plane ---
  // Per-packet source route for a local flow (Section 3.5).
  RouteCode pick_route(FlowId flow);
  // Current rate limiter setting for a local flow.
  Bps rate_of(FlowId flow) const;

  // --- Control plane input ---
  // A control packet arrived from a neighbor: forwards copies down the
  // broadcast tree, applies the event, and (optionally) triggers an
  // immediate recomputation when `eager_recompute` is set.
  void on_control_packet(std::span<const std::uint8_t> bytes);

  // Recomputes rates for this node's own flows from the local view; to be
  // invoked every recompute interval by the host's timer.
  void recompute();

  // Advances the stack's notion of time (monotone; stale values are
  // clamped). Drives the lease protocol: emits periodic refresh broadcasts
  // for local flows and garbage-collects remote entries whose lease
  // expired. The host calls this from its timer loop; without a
  // lease_interval in the context it only tracks time (incoming events are
  // lease-stamped with the latest tick).
  void tick(TimeNs now);

  // Runs the route-selection heuristic over the visible long flows and
  // broadcasts new assignments (Section 3.4). Returns the number of
  // reassigned flows.
  int run_route_selection(const SelectionConfig& config);

  // --- Failure handling (Section 3.2) ---
  // Swaps in a new rack context after the topology-discovery mechanism
  // reported a failure (the host rebuilds topology, router and broadcast
  // trees and re-points every stack at them).
  void update_context(const RackContext& ctx);
  // "Upon detecting a failure, nodes broadcast information about all their
  // ongoing flows": re-announces every local flow over the (new) trees.
  // Returns the number of flows re-announced.
  int rebroadcast_local_flows();

  // --- Introspection ---
  const FlowTable& view() const { return view_; }
  std::size_t own_flows() const { return local_.size(); }
  std::uint64_t broadcasts_sent() const { return broadcasts_sent_; }
  // Lease-protocol counters: refresh broadcasts emitted, and stale entries
  // this stack's GC collected (ghosts from lost finish events).
  std::uint64_t lease_refreshes() const { return lease_refreshes_; }
  std::uint64_t ghosts_expired() const { return view_.ghosts_expired(); }
  TimeNs now() const { return now_; }

  // --- Snapshot support (src/snapshot/) ---
  // Archives the view table, the RNG, the flow sequence counter, lease
  // clocks, broadcast counters and local flows (sorted by id).
  // Configuration (context, callbacks) is the host's to reconstruct; the
  // waterfill scratch is a cache and is rebuilt on the first recompute()
  // after load. `tag` distinguishes the per-node sections of a rack-wide
  // archive. load() is parse-then-commit: a failed load leaves the stack
  // unchanged.
  void save(snapshot::ArchiveWriter& w, const std::string& tag) const;
  void load(snapshot::ArchiveReader& r, const std::string& tag);
  void mix_digest(snapshot::Digest& d) const;

 private:
  struct LocalFlow {
    FlowSpec spec;
    std::uint8_t fseq = 0;
    Bps rate = 0.0;
    DemandEstimator demand;
    bool demand_limited = false;
  };

  // The field walk behind save, load and mix_digest (src/snapshot/persist.h).
  template <class Self, class V>
  static void persist(Self& s, V& v, std::string_view tag);

  void broadcast_msg(BroadcastMsg msg);
  // Applies a route update to the view and adopts its assignments for
  // this node's own flows.
  void apply_route_update(const RouteUpdatePacket& pkt);
  void fan_out(NodeId tree_src, std::uint8_t tree, std::span<const std::uint8_t> bytes);
  void apply_rates(std::span<const FlowSpec> flows, std::span<const Bps> rates);
  // (Re)binds the observability handles from ctx_ — called on construction
  // and after update_context, since the new context may carry a different
  // registry/recorder.
  void bind_obs();

  NodeId self_;
  RackContext ctx_;
  Callbacks cb_;
  Rng rng_;
  FlowTable view_;
  // Rate-computation state reused across recompute() calls: the CSR
  // problem is rebuilt only when the view changed (tracked by its version
  // counter) and the scratch arena makes steady-state recomputation
  // allocation-free. Invalidated by update_context().
  WaterfillProblem wf_problem_;
  WaterfillScratch wf_scratch_;
  RateAllocation wf_alloc_;
  std::vector<FlowSpec> wf_flows_;
  std::uint64_t wf_built_version_ = ~0ULL;
  // Ordered by id: tick() and rebroadcast_local_flows() draw each flow's
  // broadcast tree from rng_ in this order, which a restored stack must
  // reproduce.
  std::map<FlowId, LocalFlow> local_;
  std::uint16_t next_fseq_ = 0;
  std::uint64_t broadcasts_sent_ = 0;
  // Lease-protocol clock and cadence state (driven by tick()).
  TimeNs now_ = 0;
  TimeNs last_refresh_ = 0;
  TimeNs last_gc_ = 0;
  std::uint64_t lease_refreshes_ = 0;
  // Observability handles resolved from ctx_ (all null when unset).
  obs::FlightRecorder* trace_ = nullptr;
  obs::Histogram* h_recompute_ = nullptr;
  obs::Histogram* h_tick_ = nullptr;
  obs::Histogram* h_ga_ = nullptr;
  obs::Counter* c_route_picks_ = nullptr;
  obs::Counter* c_flows_opened_ = nullptr;
  obs::Counter* c_flows_closed_ = nullptr;
};

}  // namespace r2c2
