// Packet-level simulation of the R2C2 stack (Sections 3 and 5.2).
//
// Mechanisms modeled:
//  - Flow start/finish events travel as real 16-byte broadcast packets
//    along per-source shortest-path trees, sharing links (and queues) with
//    data traffic. Their bytes are accounted separately (Fig. 9, Fig. 19).
//  - Senders rate-limit each flow (one rate limiter per flow) and source-
//    route every packet with a per-packet path from the flow's routing
//    protocol. Intermediate nodes only follow the route (Section 3.5).
//  - Rates are recomputed periodically, every `recompute_interval` (rho),
//    with the weighted water-filling allocator over the set of flows whose
//    broadcasts have propagated; a new flow is immediately assigned a
//    conservative fair-share estimate by its sender, and headroom absorbs
//    the visibility lag (Section 3.3.2). rho == 0 reproduces the "ideal"
//    per-event recomputation of Fig. 15.
//  - Failure handling (Section 3.2), in-run: a FaultScript cuts and splices
//    cables while traffic flows. Per-link keepalives with deadline-based
//    detection let the nodes notice on their own; the control plane then
//    rebuilds the degraded topology, routes and broadcast trees, and
//    re-announces every ongoing flow ("Upon detecting a failure, nodes
//    broadcast information about all their ongoing flows"). Per-flow
//    leases with periodic refresh broadcasts plus stale-entry GC keep the
//    global view correct when broadcasts themselves are lost.
//  - One decision plane (topology, router, broadcast trees and the map of
//    its link ids to the substrate's), built by make_plane for both the
//    rebuild and load(), and one spray bias per plane link, composed from
//    gray suspicion and congestion marks when either changes.
//
// Execution: events run on the lanes of the engine's shard plan (one lane,
// the global lane, by default). Each rack-global mutation an event handler
// makes is one DeferredOp passed to commit(): a handler on a shard lane
// logs it for the next window barrier, any other context applies it at
// once, and apply_op is the one implementation of each.
//
// Simplification (documented in DESIGN.md): rather than giving each of the
// n nodes its own divergent flow table, the simulator applies a flow event
// to the shared view when the *last* broadcast copy is delivered — i.e.
// every node is treated as learning at the worst-case time. The sender
// itself uses the flow immediately (exactly as in the paper), so the
// visibility lag that headroom must absorb is fully — if conservatively —
// modeled, while rate computation stays one water-fill per epoch.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "broadcast/broadcast.h"
#include "common/rng.h"
#include "congestion/waterfill.h"
#include "control/flow_table.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "routing/routing.h"
#include "sim/engine.h"
#include "sim/event_kind.h"
#include "sim/fault.h"
#include "sim/metrics.h"
#include "sim/network.h"
#include "snapshot/persist.h"
#include "topology/partition.h"
#include "topology/topology.h"
#include "transport/reliability.h"
#include "workload/generator.h"

namespace r2c2::sim {

struct R2c2SimConfig {
  AllocationConfig alloc{};                    // headroom etc.
  TimeNs recompute_interval = 500 * kNsPerUs;  // rho; 0 = recompute per event
  RouteAlg route_alg = RouteAlg::kRps;
  int broadcast_trees = 4;
  NetworkConfig net{};  // default: unbounded data buffers, control priority
  std::uint32_t mtu_payload = static_cast<std::uint32_t>(kMaxPayloadBytes);
  // Section 6 reliability extension: selective-repeat retransmission with
  // cumulative+SACK acknowledgements used *only* for reliability (rates
  // still come from the allocator). Required when the network corrupts or
  // drops data packets — including fault-injection runs, where packets in
  // flight across a cut cable are lost.
  bool reliable = false;
  TimeNs rto = 500 * kNsPerUs;
  // Per-segment retransmission budget. A segment that exhausts it makes the
  // sender give up; the sim then records an explicit per-flow abort (the
  // FlowRecord is marked aborted, "r2c2.flow_aborts" counts it) instead of
  // retrying forever or asserting.
  int max_retransmits = 64;
  // RTT-sampled adaptive RTO (RFC 6298-style SRTT/RTTVAR, Karn's rule),
  // clamped to [min_rto, max_rto]. Off: the fixed `rto` base. Either way
  // retransmissions of one segment back off exponentially (transport-level
  // gray-failure hygiene; see ReliableSender::Config).
  bool adaptive_rto = false;
  TimeNs min_rto = 50 * kNsPerUs;
  TimeNs max_rto = 20000 * kNsPerUs;
  // Deterministic per-flow retransmit jitter (desynchronizes retry storms;
  // the jitter is a pure hash of (seed, flow, offset, attempt) — no RNG
  // stream, so sharded runs stay bit-identical at any worker count).
  bool retransmit_jitter = false;
  // Section 3.2 "inform the sender who can then re-transmit" recovery for
  // dropped/corrupted broadcast copies. Ablatable: with it off, a corrupted
  // control packet is simply lost and only the lease protocol heals the
  // resulting view divergence.
  bool retransmit_dropped_control = true;

  // --- Runtime fault injection & self-healing (all off by default) ---
  // Scripted link/node fail+restore events applied while the sim runs.
  FaultScript faults;
  // Keepalive probe period per directed link; 0 disables keepalives and
  // with them failure *detection* (scripted faults then blackhole silently,
  // which only reliable-mode retransmission can survive).
  TimeNs keepalive_interval = 0;
  // A cable is declared dead when nothing was heard on it for this long
  // (default when 0: 4 * keepalive_interval). Must span several keepalive
  // periods so corruption of individual probes does not trip it.
  TimeNs failure_timeout = 0;
  // --- Adaptive (gray-failure) detection, phi-accrual flavored ---
  // The binary deadline above only sees dead links. With this on, each
  // directed link also accrues a *suspicion* signal from its keepalive
  // stream: an EWMA of the delivery indicator per detection tick (its
  // complement estimates the loss rate, smoothing loss streaks) plus a
  // phi-style score — silence measured in units of the learned keepalive
  // inter-arrival EWMA. A link crossing either threshold is demoted: it
  // stays in the topology (no context rebuild, no re-announcements) but
  // randomized routing walks are biased away from it via a per-link
  // penalty, and hysteresis clears the demotion once the link behaves
  // again (below 0.5% estimated loss). Dead declaration is unchanged
  // (silence > failure_timeout).
  bool adaptive_detection = false;
  double suspect_loss_threshold = 0.02;   // demote when est. loss exceeds this
  double suspect_phi = 2.5;               // demote when silence > phi * mean gap
  double suspect_ewma_alpha = 0.1;        // delivery-indicator EWMA step
  // --- Congestion-aware adaptive spraying ---
  // With this on, the sim periodically samples every port's peak queue
  // depth into an ECN-style EWMA mark per directed link (see
  // Network::sample_congestion) and folds the marks into each randomized
  // route draw: packet sprays bend away from hot links *per packet*, with
  // no context rebuild and no flow re-announcements — the adaptive
  // counterpart to the GA's static per-flow assignment. The sampling tick
  // runs on the global lane (serial phase), so the signal — and with it
  // the whole trajectory — is bit-identical at any worker count; while no
  // port ever crosses the ECN threshold the mark vector stays exactly
  // zero and every draw matches the congestion-blind run.
  bool congestion_aware = false;
  std::uint64_t ecn_threshold_bytes = 16 * 1024;  // queue depth that marks
  // Lease refresh period: every sender re-advertises its live flows this
  // often (demand-update broadcasts doubling as lease refreshes). 0
  // disables the lease protocol.
  TimeNs lease_interval = 0;
  // Entries not refreshed for this long are garbage-collected from the
  // global view (default when 0: 4 * lease_interval).
  TimeNs lease_ttl = 0;
  std::uint64_t seed = 7;

  // --- Sharded parallel engine (src/sim/engine.h) ---
  // Partition the topology into this many shards, each with its own event
  // lane; cross-shard packets ride mailboxes under conservative-lookahead
  // windows. 1 = a single lane, which is the global lane: the serial run
  // (DESIGN.md, "Serial is the one-lane case"). Shard count is part of the
  // trajectory (it enters the config fingerprint): runs with different
  // shard counts are different experiments. Requires recompute_interval > 0
  // when > 1 (per-event recomputation is inherently global).
  int engine_shards = 1;
  // Worker threads driving the shard lanes. Pure parallelism: any worker
  // count yields bit-identical digests, metrics and snapshots for a fixed
  // shard count. Clamped to [1, engine_shards].
  int engine_workers = 1;

  // --- Observability (src/obs/, all optional) ---
  // Flight recorder for binary trace events (flow lifecycle, broadcasts,
  // rate recomputes, faults, drops/corruption), timestamped with the sim
  // clock and exportable to Chrome trace-event JSON. Null = no tracing.
  obs::FlightRecorder* trace = nullptr;
  // Metrics registry backing every sim counter/histogram. Null = the sim
  // owns a private registry (RunMetrics is a view over it either way).
  // Sharing one registry across sims accumulates into the same counters.
  obs::MetricsRegistry* metrics = nullptr;
};

// Adaptive detection divides a suspect link's spray weight by
// 1 + kSuspectPenalty.
inline constexpr double kSuspectPenalty = 8.0;

// The spray bias (SprayBias, routing/routing.h) of a decision plane, written
// into `bias`, one entry per plane link l. With s the substrate link
// plane_to_substrate[l] (s = l when the map is empty: the plane is the
// substrate), the entry is kSuspectPenalty if suspect[s], plus
// gain * marks[s] when marks are given and gain > 0. `bias` is left empty
// when every entry would be zero.
void compose_spray_bias(std::span<const LinkId> plane_to_substrate, std::span<const char> suspect,
                        std::span<const double> marks, double gain, std::vector<double>& bias);

// Seam for a closed-loop service layer (src/service) driving the sim with
// dynamically issued flows. The sim owns the event loop and the flow
// lifecycle; the client owns request semantics. Completion callbacks fire
// in deterministic order regardless of worker count: a completion on the
// global lane notifies at once, one on a shard lane from the deferred-op
// log applied at the window barrier — both sides of the seam observe the
// identical (time, op) sequence. Callbacks always run in a serial context
// (global lane or barrier), so the client may immediately issue follow-up
// flows/timers.
class ServiceClient {
 public:
  virtual ~ServiceClient() = default;
  // A flow previously returned by start_service_flow finished delivering
  // all bytes (`at` = completion time) or was aborted by the transport.
  virtual void on_flow_complete(FlowId id, TimeNs at) = 0;
  virtual void on_flow_abort(FlowId id, TimeNs at) = 0;
  // Runs one kEvService event (opcode `op`, payload `b`, as passed to
  // schedule_service), live or restored from a snapshot.
  virtual void on_service_event(std::uint64_t op, std::uint64_t b) = 0;
  // The load check of an archived kEvService event: true if
  // on_service_event can run it.
  virtual bool service_event_valid(std::uint64_t op, std::uint64_t b) const = 0;
  // Mixed into the sim's config fingerprint.
  virtual std::uint64_t service_fingerprint() const = 0;
  // The client's field walk, run inside the sim's own for save, load and
  // state digest (src/snapshot/persist.h).
  virtual void persist(snapshot::SaveVisitor& v) const = 0;
  virtual void persist(snapshot::LoadVisitor& v) = 0;
  virtual void persist(snapshot::DigestVisitor& v) const = 0;
};

class R2c2Sim {
 public:
  R2c2Sim(const Topology& topo, const Router& router, R2c2SimConfig config);

  // Attaches a closed-loop service layer. Must be called before run() and
  // before load(); the client must outlive the sim. The client's
  // fingerprint joins config_fingerprint(), its state joins state_digest()
  // and the snapshot archive; its on_service_event runs every kEvService
  // event.
  void attach_service(ServiceClient* client);

  // Issues one flow right now from a service callback or kEvService timer
  // (serial context only; asserts otherwise). Bypasses the arrivals_ list —
  // the service layer is itself deterministic, so its flows are derivable
  // from the service fingerprint rather than archived per-arrival. Returns
  // the FlowId whose completion/abort will be reported to the client.
  FlowId start_service_flow(NodeId src, NodeId dst, std::uint64_t bytes, double weight,
                            int priority, std::int8_t alg = -1);

  // Schedules a service-layer timer on the global lane at time `at` (>= now;
  // past times clamp to now). The event (kEvService, a, b) archives with
  // the engine queue; live or restored, it runs the client's
  // on_service_event(a, b).
  void schedule_service(TimeNs at, std::uint64_t a, std::uint64_t b);

  // Registers the workload; flows start at their arrival times. Arrivals
  // are retained for the lifetime of the sim: pending start events archive
  // as indices into this list, so a restored run can rebind them.
  void add_flows(const std::vector<FlowArrival>& flows);

  // Runs to completion (or `until`); returns collected metrics.
  RunMetrics run(TimeNs until = std::numeric_limits<TimeNs>::max());

  // Incremental driving for the replay/snapshot harness: advance the clock
  // without collecting metrics, then collect once at the end. run() is
  // exactly run_until(until) + collect_metrics().
  void run_until(TimeNs until) { engine_.run(until); }
  RunMetrics collect_metrics();
  TimeNs now() const { return engine_.now(); }
  bool idle() const { return engine_.empty(); }

  // --- Snapshot, resume and divergence detection (src/snapshot/) ---
  // Order-sensitive 64-bit digest over exactly the state the archive
  // carries, field by field in archive order (the field walk below, run
  // with snapshot::DigestVisitor). Two runs whose digests agree at time t
  // have bit-identical state trajectories up to t.
  std::uint64_t state_digest() const;
  // Fingerprint of everything the archive does NOT carry: topology, config,
  // fault script and registered arrivals. A snapshot only restores into a
  // sim constructed with the identical inputs; load() verifies this.
  std::uint64_t config_fingerprint() const;
  // Serializes the full mutable state (engine queue included — every event
  // the R2C2 sim schedules carries a descriptor). Usable at any quiescent
  // point between events, i.e. outside deliver()/tick callbacks.
  void save(snapshot::ArchiveWriter& w) const;
  // Restores into a freshly constructed sim (same ctor arguments, same
  // add_flows calls) that has not yet run. Throws SnapshotError on
  // fingerprint mismatch, corrupt input, or a sim that already ran; the
  // sim is unchanged unless the whole load succeeds.
  void load(snapshot::ArchiveReader& r);

  // Exposed for tests: the number of rate recomputations performed.
  std::uint64_t recomputations() const { return c_recomputations_.value(); }
  // Reliability-extension retransmissions across all flows.
  std::uint64_t retransmissions() const { return c_retransmissions_.value(); }
  // Self-healing introspection: mid-run context rebuilds so far, and the
  // ground-truth + detected state of a directed link.
  std::uint64_t context_rebuilds() const { return c_context_rebuilds_.value(); }
  bool link_detected_down(LinkId link) const { return cable_down_[link] != 0; }
  // Gray-failure introspection: suspicion verdicts and surfaced give-ups.
  std::size_t suspects() const { return suspects_; }
  std::uint64_t links_demoted() const { return c_links_demoted_.value(); }
  std::uint64_t flow_aborts() const { return c_flow_aborts_.value(); }
  const FlowTable& global_view() const { return global_view_; }
  // The registry backing the sim's counters (the external one when
  // config.metrics was set, else the private default).
  const obs::MetricsRegistry& metrics() const { return metrics_; }

 private:
  struct SenderFlow {
    FlowSpec spec;
    std::uint8_t fseq = 0;
    std::uint64_t total_bytes = 0;
    std::uint64_t sent_bytes = 0;
    double rate_bps = 0.0;
    bool emit_scheduled = false;
    TimeNs next_send = 0;
    // Time-weighted average of the assigned rate (Figs. 15/16).
    TimeNs rate_since = 0;
    double rate_integral = 0.0;  // bits "allowed" so far
    TimeNs started_at = 0;
    // Reliability extension state (null when config.reliable is false).
    std::unique_ptr<ReliableSender> rel;
    bool finish_announced = false;
    // Encoded route cache for deterministic protocols (kDor, kEcmp): their
    // path is a pure function of (alg, src, dst, flow id), so it is walked
    // and encoded once per decision-plane epoch instead of per packet.
    // route_epoch != router_epoch_ marks the cache stale (router rebuilt).
    RouteCode cached_route;
    int route_epoch = -1;
  };

  struct ReceiverFlow {
    std::uint64_t received_bytes = 0;
    ReorderTracker reorder;
    std::unique_ptr<ReliableReceiver> rel;
    int pkts_since_ack = 0;
    // A flow's ACKs follow one RPS-drawn path, re-drawn whenever the
    // decision plane changes (ACKs are tiny; spraying them buys nothing,
    // and the pinned path makes the reverse direction allocation-free).
    RouteCode ack_route;
    int ack_route_epoch = -1;
  };

  struct PendingBroadcast {
    BroadcastMsg msg;
    std::uint32_t remaining = 0;  // copies still in flight
    bool recovery = false;        // post-failure re-announcement
  };

  // One mutation of rack-global structures (pending_, senders_ membership,
  // unfinished_, detection verdicts), made through commit(). Shard-lane
  // event handlers may not touch those structures, so commit() appends the
  // op to the lane's log instead; logs are merged by (time, lane, position)
  // and applied with all workers parked at the window barrier — a
  // deterministic serialization of what a serial context applies at once,
  // delayed by at most one lookahead window.
  enum class OpKind : std::uint8_t {
    kBcastInsert,    // register a broadcast launched from a shard
    kBcastArrived,   // one broadcast copy consumed at a node
    kFlowDone,       // sender finished (reliable: fully acked)
    kReceiverDone,   // unreliable receiver got the last byte
    kUnfinishedDec,  // reliable receiver complete; state lingers for acks
    kDetect,         // keepalive-driven restore detection
    kFlowAbort,      // reliable sender gave up; reap + account the abort
  };
  struct DeferredOp {
    TimeNs at = 0;
    OpKind kind = OpKind::kBcastInsert;
    std::uint64_t a = 0;          // bcast id / flow id / directed link id
    NodeId node = kInvalidNode;   // kBcastArrived: completing node (trace)
    bool flag = false;            // Insert: recovery; FlowDone: reap receiver; Detect: failure
    std::uint32_t remaining = 0;  // kBcastInsert: copies in flight
    BroadcastMsg msg{};           // kBcastInsert payload
  };

  // The field walk behind save, load and state_digest: every archived
  // section but sim.meta, the config fingerprint (a hash of inputs, not
  // state).
  template <class Self, class V>
  static void persist(Self& s, V& v);

  FlowId start_flow(const FlowArrival& arrival);
  // start_flow numbers flows 1..N in start order, so flow `id`'s record is
  // records_[id - 1] (load() refuses archives that break this).
  FlowRecord& record(FlowId id) { return records_[id - 1]; }
  void notify_service_done(FlowId id, TimeNs at, bool aborted);
  void recompute_tick();
  // Registers the handlers of the sim's own event kinds (the Network and
  // the FaultInjector register theirs).
  void register_handlers();
  // Schedules the one pending event of a self-rescheduling kind (kTicks)
  // `delay` from now, unless it is armed already.
  void arm(EventKind kind, TimeNs delay) {
    if (armed_[kind]) return;
    armed_[kind] = true;
    engine_.schedule_in(delay, EventDesc{kind, 0, 0});
  }
  void finish_sending(FlowId id);
  void abort_flow(FlowId id);
  ReliableSender::Config rel_config(FlowId id) const;
  void on_data_at_receiver(SimPacket&& pkt);
  void on_ack_at_sender(SimPacket&& pkt);
  void send_ack(FlowId id, ReceiverFlow& recv, NodeId from, NodeId to);
  void deliver(NodeId at, SimPacket&& pkt);
  void on_broadcast_copy(NodeId at, SimPacket&& pkt);
  void apply_global(const BroadcastMsg& msg);
  void broadcast(const BroadcastMsg& msg, NodeId origin, bool recovery = false);
  // Broadcasts `type` for every live sender flow in flow-id order; returns
  // the number of flows announced.
  std::size_t announce_live_flows(PacketType type, bool recovery);
  void schedule_emit(FlowId id);
  void emit_packet(FlowId id);
  void set_rate(SenderFlow& flow, double rate_bps, TimeNs now);
  double start_rate_estimate(const FlowSpec& spec) const;
  void recompute_rates();
  void add_denom(const FlowSpec& spec, double sign);

  // --- Failure detection & recovery ---
  // The decision plane: the pristine topology, router and trees until a
  // failure is detected, then ones rebuilt over the degraded topology. The
  // wire substrate (ports, link ids, route encoding) always stays the full
  // topology; a degraded plane only informs decisions, so its paths and
  // trees translate 1:1 onto surviving physical links. Members are in
  // dependency order, so a plane dies trees and router first, then the
  // topology they reference.
  struct Plane {
    // Canonical down-cable set the plane was built from (empty = pristine).
    // The debounced rebuild means this can lag cable_down_; archiving it
    // lets load() rebuild the exact plane in force at save time, not the
    // one the verdicts would imply.
    std::vector<LinkId> down;
    std::unique_ptr<Topology> topo;  // null while pristine
    std::unique_ptr<Router> router;
    std::unique_ptr<BroadcastTrees> trees;
    std::vector<LinkId> to_substrate;  // plane link -> substrate link; empty = identity
  };
  // The plane for canonical down set `down`; the pristine one when empty.
  // Throws std::logic_error when `down` disconnects the rack.
  Plane make_plane(std::vector<LinkId> down) const;
  // Swaps `next` in and recomposes the spray bias.
  void install_plane(Plane next);
  const Topology& cur_topo() const { return plane_.topo ? *plane_.topo : topo_; }
  const Router& cur_router() const { return plane_.router ? *plane_.router : router_; }
  const BroadcastTrees& cur_trees() const { return plane_.trees ? *plane_.trees : trees_; }
  LinkId substrate_link(LinkId plane_link) const {
    return plane_.to_substrate.empty() ? plane_link : plane_.to_substrate[plane_link];
  }
  LinkId cable_of(LinkId link) const;  // canonical id: min of both directions
  void start_fault_ticks();
  void keepalive_tick();
  void detection_tick();
  void congestion_tick();
  void lease_tick();
  void gc_tick();
  void on_keepalive(SimPacket&& pkt);
  void note_detection(LinkId directed, bool failure, TimeNs when);
  // Adaptive gray detection: per-tick suspicion update (serial phase only).
  void update_suspicion(TimeNs now);
  // Recomposes spray_bias_ from the plane, the suspect flags and, in
  // congestion-aware mode, the network's marks.
  void update_spray_bias();
  void rebuild_context();
  void rebuild_link_denom();
  // Keepalive/detection/lease ticks keep running while there is traffic to
  // protect OR the fault script still has consequences to observe — a
  // restore (or late failure) landing on an idle rack must still be
  // detected so the context heals before the next flow arrives. The
  // horizon is bounded: last scripted event plus one detection window.
  bool fault_ticks_needed() const {
    return unfinished_ > 0 || !senders_.empty() || engine_.now() <= fault_horizon_;
  }

  // --- Per-lane execution context ---
  // True when the current event runs on a shard lane, i.e. not on the
  // global lane (a 1-shard engine has no other lane).
  bool shard_ctx() const { return engine_.current_lane() != engine_.global_lane(); }
  std::size_t ctx_lane() const { return static_cast<std::size_t>(engine_.current_lane()); }
  // The executing lane's RNG stream and path scratch, so concurrent lanes
  // never contend on one.
  Rng& ctx_rng() { return lane_ids_[ctx_lane()].rng; }
  Path& ctx_scratch() { return lane_scratch_[ctx_lane()]; }
  // Broadcast ids must be unique across lanes without coordination: each
  // lane's count carries the lane (global = 0, shard i = i + 1) in the low
  // bits.
  std::uint64_t alloc_bcast_id();
  // The executing lane's trace ring (null when untraced).
  obs::FlightRecorder* ctx_trace() {
    return trace_ == nullptr ? nullptr : lane_trace_[ctx_lane()];
  }
  void merge_lane_traces();
  // Makes one rack-global mutation: logged for the window barrier on a
  // shard lane, applied at once in any other context.
  void commit(DeferredOp&& op) {
    if (shard_ctx()) {
      ops_[ctx_lane()].push_back(std::move(op));
    } else {
      apply_op(op);
    }
  }
  void apply_pending_ops();  // barrier_apply hook: merge + apply all lane logs
  void apply_op(const DeferredOp& op);

  const Topology& topo_;    // full wire substrate
  const Router& router_;    // pristine decision plane
  ServiceClient* service_ = nullptr;  // optional closed-loop service layer
  R2c2SimConfig config_;
  Engine engine_;
  Network net_;
  BroadcastTrees trees_;    // pristine broadcast trees

  // Observability: all sim counters live in a registry (external via
  // config.metrics, else own_metrics_); RunMetrics reads them back out.
  // The flight recorder is optional and allocation-free once constructed.
  obs::MetricsRegistry own_metrics_;
  obs::MetricsRegistry& metrics_;
  obs::FlightRecorder* trace_ = nullptr;
  // Trace ring per engine lane. A sharded run gives every lane a private
  // ring so window-parallel events never contend on the user's recorder;
  // the rings are merged (ts, lane, ring-position)-ordered into trace_ at
  // metrics collection. A single lane records into trace_ itself, and
  // lane_rings_ stays empty.
  std::vector<obs::FlightRecorder*> lane_trace_;
  std::vector<obs::FlightRecorder> lane_rings_;
  obs::Counter& c_recomputations_;
  obs::Counter& c_retransmissions_;
  obs::Counter& c_failures_detected_;
  obs::Counter& c_restores_detected_;
  obs::Counter& c_context_rebuilds_;
  obs::Counter& c_flows_rebroadcast_;
  obs::Counter& c_lease_refreshes_;
  obs::Counter& c_flows_started_;
  obs::Counter& c_flows_finished_;
  obs::Counter& c_broadcasts_sent_;
  obs::Counter& c_flow_aborts_;
  obs::Counter& c_links_demoted_;
  obs::Counter& c_links_cleared_;
  obs::Histogram& h_recompute_wall_;
  obs::Histogram& h_rebuild_wall_;

  Plane plane_;  // the decision plane in force
  std::optional<FaultInjector> injector_;
  // Bumped on every decision-plane swap; per-flow route caches compare
  // their epoch against it instead of registering for invalidation.
  int router_epoch_ = 0;

  // --- Per-lane state, indexed by engine lane (the global lane last) ---
  ShardPlan plan_;
  // The RNG stream (route draws, broadcast tree picks) and broadcast-id
  // counter (see alloc_bcast_id) of each lane. The global lane's stream is
  // seeded from config.seed, each shard lane's from config.seed and the
  // lane index, so the trajectory is a function of (seed, shards) alone.
  struct LaneIds {
    Rng rng;
    std::uint64_t bcast_ctr = 1;
  };
  std::vector<LaneIds> lane_ids_;
  // Scratch for pick_path_into on the per-packet path (no allocation once
  // warm).
  std::vector<Path> lane_scratch_;
  // Deferred-op logs, one per shard lane (see commit), appended in lane
  // execution order (times are nondecreasing within one lane) and merged
  // at the window barrier.
  std::vector<std::vector<DeferredOp>> ops_;
  std::vector<std::size_t> ops_pos_;  // merge cursors (scratch)

  FlowTable global_view_;  // flows whose start broadcast fully propagated
  // Rate-computation state reused across recomputations: the CSR problem
  // is rebuilt only when the global view changed, and the scratch arena
  // makes the steady-state waterfill call allocation-free.
  WaterfillProblem wf_problem_;
  WaterfillScratch wf_scratch_;
  RateAllocation wf_alloc_;
  std::vector<FlowSpec> wf_flows_;
  std::uint64_t wf_built_version_ = ~0ULL;
  std::unordered_map<FlowId, SenderFlow> senders_;
  std::unordered_map<FlowId, ReceiverFlow> receivers_;
  std::unordered_map<std::uint64_t, PendingBroadcast> pending_;
  std::unordered_map<std::uint32_t, FlowId> active_by_key_;  // (src,fseq) -> flow
  std::vector<std::uint16_t> next_fseq_;                     // per node
  std::vector<double> link_denom_;  // sum of weight*fraction of active flows
  std::vector<FlowArrival> arrivals_;  // registered workload, in add order
  std::vector<FlowRecord> records_;  // by flow id - 1 (see record)
  std::size_t unfinished_ = 0;
  TimeNs fault_horizon_ = -1;  // last scripted fault event + margin
  // The sim's self-rescheduling kinds, in archive order: at most one event
  // of each is pending, and armed_[kind] says whether it is. A kind's
  // handler clears its flag before the tick runs.
  static constexpr std::array<EventKind, 7> kTicks = {
      kEvRecomputeTick, kEvKeepaliveTick,  kEvDetectionTick, kEvLeaseTick,
      kEvGcTick,        kEvRebuildContext, kEvCongestionTick};
  std::array<bool, kEvCongestionTick + 1> armed_{};  // indexed by kind

  // Failure-detection state (receiver-side, per directed link).
  std::vector<TimeNs> last_heard_;
  std::vector<char> cable_down_;  // detection verdict; both directions move together
  std::size_t cables_down_ = 0;
  // Adaptive gray-detection state, per directed link. The EWMAs follow the
  // last_heard_ write discipline: inter-arrival updates happen on the lane
  // owning the link's receiving node (single writer); the suspicion scan
  // and verdict flips run only in serial phases.
  std::vector<double> interarrival_ewma_;  // keepalive gap EWMA (ns); 0 = unset
  std::vector<double> deliv_ewma_;         // delivery-indicator EWMA per tick
  std::vector<char> link_suspect_;         // demotion verdict (per direction)
  std::size_t suspects_ = 0;
  // The spray bias of every randomized route draw, indexed by plane link
  // (see compose_spray_bias); empty while it would be all zero. Written only
  // in serial phases, read by shard lanes between barriers (the same
  // publication discipline as plane_).
  std::vector<double> spray_bias_;
  // Ground-truth injection times per cable, for recovery latency metrics.
  std::unordered_map<LinkId, TimeNs> injected_fail_at_;
  std::unordered_map<LinkId, TimeNs> injected_restore_at_;
  std::vector<RecoveryRecord> recoveries_;
  std::vector<std::size_t> open_recoveries_;  // indices awaiting rebuild/reconvergence
  std::uint32_t rebroadcast_outstanding_ = 0;
  std::vector<FlowSpec> gc_scratch_;
};

}  // namespace r2c2::sim
