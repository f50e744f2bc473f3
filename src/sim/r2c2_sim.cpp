#include "sim/r2c2_sim.h"

#include <algorithm>
#include <cassert>
#include <iterator>
#include <stdexcept>
#include <utility>

#include "obs/scope.h"
#include "sim/event_kind.h"

namespace r2c2::sim {

namespace {
constexpr std::uint32_t kBcastWireBytes = 16;
// The receiver acks every kAckEveryPkts data packets, and at gaps and at
// completion.
constexpr int kAckEveryPkts = 4;
// Adaptive detection clears a suspect link only below this estimated loss
// (hysteresis against the demotion threshold).
constexpr double kSuspectClearThreshold = 0.005;
// Detection -> rebuild debounce, coalescing near-simultaneous per-cable
// detections into one context rebuild.
constexpr TimeNs kRebuildDelay = 20 * kNsPerUs;
// Congestion-aware spraying samples every port's peak queue this often
// into an EWMA mark per link (step kCongestionEwmaAlpha), and a full mark
// adds kCongestionGain to its link's spray bias.
constexpr TimeNs kCongestionInterval = 20 * kNsPerUs;
constexpr double kCongestionEwmaAlpha = 0.3;
constexpr double kCongestionGain = 4.0;
}  // namespace

void compose_spray_bias(std::span<const LinkId> plane_to_substrate, std::span<const char> suspect,
                        std::span<const double> marks, double gain, std::vector<double>& bias) {
  const bool identity = plane_to_substrate.empty();
  const bool marked = gain > 0.0 && !marks.empty();
  bias.assign(identity ? suspect.size() : plane_to_substrate.size(), 0.0);
  bool any = false;
  for (std::size_t l = 0; l < bias.size(); ++l) {
    const std::size_t s = identity ? l : plane_to_substrate[l];
    double& b = bias[l];
    if (suspect[s]) b += kSuspectPenalty;
    if (marked) b += gain * marks[s];
    any = any || b != 0.0;
  }
  if (!any) bias.clear();
}

R2c2Sim::R2c2Sim(const Topology& topo, const Router& router, R2c2SimConfig config)
    : topo_(topo),
      router_(router),
      config_(config),
      net_(engine_, topo, config.net),
      trees_(topo, config.broadcast_trees),
      metrics_(config.metrics != nullptr ? *config.metrics : own_metrics_),
      trace_(config.trace),
      c_recomputations_(metrics_.counter("r2c2.recomputations")),
      c_retransmissions_(metrics_.counter("r2c2.retransmissions")),
      c_failures_detected_(metrics_.counter("r2c2.failures_detected")),
      c_restores_detected_(metrics_.counter("r2c2.restores_detected")),
      c_context_rebuilds_(metrics_.counter("r2c2.context_rebuilds")),
      c_flows_rebroadcast_(metrics_.counter("r2c2.flows_rebroadcast")),
      c_lease_refreshes_(metrics_.counter("r2c2.lease_refreshes")),
      c_flows_started_(metrics_.counter("r2c2.flows_started")),
      c_flows_finished_(metrics_.counter("r2c2.flows_finished")),
      c_broadcasts_sent_(metrics_.counter("r2c2.broadcasts_sent")),
      c_flow_aborts_(metrics_.counter("r2c2.flow_aborts")),
      c_links_demoted_(metrics_.counter("r2c2.links_demoted")),
      c_links_cleared_(metrics_.counter("r2c2.links_cleared")),
      h_recompute_wall_(metrics_.histogram("r2c2.recompute_wall_ns")),
      h_rebuild_wall_(metrics_.histogram("r2c2.rebuild_wall_ns")),
      next_fseq_(topo.num_nodes(), 0),
      link_denom_(topo.num_links(), 0.0),
      last_heard_(topo.num_links(), 0),
      cable_down_(topo.num_links(), 0),
      interarrival_ewma_(topo.num_links(), 0.0),
      deliv_ewma_(topo.num_links(), 1.0),
      link_suspect_(topo.num_links(), 0) {
  if (config_.failure_timeout == 0) config_.failure_timeout = 4 * config_.keepalive_interval;
  if (config_.lease_ttl == 0) config_.lease_ttl = 4 * config_.lease_interval;
  if (config_.engine_shards > 1 && config_.recompute_interval == 0) {
    throw std::logic_error(
        "engine_shards > 1 requires recompute_interval > 0: per-event "
        "recomputation is inherently global");
  }
  plan_ = make_shard_plan(topo_, config_.engine_shards);
  engine_.configure_shards(plan_.shards, config_.engine_workers, plan_.min_cross_latency);
  net_.set_shard_plan(plan_);
  engine_.set_lane_drain([this](int lane) { net_.drain_mailbox(lane); });
  engine_.set_barrier_apply([this] { apply_pending_ops(); });
  register_handlers();
  const auto lanes = static_cast<std::size_t>(engine_.num_lanes());
  const auto global = static_cast<std::size_t>(engine_.global_lane());
  lane_ids_.reserve(lanes);
  for (std::size_t i = 0; i < lanes; ++i) {
    lane_ids_.push_back(
        {Rng(i == global ? config_.seed : config_.seed ^ (0x9e3779b97f4a7c15ULL * (i + 1)))});
  }
  lane_scratch_.resize(lanes);
  ops_.resize(global);  // the shard lanes come first
  // The flight recorder is not thread-safe, so several lanes each get a
  // private ring of the same capacity; merge_lane_traces folds them
  // (ts, lane, position)-ordered into the user's recorder at metrics
  // collection. Workers > 1 keeps full traces.
  lane_trace_.assign(lanes, trace_);
  if (trace_ != nullptr && lanes > 1) {
    lane_rings_.reserve(lanes);
    for (std::size_t i = 0; i < lanes; ++i) {
      lane_trace_[i] = &lane_rings_.emplace_back(trace_->capacity());
    }
  }
  net_.set_deliver([this](NodeId at, SimPacket&& pkt) { deliver(at, std::move(pkt)); });
  // Control packets use an unbounded priority queue, so buffers never drop
  // them; a broadcast copy lost to corruption is retransmitted by the node
  // that sent it after a short delay — the Section 3.2 "inform the sender
  // who can then re-transmit" recovery, collapsed to its effect.
  // Keepalives are periodic probes; a lost one is simply superseded.
  net_.set_drop([this](NodeId at, const SimPacket& pkt) {
    obs::trace(ctx_trace(), engine_.now(), at, obs::EventType::kPacketDrop,
               static_cast<std::uint64_t>(pkt.type), pkt.wire_bytes);
    if (pkt.type == PacketType::kData || pkt.type == PacketType::kAck ||
        pkt.type == PacketType::kKeepalive) {
      return;
    }
    if (!config_.retransmit_dropped_control) return;
    const LinkId link = topo_.find_link(at, pkt.dst);
    if (link == kInvalidLink) return;
    // The retransmit copy is parked (not captured) so the pending event
    // keeps a (slot, link) descriptor; its archive holds the packet itself.
    engine_.schedule_in(5 * kNsPerUs,
                        EventDesc{kEvCtrlRetransmit, net_.park(SimPacket(pkt)), link});
  });
  if (trace_ != nullptr) {
    net_.set_corrupt([this](NodeId at, const SimPacket& pkt) {
      obs::trace(ctx_trace(), engine_.now(), at, obs::EventType::kPacketCorrupt,
                 static_cast<std::uint64_t>(pkt.type), pkt.wire_bytes);
    });
  }
  if (!config_.faults.empty()) {
    for (const FaultEvent& ev : config_.faults.events) {
      fault_horizon_ = std::max(
          fault_horizon_, ev.at + config_.failure_timeout + 2 * config_.keepalive_interval);
    }
    injector_.emplace(engine_, net_, topo_, config_.faults);
    // Record ground-truth injection times per cable so detection latency
    // and recovery latency can be measured. The transport never reads
    // these to *act* — detection is keepalive-driven.
    injector_->set_on_event([this](const FaultEvent& ev) {
      const TimeNs now = engine_.now();
      auto note = [this, &ev, now](LinkId link) {
        const LinkId cable = cable_of(link);
        if (ev.is_failure()) {
          injected_fail_at_[cable] = now;
        } else {
          injected_restore_at_[cable] = now;
        }
      };
      if (ev.link != kInvalidLink) {
        note(ev.link);
      } else if (ev.node != kInvalidNode) {
        for (const LinkId id : topo_.out_links(ev.node)) note(id);
      }
      obs::trace(ctx_trace(), now, ev.node != kInvalidNode ? ev.node : topo_.link(ev.link).from,
                 obs::EventType::kFaultInject, static_cast<std::uint64_t>(ev.link),
                 ev.is_failure() ? 1 : 0);
    });
    injector_->arm();
  }
}

void R2c2Sim::register_handlers() {
  engine_.handle(
      kEvStartFlow, [this](const EventDesc& ev) { start_flow(arrivals_[ev.a]); },
      [this](const EventDesc& ev) { return ev.a < arrivals_.size(); });
  engine_.handle(kEvEmitPacket,
                 [this](const EventDesc& ev) { emit_packet(static_cast<FlowId>(ev.a)); });
  engine_.handle(
      kEvCtrlRetransmit,
      [this](const EventDesc& ev) {
        net_.send_on_link(static_cast<LinkId>(ev.b), net_.take_parked(ev.a));
      },
      [this](const EventDesc& ev) { return ev.b < topo_.num_links(); });
  using Tick = void (R2c2Sim::*)();
  constexpr std::pair<EventKind, Tick> ticks[] = {
      {kEvRecomputeTick, &R2c2Sim::recompute_tick}, {kEvKeepaliveTick, &R2c2Sim::keepalive_tick},
      {kEvDetectionTick, &R2c2Sim::detection_tick}, {kEvLeaseTick, &R2c2Sim::lease_tick},
      {kEvGcTick, &R2c2Sim::gc_tick},               {kEvRebuildContext, &R2c2Sim::rebuild_context},
      {kEvCongestionTick, &R2c2Sim::congestion_tick}};
  static_assert(std::size(ticks) == kTicks.size());
  for (const auto& [kind, tick] : ticks) {
    engine_.handle(kind, [this, kind, tick](const EventDesc&) {
      armed_[kind] = false;
      (this->*tick)();
    });
  }
}

void R2c2Sim::add_flows(const std::vector<FlowArrival>& flows) {
  for (const FlowArrival& f : flows) {
    const std::uint64_t index = arrivals_.size();
    arrivals_.push_back(f);
    engine_.schedule_at(f.start, EventDesc{kEvStartFlow, index, 0});
  }
}

RunMetrics R2c2Sim::run(TimeNs until) {
  engine_.run(until);
  return collect_metrics();
}

void R2c2Sim::merge_lane_traces() {
  if (lane_rings_.empty()) return;
  // Fold every lane's private ring into the user-facing recorder, ordered
  // by (timestamp, lane, position-in-lane). Each lane's ring is a pure
  // function of that lane's event trajectory — never of worker
  // interleaving — so the merged sequence is identical at any worker
  // count. Per-ring overflow still drops oldest-first per lane, exactly as
  // a single shared ring would drop its oldest events.
  struct Tagged {
    obs::TraceEvent ev;
    std::size_t lane;
    std::size_t pos;
  };
  std::vector<Tagged> all;
  std::size_t total = 0;
  for (const obs::FlightRecorder& rec : lane_rings_) total += rec.size();
  all.reserve(total);
  for (std::size_t lane = 0; lane < lane_rings_.size(); ++lane) {
    std::size_t pos = 0;
    lane_rings_[lane].for_each(
        [&all, lane, &pos](const obs::TraceEvent& ev) { all.push_back({ev, lane, pos++}); });
    lane_rings_[lane].clear();
  }
  std::sort(all.begin(), all.end(), [](const Tagged& a, const Tagged& b) {
    if (a.ev.ts != b.ev.ts) return a.ev.ts < b.ev.ts;
    if (a.lane != b.lane) return a.lane < b.lane;
    return a.pos < b.pos;
  });
  for (const Tagged& t : all) {
    trace_->record(t.ev.ts, t.ev.node, t.ev.type, t.ev.phase, t.ev.arg0, t.ev.arg1);
  }
}

RunMetrics R2c2Sim::collect_metrics() {
  merge_lane_traces();
  RunMetrics m;
  m.flows = records_;
  m.max_queue_bytes = net_.max_queue_snapshot();
  m.data_bytes_on_wire = net_.total_data_bytes_sent();
  m.control_bytes_on_wire = net_.total_control_bytes_sent();
  m.drops = net_.drops();
  m.events = engine_.total_events();
  m.sim_end = engine_.now();
  m.recoveries = recoveries_;
  if (injector_) {
    m.failures_injected = injector_->failures_injected();
    m.restores_injected = injector_->restores_injected();
  }
  m.failures_detected = c_failures_detected_.value();
  m.restores_detected = c_restores_detected_.value();
  m.context_rebuilds = c_context_rebuilds_.value();
  m.flows_rebroadcast = c_flows_rebroadcast_.value();
  m.failed_link_drops = net_.failed_link_drops();
  m.corrupted_control = net_.corrupted_control();
  m.corrupted_data = net_.corrupted_data();
  m.ghost_flows_expired = global_view_.ghosts_expired();
  m.lease_refreshes_sent = c_lease_refreshes_.value();
  m.gray_drops = net_.gray_drops();
  m.flow_aborts = c_flow_aborts_.value();
  m.links_demoted = c_links_demoted_.value();
  m.links_cleared = c_links_cleared_.value();
  // Mirror the network/engine-owned totals into the registry so one
  // snapshot (table or JSON) covers the whole run.
  metrics_.gauge("net.drops").set(static_cast<double>(m.drops));
  metrics_.gauge("net.failed_link_drops").set(static_cast<double>(m.failed_link_drops));
  metrics_.gauge("net.corrupted_control").set(static_cast<double>(m.corrupted_control));
  metrics_.gauge("net.corrupted_data").set(static_cast<double>(m.corrupted_data));
  metrics_.gauge("net.data_bytes_on_wire").set(static_cast<double>(m.data_bytes_on_wire));
  metrics_.gauge("net.control_bytes_on_wire").set(static_cast<double>(m.control_bytes_on_wire));
  metrics_.gauge("r2c2.ghost_flows_expired").set(static_cast<double>(m.ghost_flows_expired));
  metrics_.gauge("net.gray_drops").set(static_cast<double>(m.gray_drops));
  metrics_.gauge("net.degraded_links").set(static_cast<double>(net_.degraded_links()));
  metrics_.gauge("detect.suspects").set(static_cast<double>(suspects_));
  metrics_.gauge("sim.events").set(static_cast<double>(m.events));
  metrics_.gauge("sim.end_ns").set(static_cast<double>(m.sim_end));
  // Engine gauges are observability-only: they never enter RunMetrics or a
  // digest, so they cannot perturb worker-count identity.
  metrics_.gauge("engine.windows").set(static_cast<double>(engine_.windows_run()));
  metrics_.gauge("engine.serial_phases").set(static_cast<double>(engine_.serial_phases()));
  metrics_.gauge("engine.clamped_schedules").set(static_cast<double>(engine_.clamped_schedules()));
  for (int i = 0; i < engine_.num_lanes(); ++i) {
    const Engine::LaneStats s = engine_.lane_stats(i);
    const std::string lane = "engine.lane" + std::to_string(i) + ".";
    metrics_.gauge(lane + "events").set(static_cast<double>(s.events));
    metrics_.gauge(lane + "window_stalls").set(static_cast<double>(s.stalls));
    metrics_.gauge(lane + "mailbox_posted").set(static_cast<double>(net_.mailbox_posted(i)));
    metrics_.gauge(lane + "mailbox_peak").set(static_cast<double>(net_.mailbox_peak_depth(i)));
  }
  return m;
}

ReliableSender::Config R2c2Sim::rel_config(FlowId id) const {
  ReliableSender::Config c;
  c.mtu_payload = config_.mtu_payload;
  c.rto = config_.rto;
  c.max_retransmits = config_.max_retransmits;
  c.adaptive_rto = config_.adaptive_rto;
  c.min_rto = config_.min_rto;
  c.max_rto = config_.max_rto;
  // Per-flow jitter key: pure function of (seed, flow id), so a restored
  // sender reconstructs the identical jitter schedule.
  c.jitter_seed =
      config_.retransmit_jitter ? config_.seed ^ (0x9e3779b97f4a7c15ULL * (id + 1)) : 0;
  return c;
}

void R2c2Sim::add_denom(const FlowSpec& spec, double sign) {
  for (const LinkFraction& lf :
       cur_router().link_weights(spec.alg, spec.src, spec.dst, spec.id)) {
    link_denom_[lf.link] += sign * spec.weight * lf.fraction;
    if (link_denom_[lf.link] < 0.0) link_denom_[lf.link] = 0.0;
  }
}

double R2c2Sim::start_rate_estimate(const FlowSpec& spec) const {
  // Fair-share estimate from the sender's view: the globally visible flows
  // (link_denom_ tracks the view; see apply_global) plus this new flow.
  // Crucially, concurrent arrivals at other senders are NOT in the
  // denominator — each sender computes from its own (stale) view, so a
  // burst of arrivals collectively oversubscribes links until the next
  // recomputation; the bandwidth headroom absorbs this (Section 3.3.2).
  double rate = kUnlimitedDemand;
  for (const LinkFraction& lf :
       cur_router().link_weights(spec.alg, spec.src, spec.dst, spec.id)) {
    const double cap = cur_topo().link(lf.link).bandwidth * (1.0 - config_.alloc.headroom);
    const double denom = link_denom_[lf.link] + spec.weight * lf.fraction;
    rate = std::min(rate, cap * spec.weight / denom);
  }
  if (std::isfinite(spec.demand)) rate = std::min(rate, spec.demand);
  return std::isfinite(rate) ? rate : 0.0;
}

FlowId R2c2Sim::start_flow(const FlowArrival& arrival) {
  const FlowId id = static_cast<FlowId>(records_.size() + 1);
  // Allocate a wire-level (src, fseq) key that is not in use; more than 256
  // concurrent flows from one source would be a wire-format limit.
  std::uint8_t fseq = 0;
  {
    int tries = 0;
    std::uint16_t& ctr = next_fseq_[arrival.src];
    for (;;) {
      fseq = static_cast<std::uint8_t>(ctr & 0xff);
      ctr = static_cast<std::uint16_t>(ctr + 1);
      if (!active_by_key_.contains(FlowTable::key(arrival.src, fseq))) break;
      if (++tries > 256) throw std::runtime_error("more than 256 concurrent flows from one node");
    }
  }

  FlowSpec spec;
  spec.id = id;
  spec.src = arrival.src;
  spec.dst = arrival.dst;
  spec.alg = arrival.alg >= 0 ? static_cast<RouteAlg>(arrival.alg) : config_.route_alg;
  spec.weight = arrival.weight;
  spec.priority = arrival.priority;
  spec.demand = kUnlimitedDemand;

  FlowRecord rec;
  rec.id = id;
  rec.src = arrival.src;
  rec.dst = arrival.dst;
  rec.bytes = std::max<std::uint64_t>(arrival.bytes, 1);
  rec.arrival = engine_.now();
  records_.push_back(rec);
  ++unfinished_;
  c_flows_started_.add(1);
  obs::trace(ctx_trace(), engine_.now(), arrival.src, obs::EventType::kFlowStart,
             static_cast<std::uint64_t>(id), rec.bytes);

  SenderFlow flow;
  flow.spec = spec;
  flow.fseq = fseq;
  flow.total_bytes = rec.bytes;
  flow.started_at = engine_.now();
  flow.rate_since = engine_.now();

  active_by_key_[FlowTable::key(arrival.src, fseq)] = id;
  ReceiverFlow recv;
  if (config_.reliable) {
    flow.rel = std::make_unique<ReliableSender>(rec.bytes, rel_config(id));
    recv.rel = std::make_unique<ReliableReceiver>(rec.bytes);
  }
  receivers_.emplace(id, std::move(recv));
  auto [it, inserted] = senders_.emplace(id, std::move(flow));
  assert(inserted);
  // A fresh flow gets its estimated fair share at once (Section 3.1).
  set_rate(it->second, start_rate_estimate(spec), engine_.now());

  // Announce the flow to the rack.
  broadcast(FlowTable::announce(PacketType::kFlowStart, spec, fseq), spec.src);

  schedule_emit(id);
  if (config_.recompute_interval > 0) arm(kEvRecomputeTick, config_.recompute_interval);
  start_fault_ticks();
  return id;
}

FlowId R2c2Sim::start_service_flow(NodeId src, NodeId dst, std::uint64_t bytes, double weight,
                                   int priority, std::int8_t alg) {
  // Service flows issue from kEvService handlers, which run on the global
  // lane — the same context the kEvStartFlow arrivals execute in — so every
  // rack-global mutation applies at once.
  assert(!shard_ctx() && "service flows must issue from a serial context");
  FlowArrival a;
  a.start = engine_.now();
  a.src = src;
  a.dst = dst;
  a.bytes = bytes;
  a.weight = weight;
  a.priority = static_cast<std::uint8_t>(priority);
  a.alg = alg;
  return start_flow(a);
}

void R2c2Sim::attach_service(ServiceClient* client) {
  service_ = client;
  engine_.handle(
      kEvService, [client](const EventDesc& ev) { client->on_service_event(ev.a, ev.b); },
      [client](const EventDesc& ev) { return client->service_event_valid(ev.a, ev.b); });
}

void R2c2Sim::schedule_service(TimeNs at, std::uint64_t a, std::uint64_t b) {
  assert(service_ != nullptr && "schedule_service requires an attached service layer");
  const int lane = engine_.global_lane();
  // Clamp to the global lane's clock: a completion-triggered issue applied
  // at a window barrier may target a time the lane already passed.
  const TimeNs t = std::max(at, engine_.lane_now(lane));
  engine_.schedule_on(lane, t, EventDesc{kEvService, a, b});
}

void R2c2Sim::notify_service_done(FlowId id, TimeNs at, bool aborted) {
  if (service_ == nullptr) return;
  if (aborted) {
    service_->on_flow_abort(id, at);
  } else {
    service_->on_flow_complete(id, at);
  }
}

std::uint64_t R2c2Sim::alloc_bcast_id() {
  // Lane tag in the low bits (global = 0, shard i = i + 1) keeps the id
  // spaces disjoint without cross-shard coordination; kLaneBits leaves 57
  // bits of counter, far beyond any run length.
  const std::uint64_t tag = shard_ctx() ? ctx_lane() + 1 : 0;
  return (lane_ids_[ctx_lane()].bcast_ctr++ << Engine::kLaneBits) | tag;
}

void R2c2Sim::broadcast(const BroadcastMsg& base, NodeId origin, bool recovery) {
  if (topo_.num_nodes() <= 1) {
    apply_global(base);
    return;
  }
  BroadcastMsg msg = base;
  const BroadcastTrees& trees = cur_trees();
  msg.tree = static_cast<std::uint8_t>(ctx_rng().uniform_int(static_cast<std::uint64_t>(
      trees.trees_per_source())));  // load-balance across trees (Section 3.2)
  const std::uint64_t bcast_id = alloc_bcast_id();
  c_broadcasts_sent_.add(1);
  obs::trace(ctx_trace(), engine_.now(), origin, obs::EventType::kBroadcastSend, bcast_id,
             static_cast<std::uint64_t>(msg.type));
  // A shard-launched broadcast (a finish announcement) registers its
  // pending entry at the barrier; copies already in flight cannot complete
  // it before then, since the rack has > 1 node and any copy needs at least
  // one link traversal (>= one lookahead window).
  commit(DeferredOp{.at = engine_.now(),
                    .kind = OpKind::kBcastInsert,
                    .a = bcast_id,
                    .flag = recovery,
                    .remaining = static_cast<std::uint32_t>(topo_.num_nodes() - 1),
                    .msg = msg});
  // Send one copy toward each child of the origin; copies fan out further
  // at every hop via the broadcast FIB.
  for (const LinkId plane_link : trees.child_links(origin, origin, msg.tree)) {
    const LinkId link = substrate_link(plane_link);
    SimPacket pkt;
    pkt.type = msg.type;
    pkt.src = msg.src;
    pkt.dst = topo_.link(link).to;
    pkt.wire_bytes = kBcastWireBytes;
    pkt.tree = msg.tree;
    pkt.bcast_src = origin;
    pkt.bcast_id = bcast_id;
    pkt.sent_at = engine_.now();
    net_.send_on_link(link, std::move(pkt));
  }
}

void R2c2Sim::on_broadcast_copy(NodeId at, SimPacket&& pkt) {
  // Forward to this node's children in the tree before consuming. The FIB
  // consulted is the *current* one: copies launched before a context
  // rebuild may straddle two tree generations, in which case some nodes
  // see the copy twice (harmless: the pending entry is erased at zero) or
  // never — the post-recovery rebroadcast and the lease protocol heal both.
  for (const LinkId plane_link : cur_trees().child_links(at, pkt.bcast_src, pkt.tree)) {
    const LinkId link = substrate_link(plane_link);
    SimPacket copy = pkt;
    copy.dst = topo_.link(link).to;
    net_.send_on_link(link, std::move(copy));
  }
  // Dedup against already-completed broadcasts happens when the op applies.
  commit(DeferredOp{
      .at = engine_.now(), .kind = OpKind::kBcastArrived, .a = pkt.bcast_id, .node = at});
}

std::size_t R2c2Sim::announce_live_flows(PacketType type, bool recovery) {
  // Sorted by flow id: broadcast() draws the tree from the RNG, so the
  // iteration order must be a function of state, not of the hash map's
  // insertion history (which a snapshot restore does not reproduce).
  std::vector<FlowId> live;
  live.reserve(senders_.size());
  for (const auto& [id, flow] : senders_) live.push_back(id);
  std::sort(live.begin(), live.end());
  for (const FlowId id : live) {
    const SenderFlow& flow = senders_.at(id);
    broadcast(FlowTable::announce(type, flow.spec, flow.fseq), flow.spec.src, recovery);
  }
  return live.size();
}

void R2c2Sim::apply_global(const BroadcastMsg& msg) {
  const std::uint32_t key = FlowTable::key(msg.src, msg.fseq);
  const auto flow_it = active_by_key_.find(key);
  switch (msg.type) {
    case PacketType::kFlowStart:
    case PacketType::kDemandUpdate: {
      // Demand updates double as lease refreshes and re-insert a missing
      // entry (a START lost to a failure resurrects on the next refresh).
      if (flow_it == active_by_key_.end()) break;  // already finished
      auto sender = senders_.find(flow_it->second);
      if (sender == senders_.end()) break;  // finish raced the re-announcement
      const bool present = global_view_.find(msg.src, msg.fseq).has_value();
      global_view_.upsert(msg.src, msg.fseq, sender->second.spec, engine_.now());
      if (!present) add_denom(sender->second.spec, +1.0);  // denom mirrors the view
      break;
    }
    case PacketType::kFlowFinish: {
      if (const auto spec = global_view_.find(msg.src, msg.fseq)) {
        add_denom(*spec, -1.0);
        global_view_.remove(msg.src, msg.fseq);
      }
      active_by_key_.erase(key);
      break;
    }
    default:
      break;
  }
  if (config_.recompute_interval == 0) recompute_rates();
}

void R2c2Sim::recompute_tick() {
  recompute_rates();
  if (!senders_.empty() || !global_view_.empty()) {
    arm(kEvRecomputeTick, config_.recompute_interval);
  }
}

void R2c2Sim::recompute_rates() {
  c_recomputations_.add(1);
  if (global_view_.empty()) return;
  obs::ScopedTimer span(&h_recompute_wall_, ctx_trace(), engine_.now(), 0,
                        obs::EventType::kRateRecompute,
                        static_cast<std::uint64_t>(global_view_.size()));
  // Rebuild the CSR problem only when a broadcast changed the view; the
  // solve itself reuses the scratch arena, so long simulations stop
  // churning the allocator (zero steady-state allocations).
  if (global_view_.version() != wf_built_version_) {
    global_view_.snapshot_into(wf_flows_);
    wf_problem_.build(cur_router(), wf_flows_, config_.alloc);
    wf_built_version_ = global_view_.version();
  }
  waterfill(wf_problem_, wf_scratch_, wf_alloc_);
  const TimeNs now = engine_.now();
  for (std::size_t i = 0; i < wf_flows_.size(); ++i) {
    auto it = senders_.find(wf_flows_[i].id);
    if (it != senders_.end()) set_rate(it->second, wf_alloc_.rate[i], now);
  }
}

void R2c2Sim::set_rate(SenderFlow& flow, double rate_bps, TimeNs now) {
  // Maintain the time-weighted rate integral for the Fig. 15/16 metric.
  flow.rate_integral += flow.rate_bps * static_cast<double>(now - flow.rate_since) / 1e9;
  flow.rate_since = now;
  const bool was_stalled = flow.rate_bps <= 0.0;
  flow.rate_bps = rate_bps;
  if (was_stalled && rate_bps > 0.0 && flow.sent_bytes < flow.total_bytes) {
    schedule_emit(flow.spec.id);
  }
}

void R2c2Sim::schedule_emit(FlowId id) {
  auto it = senders_.find(id);
  if (it == senders_.end()) return;
  SenderFlow& flow = it->second;
  if (flow.emit_scheduled || flow.rate_bps <= 0.0) return;
  flow.emit_scheduled = true;
  const TimeNs at = std::max(engine_.now(), flow.next_send);
  // Emission always runs on the sender's home lane, whichever context
  // (flow start, rate recompute, the lane itself) armed it.
  engine_.schedule_on(plan_.lane(flow.spec.src), at, EventDesc{kEvEmitPacket, id, 0});
}

void R2c2Sim::emit_packet(FlowId id) {
  auto it = senders_.find(id);
  if (it == senders_.end()) return;
  SenderFlow& flow = it->second;
  flow.emit_scheduled = false;
  if (flow.rate_bps <= 0.0) return;  // stalled; a rate update will resume

  // Decide what to send: the reliability layer hands out new data or an
  // expired retransmission; without it, the next unsent chunk.
  std::uint64_t offset = flow.sent_bytes;
  std::uint32_t payload = 0;
  if (flow.rel) {
    const auto seg = flow.rel->next_segment(engine_.now());
    if (!seg) {
      if (flow.rel->gave_up()) {
        // A segment exhausted its retransmission budget: surface the
        // verdict as an explicit per-flow abort instead of probing a dead
        // path forever (the old behavior was an uncatchable throw).
        abort_flow(id);
        return;
      }
      // Nothing to send now: either done (ACK handler finishes the flow)
      // or waiting for an RTO — wake up at the earliest deadline.
      const std::optional<TimeNs> deadline = flow.rel->next_deadline();
      if (deadline.has_value() && !flow.rel->fully_acked()) {
        flow.emit_scheduled = true;
        engine_.schedule_at(*deadline, EventDesc{kEvEmitPacket, id, 0});
      }
      return;
    }
    offset = seg->offset;
    payload = seg->length;
    if (seg->retransmit) c_retransmissions_.add(1);
  } else {
    const std::uint64_t remaining = flow.total_bytes - flow.sent_bytes;
    payload = static_cast<std::uint32_t>(std::min<std::uint64_t>(remaining, config_.mtu_payload));
  }

  SimPacket pkt;
  pkt.type = PacketType::kData;
  pkt.flow = id;
  pkt.src = flow.spec.src;
  pkt.dst = flow.spec.dst;
  pkt.seq = static_cast<std::uint32_t>(offset);
  pkt.payload = payload;
  pkt.wire_bytes = payload + static_cast<std::uint32_t>(DataHeader::kWireSize);
  pkt.sent_at = engine_.now();
  // Route decisions come from the current (possibly degraded) router, but
  // the encoded ports index the physical substrate: every degraded link
  // exists verbatim in the full topology.
  const RouteAlg alg = flow.spec.alg;
  if (alg == RouteAlg::kDor || alg == RouteAlg::kEcmp) {
    // Deterministic protocols: the path never changes within one
    // decision-plane epoch (and consumes no rng draws), so encode once.
    if (flow.route_epoch != router_epoch_) {
      Path& scratch = ctx_scratch();
      cur_router().pick_path_into(alg, flow.spec.src, flow.spec.dst, ctx_rng(), scratch, id);
      flow.cached_route = encode_path(topo_, scratch);
      flow.route_epoch = router_epoch_;
    }
    pkt.route = flow.cached_route;
  } else {
    // Randomized protocols honor the gray-detection penalties and, in
    // adaptive mode, the live per-link congestion marks: suspect or hot
    // links carry proportionally less traffic without leaving the topology.
    // The bias is empty while no link is demoted and no mark is set, in
    // which case the walk makes the exact unbiased draws (bit-identical
    // rng stream).
    Path& scratch = ctx_scratch();
    cur_router().pick_path_into(alg, flow.spec.src, flow.spec.dst, ctx_rng(), scratch, id,
                                spray_bias_);
    pkt.route = encode_path(topo_, scratch);
  }
  flow.sent_bytes = std::max(flow.sent_bytes, offset + payload);
  const std::uint32_t wire_bytes = pkt.wire_bytes;

  net_.forward(flow.spec.src, std::move(pkt));

  if (!flow.rel && flow.sent_bytes >= flow.total_bytes) {
    finish_sending(id);
    return;
  }
  // Token-bucket pacing: the next packet leaves one serialization time (at
  // the allocated rate) after this one.
  const double gap_ns = static_cast<double>(wire_bytes) * 8.0 * 1e9 / flow.rate_bps;
  flow.next_send = engine_.now() + static_cast<TimeNs>(gap_ns);
  schedule_emit(id);
}

void R2c2Sim::finish_sending(FlowId id) {
  auto it = senders_.find(id);
  assert(it != senders_.end());
  SenderFlow& flow = it->second;
  // On a shard lane the erase waits for the barrier, so a second trigger
  // in the same window (e.g. two final ACKs) must find the flow already
  // announced.
  if (flow.finish_announced) return;
  flow.finish_announced = true;
  // Close the rate integral.
  set_rate(flow, 0.0, engine_.now());
  const BroadcastMsg msg = FlowTable::announce(PacketType::kFlowFinish, flow.spec, flow.fseq);
  record(id).avg_assigned_rate_bps =
      flow.rate_integral /
      std::max(1e-9, static_cast<double>(engine_.now() - flow.started_at) / 1e9);
  // Reliable mode finishes only when fully acked, so the lingering
  // receiver state can be reaped here. (Unreliable mode finishes when the
  // last byte is *sent*; the receiver is still draining the pipe.)
  commit(DeferredOp{
      .at = engine_.now(), .kind = OpKind::kFlowDone, .a = id, .flag = flow.rel != nullptr});
  broadcast(msg, msg.src);
}

void R2c2Sim::abort_flow(FlowId id) {
  auto it = senders_.find(id);
  if (it == senders_.end()) return;
  SenderFlow& flow = it->second;
  if (flow.finish_announced) return;  // a finish/abort is already in flight
  flow.finish_announced = true;
  set_rate(flow, 0.0, engine_.now());
  obs::trace(ctx_trace(), engine_.now(), flow.spec.src, obs::EventType::kFlowAbort,
             static_cast<std::uint64_t>(id), flow.rel ? flow.rel->retransmissions() : 0);
  record(id).avg_assigned_rate_bps =
      flow.rate_integral /
      std::max(1e-9, static_cast<double>(engine_.now() - flow.started_at) / 1e9);
  // Announce the teardown like a finish so remote views retire the flow and
  // its rate share returns to the pool (the abort is local bookkeeping; on
  // the wire it is indistinguishable from a finish).
  const BroadcastMsg msg = FlowTable::announce(PacketType::kFlowFinish, flow.spec, flow.fseq);
  // The record verdict and unfinished_ are rack-global: on a shard lane the
  // receiver's lane may be completing the same flow this window.
  commit(DeferredOp{.at = engine_.now(), .kind = OpKind::kFlowAbort, .a = id});
  broadcast(msg, msg.src);
}

void R2c2Sim::deliver(NodeId at, SimPacket&& pkt) {
  switch (pkt.type) {
    case PacketType::kFlowStart:
    case PacketType::kFlowFinish:
    case PacketType::kDemandUpdate:
      on_broadcast_copy(at, std::move(pkt));
      return;
    case PacketType::kKeepalive:
      on_keepalive(std::move(pkt));
      return;
    case PacketType::kData:
    case PacketType::kAck:
      if (pkt.ridx < pkt.route.length()) {
        net_.forward(at, std::move(pkt));
      } else if (pkt.type == PacketType::kData) {
        on_data_at_receiver(std::move(pkt));
      } else {
        on_ack_at_sender(std::move(pkt));
      }
      return;
    default:
      return;
  }
}

void R2c2Sim::on_data_at_receiver(SimPacket&& pkt) {
  auto rit = receivers_.find(pkt.flow);
  if (rit == receivers_.end()) return;  // reaped; nothing to do
  ReceiverFlow& recv = rit->second;
  recv.reorder.on_packet(pkt.seq / config_.mtu_payload);
  FlowRecord& rec = record(pkt.flow);

  bool complete = false;
  if (recv.rel) {
    recv.rel->on_data(pkt.seq, pkt.payload);
    recv.received_bytes = recv.rel->received_bytes();
    complete = recv.rel->complete();
    // ACK policy: every N data packets, and always at completion (the
    // final ACK also lets the sender announce the finish).
    if (++recv.pkts_since_ack >= kAckEveryPkts || complete) {
      recv.pkts_since_ack = 0;
      send_ack(pkt.flow, recv, pkt.dst, pkt.src);
    }
  } else {
    recv.received_bytes += pkt.payload;
    complete = recv.received_bytes >= rec.bytes;
  }
  if (complete && !rec.finished()) {
    rec.completed = engine_.now();
    rec.max_reorder_pkts = recv.reorder.max_depth();
    c_flows_finished_.add(1);
    obs::trace(ctx_trace(), engine_.now(), pkt.dst, obs::EventType::kFlowFinish,
               static_cast<std::uint64_t>(pkt.flow), static_cast<std::uint64_t>(rec.fct()));
    // unfinished_ and receiver-map membership are rack-global. A reliable
    // receiver lingers (TIME_WAIT-style), re-acking stale retransmissions
    // in case the final ACK is lost; finish_sending reaps it once the
    // sender is fully acked. On a shard lane any receiver lingers until
    // the barrier — trailing same-window packets just update state that is
    // about to be reaped.
    commit(DeferredOp{.at = engine_.now(),
                      .kind = recv.rel ? OpKind::kUnfinishedDec : OpKind::kReceiverDone,
                      .a = pkt.flow});
  }
}

void R2c2Sim::send_ack(FlowId id, ReceiverFlow& recv, NodeId from, NodeId to) {
  SimPacket ack;
  ack.type = PacketType::kAck;
  ack.flow = id;
  ack.src = from;
  ack.dst = to;
  ack.ack_cum = recv.rel->cumulative();
  const auto sacks = recv.rel->sack_ranges(2);
  for (std::size_t i = 0; i < sacks.size(); ++i) {
    ack.sack[2 * i] = sacks[i].begin;
    ack.sack[2 * i + 1] = sacks[i].end;
  }
  // Header + 8 B cumulative + two 16 B SACK blocks.
  ack.wire_bytes = static_cast<std::uint32_t>(DataHeader::kWireSize) + 8 + 32;
  ack.sent_at = engine_.now();
  if (recv.ack_route_epoch != router_epoch_) {
    Path& scratch = ctx_scratch();
    cur_router().pick_path_into(RouteAlg::kRps, from, to, ctx_rng(), scratch, id, spray_bias_);
    recv.ack_route = encode_path(topo_, scratch);
    recv.ack_route_epoch = router_epoch_;
  }
  ack.route = recv.ack_route;
  net_.forward(from, std::move(ack));
}

void R2c2Sim::on_ack_at_sender(SimPacket&& pkt) {
  auto it = senders_.find(pkt.flow);
  if (it == senders_.end()) return;
  SenderFlow& flow = it->second;
  if (!flow.rel) return;
  ByteRange sacks[2];
  std::size_t n_sacks = 0;
  for (int i = 0; i < 2; ++i) {
    if (pkt.sack[2 * i + 1] > pkt.sack[2 * i]) {
      sacks[n_sacks++] = {pkt.sack[2 * i], pkt.sack[2 * i + 1]};
    }
  }
  flow.rel->on_ack(pkt.ack_cum, std::span<const ByteRange>(sacks, n_sacks), engine_.now());
  if (flow.rel->fully_acked()) {
    finish_sending(pkt.flow);
  }
}

// --- Failure detection & recovery ---------------------------------------

LinkId R2c2Sim::cable_of(LinkId link) const {
  const LinkId rev = topo_.reverse(link);
  return rev == kInvalidLink ? link : std::min(link, rev);
}

void R2c2Sim::start_fault_ticks() {
  const TimeNs now = engine_.now();
  if (config_.keepalive_interval > 0) {
    if (!armed_[kEvKeepaliveTick]) {
      // (Re)arming after a quiet period: treat every link as just heard
      // from, so the first deadline scan measures from now, not from the
      // silence while no probes were being sent.
      std::fill(last_heard_.begin(), last_heard_.end(), now);
      keepalive_tick();
    }
    arm(kEvDetectionTick, config_.failure_timeout);
  }
  if (config_.lease_interval > 0) {
    arm(kEvLeaseTick, config_.lease_interval);
    arm(kEvGcTick, config_.lease_ttl);
  }
  if (config_.congestion_aware) arm(kEvCongestionTick, kCongestionInterval);
}

void R2c2Sim::keepalive_tick() {
  if (!fault_ticks_needed()) return;
  // Probe every directed link. The hardware transmits regardless of what
  // the control plane currently believes: probes over a detected-down
  // cable are what eventually reveal its restoration.
  const TimeNs now = engine_.now();
  for (LinkId id = 0; id < static_cast<LinkId>(topo_.num_links()); ++id) {
    const Link& l = topo_.link(id);
    SimPacket pkt;
    pkt.type = PacketType::kKeepalive;
    pkt.src = l.from;
    pkt.dst = l.to;
    pkt.wire_bytes = kBcastWireBytes;
    pkt.sent_at = now;
    net_.send_on_link(id, std::move(pkt));
  }
  arm(kEvKeepaliveTick, config_.keepalive_interval);
}

void R2c2Sim::detection_tick() {
  if (!fault_ticks_needed()) return;
  const TimeNs now = engine_.now();
  for (LinkId id = 0; id < static_cast<LinkId>(topo_.num_links()); ++id) {
    if (cable_down_[id]) continue;
    if (now - last_heard_[id] > config_.failure_timeout) note_detection(id, true, now);
  }
  // The gray scan runs after the binary one, in the same serial phase:
  // links the deadline just declared dead are skipped (the rebuild handles
  // them); everything else accrues or sheds suspicion.
  if (config_.adaptive_detection) update_suspicion(now);
  arm(kEvDetectionTick, config_.keepalive_interval);
}

void R2c2Sim::congestion_tick() {
  // Runs on the global lane (scheduled from serial phases only), so the
  // whole-rack port scan inside sample_congestion never races a window.
  net_.sample_congestion(kCongestionEwmaAlpha, config_.ecn_threshold_bytes);
  update_spray_bias();
  // Keep sampling while there is traffic to steer or residual marks are
  // still decaying toward the exact-zero floor; a fully quiet rack stops
  // ticking so runs terminate.
  bool residual = false;
  for (const double c : net_.congestion()) {
    if (c != 0.0) {
      residual = true;
      break;
    }
  }
  if (!fault_ticks_needed() && !residual) return;
  arm(kEvCongestionTick, kCongestionInterval);
}

void R2c2Sim::on_keepalive(SimPacket&& pkt) {
  const LinkId link = topo_.find_link(pkt.src, pkt.dst);
  if (link == kInvalidLink) return;
  if (config_.adaptive_detection) {
    // Learned keepalive inter-arrival (the phi-accrual denominator). Single
    // writer: this runs on the lane owning the link's receiving node, the
    // same discipline as last_heard_; the suspicion scan reads it only in
    // serial phases.
    const auto gap = static_cast<double>(engine_.now() - last_heard_[link]);
    double& ewma = interarrival_ewma_[link];
    // Seed at no less than the probe cadence: the first observable gap is
    // keepalive transit latency (last_heard_ starts at "now"), and letting
    // the EWMA climb up from that tiny value makes phi = silence / mean_gap
    // read >threshold on every healthy link until it converges.
    const auto floor = static_cast<double>(config_.keepalive_interval);
    ewma = ewma <= 0.0 ? std::max(gap, floor) : (7.0 * ewma + gap) / 8.0;
  }
  last_heard_[link] = engine_.now();
  if (cable_down_[link]) {
    // The restore verdict touches rack-global detection state. cable_down_
    // only changes in serial contexts, so duplicate ops from probes on both
    // directions dedup when they apply.
    commit(DeferredOp{.at = engine_.now(), .kind = OpKind::kDetect, .a = link, .flag = false});
  }
}

void R2c2Sim::note_detection(LinkId directed, bool failure, TimeNs when) {
  if ((cable_down_[directed] != 0) == failure) return;  // already in this state
  const LinkId cable = cable_of(directed);
  const LinkId rev = topo_.reverse(directed);
  const char mark = failure ? 1 : 0;
  cable_down_[directed] = mark;
  if (rev != kInvalidLink) cable_down_[rev] = mark;
  if (failure) {
    ++cables_down_;
    c_failures_detected_.add(1);
  } else {
    --cables_down_;
    c_restores_detected_.add(1);
    // Restart the deadline clock on the revived cable, and give the gray
    // estimators a clean slate so the downtime is not read as loss.
    last_heard_[directed] = when;
    interarrival_ewma_[directed] = 0.0;
    deliv_ewma_[directed] = 1.0;
    if (rev != kInvalidLink) {
      last_heard_[rev] = when;
      interarrival_ewma_[rev] = 0.0;
      deliv_ewma_[rev] = 1.0;
    }
  }
  RecoveryRecord rec;
  rec.link = cable;
  rec.failure = failure;
  const auto& truth = failure ? injected_fail_at_ : injected_restore_at_;
  if (const auto it = truth.find(cable); it != truth.end()) rec.injected_at = it->second;
  rec.detected_at = when;
  open_recoveries_.push_back(recoveries_.size());
  recoveries_.push_back(rec);
  obs::trace(ctx_trace(), when, topo_.link(directed).to, obs::EventType::kFaultDetect,
             static_cast<std::uint64_t>(cable), failure ? 1 : 0);
  arm(kEvRebuildContext, kRebuildDelay);
}

void R2c2Sim::update_suspicion(TimeNs now) {
  // phi-accrual-flavored gray detection (serial phase only). Two signals
  // per directed link: the complement of the delivery-indicator EWMA
  // estimates the loss rate (smoothing loss streaks into a level), and the
  // phi score measures current silence in units of the learned keepalive
  // inter-arrival — so a link that darkened *recently* is demoted well
  // before the binary deadline declares it dead. Hysteresis (distinct
  // demote/clear thresholds) keeps borderline links from oscillating.
  bool changed = false;
  for (LinkId id = 0; id < static_cast<LinkId>(topo_.num_links()); ++id) {
    if (cable_down_[id]) {
      // Dead verdict outranks suspicion; the context rebuild owns the link.
      if (link_suspect_[id]) {
        link_suspect_[id] = 0;
        --suspects_;
        changed = true;
      }
      continue;
    }
    const TimeNs silence = now - last_heard_[id];
    // Delivery indicator with a half-interval phase margin: a keepalive
    // queued behind a data burst arrives late but arrives — only silence
    // past 1.5 probe intervals reads as a loss. Without the margin every
    // congestion-delayed probe spikes the loss EWMA and demotes links that
    // are merely busy, which defeats the demotion's own routing bias.
    const double heard = silence <= config_.keepalive_interval * 3 / 2 ? 1.0 : 0.0;
    double& deliv = deliv_ewma_[id];
    deliv = (1.0 - config_.suspect_ewma_alpha) * deliv + config_.suspect_ewma_alpha * heard;
    const double loss = 1.0 - deliv;
    const double mean_gap = interarrival_ewma_[id] > 0.0
                                ? interarrival_ewma_[id]
                                : static_cast<double>(config_.keepalive_interval);
    const double phi = static_cast<double>(silence) / std::max(mean_gap, 1.0);
    if (!link_suspect_[id]) {
      if (loss > config_.suspect_loss_threshold || phi > config_.suspect_phi) {
        link_suspect_[id] = 1;
        ++suspects_;
        c_links_demoted_.add(1);
        changed = true;
        obs::trace(ctx_trace(), now, topo_.link(id).to, obs::EventType::kLinkDemote,
                   static_cast<std::uint64_t>(id), 1);
      }
    } else if (loss < kSuspectClearThreshold && phi < config_.suspect_phi) {
      link_suspect_[id] = 0;
      --suspects_;
      c_links_cleared_.add(1);
      changed = true;
      obs::trace(ctx_trace(), now, topo_.link(id).to, obs::EventType::kLinkDemote,
                 static_cast<std::uint64_t>(id), 0);
    }
  }
  if (changed) {
    update_spray_bias();
    // Re-draw pinned routes (ACK paths, deterministic-protocol caches)
    // around — or back onto — the flipped links. Deliberately NOT a
    // context rebuild: no topology swap, no re-announcements, no
    // c_context_rebuilds_ bump.
    ++router_epoch_;
  }
}

void R2c2Sim::update_spray_bias() {
  compose_spray_bias(plane_.to_substrate, link_suspect_,
                     config_.congestion_aware ? net_.congestion() : std::span<const double>{},
                     kCongestionGain, spray_bias_);
}

R2c2Sim::Plane R2c2Sim::make_plane(std::vector<LinkId> down) const {
  Plane plane;
  plane.down = std::move(down);
  if (plane.down.empty()) return plane;
  plane.topo = std::make_unique<Topology>(make_degraded(topo_, plane.down));
  plane.router = std::make_unique<Router>(*plane.topo);
  plane.trees = std::make_unique<BroadcastTrees>(*plane.topo, config_.broadcast_trees);
  // Every plane link exists verbatim in the substrate.
  plane.to_substrate.resize(plane.topo->num_links());
  for (LinkId id = 0; id < static_cast<LinkId>(plane.topo->num_links()); ++id) {
    const Link& l = plane.topo->link(id);
    plane.to_substrate[id] = topo_.find_link(l.from, l.to);
  }
  return plane;
}

void R2c2Sim::install_plane(Plane next) {
  // A swap, not a move-assignment: the old plane leaves with `next` and is
  // destroyed whole, its trees and router before their topology.
  std::swap(plane_, next);
  update_spray_bias();
}

void R2c2Sim::rebuild_context() {
  obs::ScopedTimer span(&h_rebuild_wall_, ctx_trace(), engine_.now(), 0,
                        obs::EventType::kFaultRebuild, cables_down_);
  // Canonical cable set currently believed down (one direction per cable);
  // an empty set drops back to the pristine decision plane.
  std::vector<LinkId> down;
  for (LinkId id = 0; id < static_cast<LinkId>(topo_.num_links()); ++id) {
    if (cable_down_[id] && cable_of(id) == id) down.push_back(id);
  }
  Plane next;
  try {
    next = make_plane(std::move(down));
  } catch (const std::logic_error&) {
    // The believed-down set disconnects the rack — either a transient
    // (restores will shrink it) or a false-positive pileup. Keep the old
    // decision plane and retry after another detection window.
    arm(kEvRebuildContext, config_.failure_timeout);
    return;
  }
  // Suspected links that survived keep their demotion in the new plane.
  install_plane(std::move(next));
  // Invalidate every per-flow cached route (data and ACK): the epoch
  // comparison makes each flow re-derive lazily on its next packet.
  ++router_epoch_;
  c_context_rebuilds_.add(1);
  // The route universe changed: denominators and the waterfill problem are
  // stale in the old link-id space. Rebuild both against the new router.
  rebuild_link_denom();
  wf_built_version_ = ~0ULL;

  const TimeNs now = engine_.now();
  // Stamp only episodes not yet recovered: an episode stays open until its
  // re-announcements reconverge, and a later unrelated rebuild must not
  // overwrite (and inflate) the recovery latency of an earlier detection.
  for (const std::size_t idx : open_recoveries_) {
    if (recoveries_[idx].recovered_at < 0) recoveries_[idx].recovered_at = now;
  }

  // Section 3.2: "upon detecting a failure, nodes broadcast information
  // about all their ongoing flows" — re-announce every live flow over the
  // new trees so views heal even where the original copies were lost.
  c_flows_rebroadcast_.add(announce_live_flows(PacketType::kFlowStart, /*recovery=*/true));
  if (rebroadcast_outstanding_ == 0) {
    // Nothing to re-announce: reconvergence is immediate.
    for (const std::size_t idx : open_recoveries_) recoveries_[idx].reconverged_at = now;
    open_recoveries_.clear();
  }
  recompute_rates();
}

void R2c2Sim::rebuild_link_denom() {
  std::fill(link_denom_.begin(), link_denom_.end(), 0.0);
  global_view_.snapshot_into(gc_scratch_);
  for (const FlowSpec& spec : gc_scratch_) add_denom(spec, +1.0);
}

void R2c2Sim::lease_tick() {
  if (!fault_ticks_needed()) return;
  // Re-advertise every live flow; the demand-update broadcast doubles as a
  // lease refresh (and resurrects entries lost to failures).
  c_lease_refreshes_.add(announce_live_flows(PacketType::kDemandUpdate, /*recovery=*/false));
  if (!senders_.empty()) {
    obs::trace(ctx_trace(), engine_.now(), 0, obs::EventType::kLeaseRefresh, senders_.size(),
               0);
  }
  arm(kEvLeaseTick, config_.lease_interval);
}

void R2c2Sim::gc_tick() {
  if (!fault_ticks_needed() && global_view_.empty()) return;
  gc_scratch_.clear();
  global_view_.expire_stale(engine_.now(), config_.lease_ttl, kInvalidNode, &gc_scratch_);
  // Canonical processing order: add_denom clamps at zero, so the order in
  // which expirations are subtracted is observable in the float state.
  std::sort(gc_scratch_.begin(), gc_scratch_.end(),
            [](const FlowSpec& a, const FlowSpec& b) { return a.id < b.id; });
  for (const FlowSpec& spec : gc_scratch_) {
    add_denom(spec, -1.0);
    // A ghost whose sender is gone (lost FIN) also leaks its (src, fseq)
    // key; release it so the fseq can be reused. A *live* flow's entry can
    // only expire when refreshes were lost — keep its key, the next lease
    // tick resurrects the entry.
    if (!senders_.contains(spec.id)) {
      for (auto it = active_by_key_.begin(); it != active_by_key_.end(); ++it) {
        if (it->second == spec.id) {
          active_by_key_.erase(it);
          break;
        }
      }
    }
  }
  if (!gc_scratch_.empty()) {
    obs::trace(ctx_trace(), engine_.now(), 0, obs::EventType::kGhostExpired,
               gc_scratch_.size(), 0);
  }
  if (!gc_scratch_.empty() && config_.recompute_interval == 0) recompute_rates();
  if (fault_ticks_needed() || !global_view_.empty()) arm(kEvGcTick, config_.lease_ttl);
}

// --- Rack-global state ops ------------------------------------------------

// Runs at the window barrier (engine barrier_apply hook) with every worker
// parked. Lane logs are merged by (time, lane, position): each lane's log
// is already time-nondecreasing, so a stable k-way head comparison yields a
// total order that is a pure function of simulation state — the same for
// any worker count.
void R2c2Sim::apply_pending_ops() {
  bool any = false;
  for (const auto& log : ops_) {
    if (!log.empty()) {
      any = true;
      break;
    }
  }
  if (!any) return;
  ops_pos_.assign(ops_.size(), 0);
  for (;;) {
    int best = -1;
    TimeNs best_at = 0;
    for (std::size_t lane = 0; lane < ops_.size(); ++lane) {
      if (ops_pos_[lane] >= ops_[lane].size()) continue;
      const TimeNs at = ops_[lane][ops_pos_[lane]].at;
      if (best < 0 || at < best_at) {
        best = static_cast<int>(lane);
        best_at = at;
      }
    }
    if (best < 0) break;
    auto& lane_log = ops_[static_cast<std::size_t>(best)];
    apply_op(lane_log[ops_pos_[static_cast<std::size_t>(best)]++]);
  }
  for (auto& log : ops_) log.clear();  // keeps capacity: no steady-state allocation
}

void R2c2Sim::apply_op(const DeferredOp& op) {
  switch (op.kind) {
    case OpKind::kBcastInsert: {
      pending_.emplace(op.a, PendingBroadcast{op.msg, op.remaining, op.flag});
      if (op.flag) ++rebroadcast_outstanding_;
      break;
    }
    case OpKind::kBcastArrived: {
      auto it = pending_.find(op.a);
      if (it == pending_.end()) break;  // stale duplicate copy
      if (--it->second.remaining == 0) {
        const BroadcastMsg msg = it->second.msg;
        const bool recovery = it->second.recovery;
        pending_.erase(it);
        obs::trace(ctx_trace(), op.at, op.node, obs::EventType::kBroadcastDeliver, op.a,
                   static_cast<std::uint64_t>(msg.type));
        apply_global(msg);
        if (recovery && rebroadcast_outstanding_ > 0 && --rebroadcast_outstanding_ == 0) {
          // Every post-failure re-announcement has fully propagated: the
          // rack agrees on the traffic matrix again.
          for (const std::size_t idx : open_recoveries_) {
            recoveries_[idx].reconverged_at = op.at;
          }
          open_recoveries_.clear();
          obs::trace(ctx_trace(), op.at, op.node, obs::EventType::kFaultReconverge, 0, 0);
        }
      }
      break;
    }
    case OpKind::kFlowDone: {
      auto it = senders_.find(static_cast<FlowId>(op.a));
      if (it != senders_.end()) {
        if (op.flag) receivers_.erase(static_cast<FlowId>(op.a));
        senders_.erase(it);
      }
      break;
    }
    case OpKind::kReceiverDone:
      receivers_.erase(static_cast<FlowId>(op.a));
      --unfinished_;
      // A serial context (op.at is now) or a barrier (all workers parked,
      // the global lane clock pinned at or before op.at): either way a
      // completion-triggered schedule_service lands deterministically in
      // op order.
      notify_service_done(static_cast<FlowId>(op.a), op.at, /*aborted=*/false);
      break;
    case OpKind::kUnfinishedDec:
      --unfinished_;
      notify_service_done(static_cast<FlowId>(op.a), op.at, /*aborted=*/false);
      break;
    case OpKind::kDetect:
      note_detection(static_cast<LinkId>(op.a), op.flag, op.at);
      break;
    case OpKind::kFlowAbort: {
      const FlowId id = static_cast<FlowId>(op.a);
      if (senders_.erase(id) == 0) break;  // stale duplicate
      receivers_.erase(id);
      FlowRecord& rec = record(id);
      // Only a flow whose receiver never completed is a true abort; a
      // sender giving up after the data arrived (lost final ACKs) just
      // tears down. finished() is stable here (no window runs): if the
      // receiver completed in this same window, its kUnfinishedDec op
      // carries the decrement.
      if (!rec.finished()) {
        rec.aborted = true;
        rec.aborted_at = op.at;
        c_flow_aborts_.add(1);
        --unfinished_;
        notify_service_done(id, op.at, /*aborted=*/true);
      }
      break;
    }
  }
}

// --- Snapshot, resume and divergence detection ---------------------------

std::uint64_t R2c2Sim::config_fingerprint() const {
  snapshot::Digest d;
  // Topology identity: a snapshot restores only onto the same wire
  // substrate (ids, endpoints, capacities, latencies all match).
  d.mix(topo_.num_nodes());
  d.mix(topo_.num_links());
  for (LinkId id = 0; id < static_cast<LinkId>(topo_.num_links()); ++id) {
    const Link& l = topo_.link(id);
    d.mix(l.from);
    d.mix(l.to);
    d.mix_f64(l.bandwidth);
    d.mix_i64(l.latency);
  }
  d.mix_f64(config_.alloc.headroom);
  d.mix_i64(config_.recompute_interval);
  d.mix(static_cast<std::uint64_t>(config_.route_alg));
  d.mix(static_cast<std::uint64_t>(config_.broadcast_trees));
  d.mix(config_.net.data_buffer_bytes);
  d.mix_f64(config_.net.corruption_rate);
  d.mix(config_.mtu_payload);
  d.mix(config_.reliable ? 1 : 0);
  d.mix_i64(config_.rto);
  d.mix(config_.retransmit_dropped_control ? 1 : 0);
  d.mix(static_cast<std::uint64_t>(config_.max_retransmits));
  d.mix(config_.adaptive_rto ? 1 : 0);
  d.mix_i64(config_.min_rto);
  d.mix_i64(config_.max_rto);
  d.mix(config_.retransmit_jitter ? 1 : 0);
  d.mix(config_.adaptive_detection ? 1 : 0);
  d.mix_f64(config_.suspect_loss_threshold);
  d.mix_f64(config_.suspect_phi);
  d.mix_f64(config_.suspect_ewma_alpha);
  d.mix(config_.congestion_aware ? 1 : 0);
  d.mix(config_.ecn_threshold_bytes);
  d.mix(config_.faults.events.size());
  for (const FaultEvent& ev : config_.faults.events) {
    d.mix_i64(ev.at);
    d.mix(static_cast<std::uint64_t>(ev.kind));
    d.mix(ev.link);
    d.mix(ev.node);
    d.mix_f64(ev.gray.loss_prob);
    d.mix_f64(ev.gray.corrupt_prob);
    d.mix_i64(ev.gray.added_latency);
    d.mix_i64(ev.gray.jitter);
    d.mix_i64(ev.gray.flap_period);
    d.mix_i64(ev.gray.flap_down);
  }
  d.mix_i64(config_.keepalive_interval);
  d.mix_i64(config_.failure_timeout);
  d.mix_i64(config_.lease_interval);
  d.mix_i64(config_.lease_ttl);
  d.mix(config_.seed);
  // Shard count changes the trajectory (lane partitioning, id spaces, op
  // deferral); worker count deliberately does NOT enter the fingerprint —
  // snapshots restore across any worker count.
  d.mix(static_cast<std::uint64_t>(config_.engine_shards));
  // The registered workload: pending start events archive as indices into
  // this list, so it must match element for element.
  d.mix(arrivals_.size());
  for (const FlowArrival& f : arrivals_) {
    d.mix_i64(f.start);
    d.mix(f.src);
    d.mix(f.dst);
    d.mix(f.bytes);
    d.mix_f64(f.weight);
    d.mix(f.priority);
    d.mix(static_cast<std::uint64_t>(static_cast<std::int64_t>(f.alg)));
  }
  // An attached service layer is part of the experiment: its dynamically
  // issued flows bypass arrivals_, so its configuration fingerprints here
  // instead (the flows themselves are derivable from it).
  if (service_ != nullptr) {
    d.mix(0x53525643ULL);  // section tag, so "no service" never collides
    d.mix(service_->service_fingerprint());
  }
  return d.value();
}

template <class Self, class V>
void R2c2Sim::persist(Self& s, V& v) {
  v.section("sim.core", [&] {
    v.fixed(s.lane_ids_, [&v](auto& lane) {
      Rng::persist(lane.rng, v);
      v.u64(lane.bcast_ctr);
    });
    v.i64(s.router_epoch_);
    v.u64(s.unfinished_);
    v.i64(s.fault_horizon_);
    for (const EventKind kind : kTicks) v.flag(s.armed_[kind]);
    v.u32(s.rebroadcast_outstanding_);
    v.u64(s.cables_down_);
    v.fixed(s.next_fseq_, [&v](auto& x) { v.u16(x); });
    v.fixed(s.link_denom_, [&v](auto& x) { v.f64(x); });
    v.fixed(s.last_heard_, [&v](auto& x) { v.i64(x); });
    v.fixed(s.cable_down_, [&v](auto& x) { v.flag(x); });
    v.seq(s.plane_.down, [&](auto& link) {
      v.u32(link);
      v.expect(link < s.topo_.num_links(), "archived down-link out of range");
    });
    v.u64(s.suspects_);
    v.each(s.interarrival_ewma_, [&v](auto& x) { v.f64(x); });
    v.each(s.deliv_ewma_, [&v](auto& x) { v.f64(x); });
    v.each(s.link_suspect_, [&v](auto& x) { v.flag(x); });
  });

  v.section("sim.counters", [&] {
    for (obs::Counter* c :
         {&s.c_recomputations_, &s.c_retransmissions_, &s.c_failures_detected_,
          &s.c_restores_detected_, &s.c_context_rebuilds_, &s.c_flows_rebroadcast_,
          &s.c_lease_refreshes_, &s.c_flows_started_, &s.c_flows_finished_,
          &s.c_broadcasts_sent_, &s.c_flow_aborts_, &s.c_links_demoted_, &s.c_links_cleared_}) {
      obs::Counter::persist(*c, v);
    }
  });

  v.section("sim.flows", [&] {
    v.map(s.senders_, [&](auto& id, auto& f) {
      v.u32(id);
      FlowSpec::persist(f.spec, v);
      v.u8(f.fseq);
      v.u64(f.total_bytes);
      v.u64(f.sent_bytes);
      v.f64(f.rate_bps);
      v.flag(f.emit_scheduled);
      v.i64(f.next_send);
      v.i64(f.rate_since);
      v.f64(f.rate_integral);
      v.i64(f.started_at);
      v.ptr(
          f.rel, [&] { return std::make_unique<ReliableSender>(f.total_bytes, s.rel_config(id)); },
          [&v](auto& rel) { ReliableSender::persist(rel, v); });
      v.flag(f.finish_announced);
      RouteCode::persist(f.cached_route, v);
      v.i64(f.route_epoch);
    });
    v.map(s.receivers_, [&v](auto& id, auto& f) {
      v.u32(id);
      v.u64(f.received_bytes);
      ReorderTracker::persist(f.reorder, v);
      v.ptr(
          f.rel, [] { return std::make_unique<ReliableReceiver>(0); },
          [&v](auto& rel) { ReliableReceiver::persist(rel, v); });
      v.i64(f.pkts_since_ack);
      RouteCode::persist(f.ack_route, v);
      v.i64(f.ack_route_epoch);
    });
    v.map(s.active_by_key_, [&v](auto& key, auto& id) {
      v.u32(key);
      v.u32(id);
    });
    FlowId next_id = 1;
    v.seq(s.records_, [&](auto& rec) {
      FlowRecord::persist(rec, v);
      v.expect(rec.id == next_id++, "archived flow records are not numbered 1..N in order");
    });
    const auto& recoveries =
        v.seq(s.recoveries_, [&v](auto& rec) { RecoveryRecord::persist(rec, v); });
    v.seq(s.open_recoveries_, [&](auto& idx) {
      v.u64(idx);
      v.expect(idx < recoveries.size(), "open recovery index out of range");
    });
    for (auto* injected : {&s.injected_fail_at_, &s.injected_restore_at_}) {
      v.map(*injected, [&v](auto& cable, auto& at) {
        v.u32(cable);
        v.i64(at);
      });
    }
  });

  v.section("sim.pending", [&] {
    v.map(s.pending_, [&v](auto& id, auto& p) {
      v.u64(id);
      BroadcastMsg::persist(p.msg, v);
      v.u32(p.remaining);
      v.flag(p.recovery);
    });
  });

  if (s.service_ != nullptr) s.service_->persist(v);
  FlowTable::persist(s.global_view_, v, "sim.view");
  Network::persist(s.net_, v);
  if (s.injector_) FaultInjector::persist(*s.injector_, v);
  // The event queue last. An event that owns a parked packet archives the
  // packet in place of its slot, so every parked packet is archived once,
  // with its one event.
  auto parked = Network::parked_walk(s.net_, v);
  std::size_t packets = 0;
  Engine::persist(s.engine_, v, [&](auto& desc, int lane) {
    if (desc.kind == kEvDeliver || desc.kind == kEvCtrlRetransmit) {
      parked(desc.a, lane);
      ++packets;
    } else {
      v.u64(desc.a);
    }
    v.u64(desc.b);
  });
  if constexpr (!V::kLoading) {
    v.expect(packets == s.net_.parked_packets(), "a parked packet belongs to no pending event");
  }
}

std::uint64_t R2c2Sim::state_digest() const {
  snapshot::Digest d;
  snapshot::DigestVisitor v(d);
  persist(*this, v);
  return d.value();
}

void R2c2Sim::save(snapshot::ArchiveWriter& w) const {
  // Quiescence invariant: save() runs between run_until calls, after the
  // final barrier, so every deferred op has been applied.
  assert(std::all_of(ops_.begin(), ops_.end(), [](const auto& log) { return log.empty(); }));
  w.begin_section("sim.meta");
  w.u64(config_fingerprint());
  w.end_section();
  snapshot::SaveVisitor v(w);
  persist(*this, v);
}

void R2c2Sim::load(snapshot::ArchiveReader& r) {
  if (engine_.now() != 0 || !records_.empty()) {
    throw snapshot::SnapshotError("load() requires a freshly constructed sim that has not run");
  }
  r.open_section("sim.meta");
  const std::uint64_t fp = r.u64();
  r.close_section();
  if (fp != config_fingerprint()) {
    throw snapshot::SnapshotError(
        "snapshot was taken under a different topology/config/workload");
  }
  if (!injector_ && r.has_section("fault_injector")) {
    throw snapshot::SnapshotError("archive carries fault state but no script is configured");
  }
  if (service_ == nullptr && r.has_section("service.core")) {
    throw snapshot::SnapshotError("archive carries service state but no service layer attached");
  }

  // Parse every section, the event queue included; nothing is
  // committed until the decision plane has been rebuilt as well.
  snapshot::LoadVisitor v(r);
  persist(*this, v);
  // The decision plane in force at save time, rebuilt from its archived
  // down set (construction is deterministic, so identical inputs yield the
  // identical Router and BroadcastTrees).
  Plane plane;
  try {
    plane = make_plane(v.parsed(plane_.down));
  } catch (const std::logic_error& e) {
    throw snapshot::SnapshotError(
        std::string("archived down-set is not a valid decision plane: ") + e.what());
  }
  v.commit();
  // The spray bias derives from the restored plane, suspect flags and marks.
  install_plane(std::move(plane));
  // Caches: force a waterfill-problem rebuild on the next recomputation.
  wf_built_version_ = ~0ULL;
}

}  // namespace r2c2::sim
