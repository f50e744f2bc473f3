#include "r2c2/stack.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <stdexcept>

#include "obs/scope.h"
#include "snapshot/persist.h"

namespace r2c2 {

R2c2Stack::R2c2Stack(NodeId self, const RackContext& ctx, Callbacks callbacks, std::uint64_t seed)
    : self_(self), ctx_(ctx), cb_(std::move(callbacks)), rng_(seed ^ (0xace1ULL + self)) {
  if (!ctx_.topo || !ctx_.router || !ctx_.trees) {
    throw std::invalid_argument("RackContext must reference topology, router and trees");
  }
  bind_obs();
}

void R2c2Stack::bind_obs() {
  trace_ = ctx_.trace;
  if (ctx_.metrics != nullptr) {
    h_recompute_ = &ctx_.metrics->histogram("stack.recompute_wall_ns");
    h_tick_ = &ctx_.metrics->histogram("stack.tick_wall_ns");
    h_ga_ = &ctx_.metrics->histogram("stack.ga_wall_ns");
    c_route_picks_ = &ctx_.metrics->counter("stack.route_picks");
    c_flows_opened_ = &ctx_.metrics->counter("stack.flows_opened");
    c_flows_closed_ = &ctx_.metrics->counter("stack.flows_closed");
  } else {
    h_recompute_ = h_tick_ = h_ga_ = nullptr;
    c_route_picks_ = c_flows_opened_ = c_flows_closed_ = nullptr;
  }
}

FlowId R2c2Stack::open_flow(NodeId dst, const FlowOptions& options) {
  if (dst == self_) throw std::invalid_argument("flow to self");
  if (local_.size() >= 256) throw std::length_error("more than 256 concurrent local flows");
  // Pick a free wire-level fseq.
  std::uint8_t fseq = 0;
  for (;;) {
    fseq = static_cast<std::uint8_t>(next_fseq_++ & 0xff);
    const bool used = std::any_of(local_.begin(), local_.end(),
                                  [&](const auto& kv) { return kv.second.fseq == fseq; });
    if (!used) break;
  }
  // Flow ids are (node << 16) | fseq — consistent with what remote nodes
  // synthesize from broadcasts. Like file descriptors, an id can be reused
  // after the flow closes; it is unique among this node's active flows.
  const FlowId id = (static_cast<FlowId>(self_) << 16) | fseq;

  LocalFlow flow{.spec = {},
                 .fseq = fseq,
                 .rate = 0.0,
                 .demand = DemandEstimator(ctx_.demand_period),
                 .demand_limited = false};
  flow.spec.id = id;
  flow.spec.src = self_;
  flow.spec.dst = dst;
  flow.spec.alg = options.alg;
  flow.spec.weight = options.weight;
  flow.spec.priority = options.priority;
  flow.spec.demand = kUnlimitedDemand;

  // The sender's own view learns the flow immediately; everyone else via
  // broadcast.
  view_.upsert(self_, fseq, flow.spec, now_);
  broadcast_msg(FlowTable::announce(PacketType::kFlowStart, flow.spec, fseq));
  local_.emplace(id, std::move(flow));
  if (c_flows_opened_ != nullptr) c_flows_opened_->add(1);
  obs::trace(trace_, now_, self_, obs::EventType::kFlowStart, static_cast<std::uint64_t>(id), dst);

  // Give the new flow a rate right away (Section 3.1): recompute locally.
  recompute();
  return id;
}

void R2c2Stack::close_flow(FlowId flow) {
  auto it = local_.find(flow);
  if (it == local_.end()) throw std::out_of_range("close_flow: unknown flow");
  const LocalFlow lf = it->second;
  local_.erase(it);
  view_.remove(self_, lf.fseq);
  if (cb_.set_rate) cb_.set_rate(flow, 0.0);
  broadcast_msg(FlowTable::announce(PacketType::kFlowFinish, lf.spec, lf.fseq));
  if (c_flows_closed_ != nullptr) c_flows_closed_->add(1);
  obs::trace(trace_, now_, self_, obs::EventType::kFlowFinish, static_cast<std::uint64_t>(flow), 0);
}

void R2c2Stack::note_backlog(FlowId flow, std::uint64_t queued_bytes,
                             std::optional<Bps> achieved_rate) {
  auto it = local_.find(flow);
  if (it == local_.end()) return;
  LocalFlow& lf = it->second;
  const Bps estimate = lf.demand.on_period(achieved_rate.value_or(lf.rate), queued_bytes);
  // Broadcast a demand update when the flow becomes host-limited (its
  // demand drops below the current allocation) or stops being so.
  const bool limited = estimate < lf.rate * 0.95;
  const bool meaningful_change =
      limited != lf.demand_limited ||
      (std::isfinite(lf.spec.demand) && std::abs(estimate - lf.spec.demand) > 0.1 * lf.spec.demand);
  if (!meaningful_change) return;
  lf.demand_limited = limited;
  lf.spec.demand = limited ? estimate : kUnlimitedDemand;
  view_.upsert(self_, lf.fseq, lf.spec, now_);
  broadcast_msg(FlowTable::announce(PacketType::kDemandUpdate, lf.spec, lf.fseq));
}

RouteCode R2c2Stack::pick_route(FlowId flow) {
  auto it = local_.find(flow);
  if (it == local_.end()) throw std::out_of_range("pick_route: unknown flow");
  if (c_route_picks_ != nullptr) c_route_picks_->add(1);
  const FlowSpec& spec = it->second.spec;
  const Path path = ctx_.router->pick_path(spec.alg, spec.src, spec.dst, rng_, spec.id);
  return encode_path(*ctx_.topo, path);
}

Bps R2c2Stack::rate_of(FlowId flow) const {
  auto it = local_.find(flow);
  return it == local_.end() ? 0.0 : it->second.rate;
}

void R2c2Stack::on_control_packet(std::span<const std::uint8_t> bytes) {
  if (bytes.empty()) return;
  const auto type = static_cast<PacketType>(bytes[0]);
  if (type == PacketType::kRouteUpdate) {
    const auto pkt = RouteUpdatePacket::parse(bytes);
    if (!pkt) return;  // corrupted: drop (sender-side recovery, Section 3.2)
    fan_out(pkt->origin, pkt->tree, bytes);
    apply_route_update(*pkt);
    return;
  }
  const auto msg = BroadcastMsg::parse(bytes);
  if (!msg) return;  // corrupted: drop
  fan_out(msg->src, msg->tree, bytes);
  if (msg->src == self_) return;  // our own event echoed back
  view_.apply(*msg, now_);
}

void R2c2Stack::apply_route_update(const RouteUpdatePacket& pkt) {
  view_.apply(pkt);
  // Adopt new assignments for our own flows.
  for (const RouteUpdateEntry& e : pkt.entries) {
    if (e.flow_src != self_) continue;
    for (auto& [id, lf] : local_) {
      if (lf.fseq == e.fseq) lf.spec.alg = e.rp;
    }
  }
}

void R2c2Stack::fan_out(NodeId tree_src, std::uint8_t tree, std::span<const std::uint8_t> bytes) {
  if (!cb_.send_control) return;
  const int t = tree % std::max(1, ctx_.trees->trees_per_source());
  for (const NodeId child : ctx_.trees->children(self_, tree_src, t)) {
    cb_.send_control(child, std::vector<std::uint8_t>(bytes.begin(), bytes.end()));
  }
}

void R2c2Stack::broadcast_msg(BroadcastMsg msg) {
  msg.tree = static_cast<std::uint8_t>(
      rng_.uniform_int(static_cast<std::uint64_t>(ctx_.trees->trees_per_source())));
  std::vector<std::uint8_t> bytes(BroadcastMsg::kWireSize);
  msg.serialize(bytes);
  ++broadcasts_sent_;
  obs::trace(trace_, now_, self_, obs::EventType::kBroadcastSend, broadcasts_sent_,
             static_cast<std::uint64_t>(msg.type));
  fan_out(self_, msg.tree, bytes);
}

void R2c2Stack::recompute() {
  if (local_.empty()) return;
  obs::ScopedTimer span(h_recompute_, trace_, now_, self_, obs::EventType::kRateRecompute,
                        static_cast<std::uint64_t>(view_.size()));
  if (view_.version() != wf_built_version_) {
    view_.snapshot_into(wf_flows_);
    wf_problem_.build(*ctx_.router, wf_flows_, ctx_.alloc);
    wf_built_version_ = view_.version();
  }
  waterfill(wf_problem_, wf_scratch_, wf_alloc_);
  apply_rates(wf_flows_, wf_alloc_.rate);
}

void R2c2Stack::apply_rates(std::span<const FlowSpec> flows, std::span<const Bps> rates) {
  for (std::size_t i = 0; i < flows.size(); ++i) {
    if (flows[i].src != self_) continue;
    auto it = local_.find(flows[i].id);
    if (it == local_.end()) continue;
    it->second.rate = rates[i];
    if (cb_.set_rate) cb_.set_rate(flows[i].id, rates[i]);
  }
}

void R2c2Stack::tick(TimeNs now) {
  now_ = std::max(now_, now);
  obs::ScopedTimer span(h_tick_);
  const TimeNs interval = ctx_.lease_interval;
  if (interval <= 0) return;
  const TimeNs ttl = ctx_.lease_ttl > 0 ? ctx_.lease_ttl : 4 * interval;
  if (now_ - last_refresh_ >= interval) {
    last_refresh_ = now_;
    // Re-advertise every local flow. The demand-update message is reused
    // verbatim: receivers treat it as INSERT-or-refresh, so a start event
    // lost to corruption or a failed link heals on the next refresh.
    for (auto& [id, lf] : local_) {
      view_.upsert(self_, lf.fseq, lf.spec, now_);
      broadcast_msg(FlowTable::announce(PacketType::kDemandUpdate, lf.spec, lf.fseq));
      ++lease_refreshes_;
    }
    if (!local_.empty()) {
      obs::trace(trace_, now_, self_, obs::EventType::kLeaseRefresh, local_.size(), 0);
    }
  }
  if (now_ - last_gc_ >= interval) {
    last_gc_ = now_;
    // Collect remote entries whose lease expired (e.g. a finish broadcast
    // that never arrived). Our own flows are authoritative locally and
    // immune — close_flow is what removes them. Scanned every refresh
    // interval (not every ttl) so a ghost is collected within one interval
    // of its lease running out instead of waiting for the next ttl tick.
    view_.expire_stale(now_, ttl, self_);
  }
}

void R2c2Stack::update_context(const RackContext& ctx) {
  if (!ctx.topo || !ctx.router || !ctx.trees) {
    throw std::invalid_argument("RackContext must reference topology, router and trees");
  }
  ctx_ = ctx;
  // The cached problem baked in the old topology's link capacities and
  // routes: force a rebuild at the next recompute().
  wf_built_version_ = ~0ULL;
  bind_obs();
  obs::trace(trace_, now_, self_, obs::EventType::kFaultRebuild, 0, 0);
}

int R2c2Stack::rebroadcast_local_flows() {
  int announced = 0;
  for (const auto& [id, lf] : local_) {
    broadcast_msg(FlowTable::announce(PacketType::kFlowStart, lf.spec, lf.fseq));
    ++announced;
  }
  return announced;
}

int R2c2Stack::run_route_selection(const SelectionConfig& config) {
  const std::vector<FlowSpec> flows = view_.snapshot();
  if (flows.empty()) return 0;
  obs::ScopedTimer span(h_ga_, trace_, now_, self_, obs::EventType::kGaEpoch,
                        static_cast<std::uint64_t>(flows.size()));
  // Route the stack's registry into the selector so its memo/evaluator
  // counters ("ga.memo.*", "ga.eval.*") land next to the stack metrics;
  // an explicitly configured sink wins.
  SelectionConfig cfg = config;
  if (cfg.metrics == nullptr) cfg.metrics = ctx_.metrics;
  const SelectionResult result = select_routes_ga(*ctx_.router, flows, cfg);

  RouteUpdatePacket pkt;
  pkt.origin = self_;
  pkt.tree = 0;
  int changed = 0;
  for (std::size_t i = 0; i < flows.size(); ++i) {
    if (result.assignment[i] == flows[i].alg) continue;
    ++changed;
    RouteUpdateEntry e;
    e.flow_src = flows[i].src;
    // Both local and broadcast-learned flow ids carry the fseq in the low
    // byte (see open_flow and FlowTable::apply).
    e.fseq = static_cast<std::uint8_t>(flows[i].id & 0xff);
    e.rp = result.assignment[i];
    pkt.entries.push_back(e);
  }
  if (changed == 0) return 0;
  // Apply locally, then broadcast.
  apply_route_update(pkt);
  const std::vector<std::uint8_t> bytes = pkt.serialize();
  ++broadcasts_sent_;
  fan_out(self_, 0, bytes);
  return changed;
}

// --- Snapshot support ---

template <class Self, class V>
void R2c2Stack::persist(Self& s, V& v, std::string_view tag) {
  FlowTable::persist(s.view_, v, std::string(tag) + ".view");
  v.section(tag, [&] {
    Rng::persist(s.rng_, v);
    v.u16(s.next_fseq_);
    v.u64(s.broadcasts_sent_);
    v.i64(s.now_);
    v.i64(s.last_refresh_);
    v.i64(s.last_gc_);
    v.u64(s.lease_refreshes_);
    v.map(
        s.local_,
        [&v](auto& id, auto& lf) {
          v.u32(id);
          FlowSpec::persist(lf.spec, v);
          v.u8(lf.fseq);
          v.f64(lf.rate);
          DemandEstimator::persist(lf.demand, v);
          v.flag(lf.demand_limited);
        },
        [&s] {
          return LocalFlow{.spec = {},
                           .fseq = 0,
                           .rate = 0.0,
                           .demand = DemandEstimator(s.ctx_.demand_period),
                           .demand_limited = false};
        });
  });
  if constexpr (V::kLoading) {
    // The CSR problem/scratch cache the view at some version; force a
    // rebuild on the next recompute().
    v.on_commit([&s] { s.wf_built_version_ = ~0ULL; });
  }
}

void R2c2Stack::save(snapshot::ArchiveWriter& w, const std::string& tag) const {
  snapshot::SaveVisitor v(w);
  persist(*this, v, tag);
}

void R2c2Stack::load(snapshot::ArchiveReader& r, const std::string& tag) {
  snapshot::LoadVisitor v(r);
  persist(*this, v, tag);
  v.commit();
}

void R2c2Stack::mix_digest(snapshot::Digest& d) const {
  snapshot::DigestVisitor v(d);
  persist(*this, v, "");
}

}  // namespace r2c2
