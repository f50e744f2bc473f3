#include "service/service.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>

#include "snapshot/digest.h"
#include "snapshot/persist.h"

namespace r2c2::service {


// --- Zipfian sampler -----------------------------------------------------

void ServiceLayer::Zipf::init(std::uint64_t n_, double theta_) {
  n = std::max<std::uint64_t>(n_, 1);
  theta = theta_;
  zetan = 0.0;
  for (std::uint64_t i = 1; i <= n; ++i) zetan += 1.0 / std::pow(static_cast<double>(i), theta);
  zeta2 = n >= 2 ? 1.0 + std::pow(0.5, theta) : zetan;
  alpha = 1.0 / (1.0 - theta);
  eta = n >= 2 ? (1.0 - std::pow(2.0 / static_cast<double>(n), 1.0 - theta)) /
                     (1.0 - zeta2 / zetan)
               : 1.0;
}

std::uint64_t ServiceLayer::Zipf::draw(Rng& rng) const {
  const double u = rng.uniform();
  const double uz = u * zetan;
  if (uz < 1.0 || n < 2) return 0;
  if (uz < zeta2) return 1;
  const auto k =
      static_cast<std::uint64_t>(static_cast<double>(n) * std::pow(eta * u - eta + 1.0, alpha));
  return std::min(k, n - 1);
}

// --- Construction & arrival processes ------------------------------------

ServiceLayer::ServiceLayer(sim::R2c2Sim& sim, ServiceConfig config)
    : sim_(sim), config_(std::move(config)) {
  if (config_.tenants.empty()) throw std::invalid_argument("service config has no tenants");
  state_.resize(config_.tenants.size());
  for (std::size_t i = 0; i < config_.tenants.size(); ++i) {
    const TenantConfig& cfg = config_.tenants[i];
    if (cfg.clients.empty() || cfg.servers.empty()) {
      throw std::invalid_argument("tenant '" + cfg.name + "' needs clients and servers");
    }
    if (cfg.archetype == Archetype::kStorage &&
        (cfg.zipf_theta < 0.0 || cfg.zipf_theta >= 1.0 || cfg.shifted_zipf_theta < 0.0 ||
         cfg.shifted_zipf_theta >= 1.0)) {
      throw std::invalid_argument("tenant '" + cfg.name + "' zipf_theta must be in [0, 1)");
    }
    if (cfg.mode == ArrivalMode::kClosedLoop && cfg.outstanding < 1) {
      throw std::invalid_argument("tenant '" + cfg.name + "' needs outstanding >= 1");
    }
    if (cfg.mode == ArrivalMode::kOpenLoop && cfg.mean_interarrival <= 0) {
      throw std::invalid_argument("tenant '" + cfg.name + "' needs mean_interarrival > 0");
    }
    // Same stream-derivation idiom as the sim's shard RNGs: the trajectory
    // is a function of (seed, tenant index) alone.
    state_[i].rng.reseed(config_.seed ^ (0x9e3779b97f4a7c15ULL * (i + 1)));
    init_zipf(i);
  }
  sim_.attach_service(this);
}

void ServiceLayer::init_zipf(std::size_t tenant) {
  const TenantConfig& cfg = config_.tenants[tenant];
  if (cfg.archetype != Archetype::kStorage) return;
  state_[tenant].zipf.init(cfg.num_keys,
                           state_[tenant].shifted ? cfg.shifted_zipf_theta : cfg.zipf_theta);
}

int ServiceLayer::effective_fanout(const TenantConfig& cfg) const {
  const int pool = static_cast<int>(cfg.servers.size());
  return std::clamp(cfg.fanout, 1, std::min(pool, 255));
}

void ServiceLayer::start() {
  if (started_) throw std::logic_error("ServiceLayer::start called twice");
  started_ = true;
  for (std::size_t i = 0; i < config_.tenants.size(); ++i) {
    const TenantConfig& cfg = config_.tenants[i];
    if (cfg.mode == ArrivalMode::kClosedLoop) {
      const std::uint64_t window =
          std::min<std::uint64_t>(static_cast<std::uint64_t>(cfg.outstanding), cfg.max_requests);
      for (std::uint64_t k = 0; k < window; ++k) sim_.schedule_service(0, kOpIssue, i);
    } else {
      sim_.schedule_service(0, kOpOpenTick, i);
    }
    if (cfg.archetype == Archetype::kStorage && cfg.shift_at > 0) {
      sim_.schedule_service(cfg.shift_at, kOpShift, i);
    }
  }
}

// --- Request lifecycle ----------------------------------------------------

FlowId ServiceLayer::start_flow(const TenantConfig& cfg, NodeId src, NodeId dst,
                                std::uint64_t bytes) {
  return sim_.start_service_flow(src, dst, bytes, cfg.weight, cfg.priority, cfg.alg);
}

void ServiceLayer::issue_request(std::uint32_t tenant, TimeNs now) {
  const TenantConfig& cfg = config_.tenants[tenant];
  TenantState& t = state_[tenant];
  if (t.issued >= cfg.max_requests) return;
  const std::uint64_t seq = t.issued++;
  ++t.outstanding;
  const std::uint64_t req_id = next_req_id_++;

  Request req;
  req.tenant = tenant;
  req.client = cfg.clients[seq % cfg.clients.size()];
  req.issued = now;
  req.seq = seq;

  switch (cfg.archetype) {
    case Archetype::kRpc: {
      req.server = cfg.servers[t.rng.uniform_int(static_cast<std::uint64_t>(cfg.servers.size()))];
      req.response_bytes = cfg.response_bytes;
      req.total_bytes = cfg.request_bytes + cfg.response_bytes;
      req.remaining = 1;
      const FlowId f = start_flow(cfg, req.client, req.server, cfg.request_bytes);
      flow_to_req_[f] = FlowRef{req_id, 0, 0};
      break;
    }
    case Archetype::kIncast: {
      const int k = effective_fanout(cfg);
      req.remaining = static_cast<std::uint32_t>(k);
      req.total_bytes =
          static_cast<std::uint64_t>(k) * (cfg.query_bytes + cfg.leaf_response_bytes);
      for (int j = 0; j < k; ++j) {
        // Leaf rotation by request seq instead of an RNG draw: every leaf
        // set is derivable from (seq, j), so timed-out requests need no
        // archived member list.
        const NodeId leaf =
            cfg.servers[(req.seq + static_cast<std::uint64_t>(j)) % cfg.servers.size()];
        const FlowId f = start_flow(cfg, req.client, leaf, cfg.query_bytes);
        flow_to_req_[f] = FlowRef{req_id, 0, static_cast<std::uint8_t>(j)};
      }
      if (cfg.straggler_timeout > 0) {
        sim_.schedule_service(now + cfg.straggler_timeout, kOpTimeout, req_id);
      }
      break;
    }
    case Archetype::kStorage: {
      const std::uint64_t key = t.zipf.draw(t.rng);
      req.server = cfg.servers[key % cfg.servers.size()];
      const double write_frac = t.shifted ? cfg.shifted_write_fraction : cfg.write_fraction;
      const bool is_write = t.rng.bernoulli(write_frac);
      const std::uint64_t up = is_write ? cfg.write_value_bytes : cfg.request_key_bytes;
      req.response_bytes = is_write ? cfg.request_key_bytes : cfg.read_value_bytes;
      req.total_bytes = up + req.response_bytes;
      req.remaining = 1;
      const FlowId f = start_flow(cfg, req.client, req.server, up);
      flow_to_req_[f] = FlowRef{req_id, 0, 0};
      break;
    }
  }
  requests_.emplace(req_id, req);
}

void ServiceLayer::complete_request(std::uint64_t req_id, TimeNs at, Outcome outcome) {
  auto it = requests_.find(req_id);
  if (it == requests_.end()) return;
  const Request req = it->second;
  requests_.erase(it);
  const TenantConfig& cfg = config_.tenants[req.tenant];
  TenantState& t = state_[req.tenant];
  --t.outstanding;
  switch (outcome) {
    case Outcome::kCompleted: {
      const TimeNs latency = at - req.issued;
      t.latency_ns.observe(static_cast<double>(latency));
      if (latency > cfg.slo_latency) ++t.slo_violations;
      t.bytes_delivered += req.total_bytes;
      ++t.completed;
      break;
    }
    case Outcome::kTimedOut:
      // A straggler-timed-out request missed its SLO by definition; its
      // partial bytes do not count as goodput.
      ++t.timed_out;
      ++t.slo_violations;
      break;
    case Outcome::kAborted:
      ++t.aborted;
      break;
  }
  if (cfg.mode == ArrivalMode::kClosedLoop && t.issued < cfg.max_requests) {
    sim_.schedule_service(at, kOpIssue, req.tenant);
  }
}

// --- Timer handlers (serial context: kEvService events) -------------------

void ServiceLayer::op_issue(std::uint32_t tenant) { issue_request(tenant, sim_.now()); }

void ServiceLayer::op_open_tick(std::uint32_t tenant) {
  const TenantConfig& cfg = config_.tenants[tenant];
  TenantState& t = state_[tenant];
  const TimeNs now = sim_.now();
  issue_request(tenant, now);
  if (t.issued < cfg.max_requests) {
    const auto gap = static_cast<TimeNs>(
        t.rng.exponential(static_cast<double>(cfg.mean_interarrival)));
    sim_.schedule_service(now + std::max<TimeNs>(gap, 1), kOpOpenTick, tenant);
  }
}

void ServiceLayer::op_response(std::uint64_t req_id) {
  auto it = requests_.find(req_id);
  if (it == requests_.end()) return;  // timed out / aborted meanwhile
  const Request& req = it->second;
  const TenantConfig& cfg = config_.tenants[req.tenant];
  const FlowId f = start_flow(cfg, req.server, req.client, req.response_bytes);
  flow_to_req_[f] = FlowRef{req_id, 1, 0};
}

void ServiceLayer::op_leaf_response(std::uint64_t req_id, std::uint8_t leaf) {
  auto it = requests_.find(req_id);
  if (it == requests_.end()) return;
  const Request& req = it->second;
  const TenantConfig& cfg = config_.tenants[req.tenant];
  const NodeId node =
      cfg.servers[(req.seq + static_cast<std::uint64_t>(leaf)) % cfg.servers.size()];
  const FlowId f = start_flow(cfg, node, req.client, cfg.leaf_response_bytes);
  flow_to_req_[f] = FlowRef{req_id, 1, leaf};
}

void ServiceLayer::op_timeout(std::uint64_t req_id) {
  // Stale flows of an abandoned request stay in flow_to_req_ and are
  // swept lazily when they complete (the request is gone by then).
  complete_request(req_id, sim_.now(), Outcome::kTimedOut);
}

void ServiceLayer::op_shift(std::uint32_t tenant) {
  TenantState& t = state_[tenant];
  if (t.shifted) return;
  t.shifted = true;
  init_zipf(tenant);
}

// --- Completion callbacks (serial or barrier context) ---------------------

void ServiceLayer::on_flow_complete(FlowId id, TimeNs at) {
  auto fit = flow_to_req_.find(id);
  if (fit == flow_to_req_.end()) return;  // background (arrival-list) flow
  const FlowRef ref = fit->second;
  flow_to_req_.erase(fit);
  auto rit = requests_.find(ref.req);
  if (rit == requests_.end()) return;  // request already timed out/aborted
  Request& req = rit->second;
  const TenantConfig& cfg = config_.tenants[req.tenant];
  if (ref.role == 0) {
    // Upstream delivered: the responder thinks for app_delay, then a
    // kEvService event issues the response (never from this callback — it
    // may be running at a window barrier where flow starts are illegal).
    if (cfg.archetype == Archetype::kIncast) {
      sim_.schedule_service(at + cfg.app_delay, kOpLeafResponse,
                            (ref.req << 8) | static_cast<std::uint64_t>(ref.leaf));
    } else {
      sim_.schedule_service(at + cfg.app_delay, kOpResponse, ref.req);
    }
    return;
  }
  if (--req.remaining == 0) complete_request(ref.req, at, Outcome::kCompleted);
}

void ServiceLayer::on_flow_abort(FlowId id, TimeNs at) {
  auto fit = flow_to_req_.find(id);
  if (fit == flow_to_req_.end()) return;
  const FlowRef ref = fit->second;
  flow_to_req_.erase(fit);
  // Any aborted leg abandons the whole request; sibling flows sweep their
  // refs lazily on completion.
  complete_request(ref.req, at, Outcome::kAborted);
}

// --- Reporting ------------------------------------------------------------

SloReport ServiceLayer::report() const {
  SloReport rep;
  rep.span = sim_.now();
  const double span_sec = std::max(static_cast<double>(rep.span), 1.0) / 1e9;
  double sum = 0.0;
  double sum_sq = 0.0;
  for (std::size_t i = 0; i < config_.tenants.size(); ++i) {
    const TenantConfig& cfg = config_.tenants[i];
    const TenantState& t = state_[i];
    TenantReport r;
    r.name = cfg.name;
    r.issued = t.issued;
    r.completed = t.completed;
    r.timed_out = t.timed_out;
    r.aborted = t.aborted;
    r.p50_us = t.latency_ns.percentile(50.0) / 1e3;
    r.p99_us = t.latency_ns.percentile(99.0) / 1e3;
    r.p999_us = t.latency_ns.percentile(99.9) / 1e3;
    r.slo_us = static_cast<double>(cfg.slo_latency) / 1e3;
    const std::uint64_t resolved = t.completed + t.timed_out;
    r.slo_violation_fraction =
        resolved > 0 ? static_cast<double>(t.slo_violations) / static_cast<double>(resolved) : 0.0;
    r.bytes_delivered = t.bytes_delivered;
    r.goodput_bps = static_cast<double>(t.bytes_delivered) * 8.0 / span_sec;
    sum += r.goodput_bps;
    sum_sq += r.goodput_bps * r.goodput_bps;
    rep.tenants.push_back(std::move(r));
  }
  const double n = static_cast<double>(rep.tenants.size());
  rep.jain_fairness = sum_sq > 0.0 ? (sum * sum) / (n * sum_sq) : 1.0;
  return rep;
}

// --- kEvService events and the snapshot seam ------------------------------

void ServiceLayer::on_service_event(std::uint64_t op, std::uint64_t b) {
  switch (op) {
    case kOpIssue:
      op_issue(static_cast<std::uint32_t>(b));
      break;
    case kOpOpenTick:
      op_open_tick(static_cast<std::uint32_t>(b));
      break;
    case kOpResponse:
      op_response(b);
      break;
    case kOpLeafResponse:
      op_leaf_response(b >> 8, static_cast<std::uint8_t>(b & 0xff));
      break;
    case kOpTimeout:
      op_timeout(b);
      break;
    case kOpShift:
      op_shift(static_cast<std::uint32_t>(b));
      break;
    default:
      assert(false && "unknown service opcode");
  }
}

bool ServiceLayer::service_event_valid(std::uint64_t op, std::uint64_t b) const {
  switch (op) {
    case kOpIssue:
    case kOpOpenTick:
    case kOpShift:
      return b < config_.tenants.size();
    case kOpResponse:
    case kOpLeafResponse:
    case kOpTimeout:
      return true;
    default:
      return false;
  }
}

std::uint64_t ServiceLayer::service_fingerprint() const {
  snapshot::Digest d;
  d.mix(config_.seed);
  d.mix(config_.tenants.size());
  for (const TenantConfig& t : config_.tenants) {
    d.mix(t.name.size());
    for (char c : t.name) d.mix(static_cast<std::uint64_t>(static_cast<unsigned char>(c)));
    d.mix(static_cast<std::uint64_t>(t.archetype));
    d.mix(static_cast<std::uint64_t>(t.mode));
    d.mix(t.clients.size());
    for (NodeId n : t.clients) d.mix(n);
    d.mix(t.servers.size());
    for (NodeId n : t.servers) d.mix(n);
    d.mix_i64(t.mean_interarrival);
    d.mix(static_cast<std::uint64_t>(t.outstanding));
    d.mix(t.max_requests);
    d.mix(t.request_bytes);
    d.mix(t.response_bytes);
    d.mix_i64(t.app_delay);
    d.mix(static_cast<std::uint64_t>(t.fanout));
    d.mix(t.query_bytes);
    d.mix(t.leaf_response_bytes);
    d.mix_i64(t.straggler_timeout);
    d.mix_f64(t.zipf_theta);
    d.mix(t.num_keys);
    d.mix_f64(t.write_fraction);
    d.mix(t.request_key_bytes);
    d.mix(t.read_value_bytes);
    d.mix(t.write_value_bytes);
    d.mix_i64(t.shift_at);
    d.mix_f64(t.shifted_zipf_theta);
    d.mix_f64(t.shifted_write_fraction);
    d.mix_i64(t.slo_latency);
    d.mix_f64(t.weight);
    d.mix(static_cast<std::uint64_t>(t.priority));
    d.mix(static_cast<std::uint64_t>(static_cast<std::int64_t>(t.alg)));
  }
  return d.value();
}

template <class Self, class V>
void ServiceLayer::persist(Self& s, V& v) {
  v.section("service.core", [&] {
    v.u64(s.next_req_id_);
    v.fixed(s.state_, [&v](auto& t) {
      Rng::persist(t.rng, v);
      v.u64(t.issued);
      v.u64(t.completed);
      v.u64(t.timed_out);
      v.u64(t.aborted);
      v.u64(t.slo_violations);
      v.u64(t.bytes_delivered);
      v.u32(t.outstanding);
      v.flag(t.shifted);
      obs::Histogram::persist(t.latency_ns, v);
    });
  });
  v.section("service.requests", [&] {
    v.map(s.requests_, [&](auto& id, auto& req) {
      v.u64(id);
      v.u32(req.tenant);
      v.expect(req.tenant < s.config_.tenants.size(),
               "archived request references an unknown tenant");
      v.u16(req.client);
      v.u16(req.server);
      v.i64(req.issued);
      v.u64(req.seq);
      v.u64(req.response_bytes);
      v.u64(req.total_bytes);
      v.u32(req.remaining);
    });
    v.map(s.flow_to_req_, [&v](auto& id, auto& ref) {
      v.u32(id);
      v.u64(ref.req);
      v.u8(ref.role);
      v.u8(ref.leaf);
    });
  });
  if constexpr (V::kLoading) {
    // Zipf tables are derived from (config, shifted), never archived.
    v.on_commit([&s] {
      for (std::size_t i = 0; i < s.state_.size(); ++i) s.init_zipf(i);
    });
  }
}

void ServiceLayer::persist(snapshot::SaveVisitor& v) const { persist(*this, v); }
void ServiceLayer::persist(snapshot::LoadVisitor& v) { persist(*this, v); }
void ServiceLayer::persist(snapshot::DigestVisitor& v) const { persist(*this, v); }

}  // namespace r2c2::service
