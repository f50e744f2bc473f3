// Tenant-scale closed-loop service layer (ROADMAP "Tenant-scale workload
// engine"). Where src/workload generates open-loop flow soup — a fixed
// arrival list computed before the run — this layer models *services*:
// tenants whose next request depends on the completion of the previous
// one, driving R2c2Sim through the ServiceClient seam with dynamically
// issued flows.
//
// Three service archetypes:
//  - kRpc      request/response: a client sends `request_bytes` to a
//              server, the server "computes" for `app_delay`, then returns
//              `response_bytes`. Request latency = issue -> response
//              delivered.
//  - kIncast   partition-aggregate: a root fans a small query to K leaves;
//              each leaf responds `leaf_response_bytes` into the root
//              near-simultaneously (the classic fan-in hotspot).
//              Completion = last response; an optional straggler timeout
//              abandons requests whose tail never arrives.
//  - kStorage  ScaleStore-style key-value traffic: zipfian key popularity
//              maps requests onto server shards (key % servers), with a
//              configurable read/write mix and value sizes, plus an
//              optional mid-run workload shift (elasticity: the popularity
//              skew and write mix change at `shift_at`).
//
// Arrival processes per tenant: open-loop Poisson (requests issue on a
// timer regardless of completions) or closed-loop N-outstanding (each
// completion immediately issues the next request — the load adapts to the
// fabric, as real user-facing services do).
//
// Determinism under sharding: every service decision runs in a serial
// context. Requests issue from kEvService events on the engine's global
// lane (the same context the arrival list's kEvStartFlow events use), and
// completion callbacks arrive either at once on the global lane (every
// completion of a 1-shard run) or from the deferred-op log applied at
// window barriers — in merged (time, lane, position) order, a pure
// function of the trajectory. Callbacks never
// start flows directly; they schedule kEvService follow-ups, so the whole
// issue sequence is bit-identical at any worker count.
//
// Snapshot: all service state — outstanding request tables, per-tenant RNG
// streams and latency histograms — archives in its own sections
// ("service.core", "service.requests") through the sim's save/load, and
// pending kEvService timers run on_service_event like live ones. The tenant
// configuration enters the sim's config fingerprint.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "common/types.h"
#include "obs/metrics.h"
#include "sim/r2c2_sim.h"

namespace r2c2::service {

enum class Archetype : std::uint8_t {
  kRpc = 0,
  kIncast = 1,
  kStorage = 2,
};

enum class ArrivalMode : std::uint8_t {
  kOpenLoop = 0,    // Poisson issue timer, blind to completions
  kClosedLoop = 1,  // N outstanding; next request issues on completion
};

struct TenantConfig {
  std::string name;
  Archetype archetype = Archetype::kRpc;
  ArrivalMode mode = ArrivalMode::kClosedLoop;
  // Client nodes issue requests round-robin (request seq % clients);
  // servers are the archetype's responder pool.
  std::vector<NodeId> clients;
  std::vector<NodeId> servers;
  // Open-loop: mean Poisson inter-arrival. Closed-loop: ignored.
  TimeNs mean_interarrival = 20 * kNsPerUs;
  // Closed-loop window (concurrent requests per tenant).
  int outstanding = 4;
  // Total requests this tenant issues; bounds the run.
  std::uint64_t max_requests = 100;

  // --- kRpc ---
  std::uint64_t request_bytes = 2 * 1024;
  std::uint64_t response_bytes = 32 * 1024;
  TimeNs app_delay = 2 * kNsPerUs;  // server think time before responding

  // --- kIncast --- (fanout capped at 255 by the timer encoding and at the
  // server pool size; leaf j of request seq s is servers[(s + j) % pool])
  int fanout = 4;
  std::uint64_t query_bytes = 1 * 1024;
  std::uint64_t leaf_response_bytes = 16 * 1024;
  TimeNs straggler_timeout = 0;  // 0 = wait for the full fan-in forever

  // --- kStorage ---
  double zipf_theta = 0.99;  // YCSB-style skew, in [0, 1)
  std::uint64_t num_keys = 10000;
  double write_fraction = 0.1;
  std::uint64_t request_key_bytes = 128;  // read request / write ack size
  std::uint64_t read_value_bytes = 8 * 1024;
  std::uint64_t write_value_bytes = 8 * 1024;
  TimeNs shift_at = 0;  // 0 = no workload shift
  double shifted_zipf_theta = 0.5;
  double shifted_write_fraction = 0.5;

  // --- SLO & fabric knobs ---
  TimeNs slo_latency = 500 * kNsPerUs;  // per-request latency target
  double weight = 1.0;                  // flow weight (allocator share)
  int priority = 0;
  std::int8_t alg = -1;  // per-flow routing override; -1 = sim default
};

struct ServiceConfig {
  std::vector<TenantConfig> tenants;
  std::uint64_t seed = 41;  // per-tenant streams derive from this
};

struct TenantReport {
  std::string name;
  std::uint64_t issued = 0;
  std::uint64_t completed = 0;
  std::uint64_t timed_out = 0;
  std::uint64_t aborted = 0;
  double p50_us = 0.0;
  double p99_us = 0.0;
  double p999_us = 0.0;
  double slo_us = 0.0;
  // Fraction of resolved requests (completed + timed out) over SLO.
  double slo_violation_fraction = 0.0;
  double goodput_bps = 0.0;  // request+response payload of completed requests
  std::uint64_t bytes_delivered = 0;
};

struct SloReport {
  std::vector<TenantReport> tenants;
  // Jain fairness index over per-tenant goodput: 1 = perfectly even,
  // 1/n = one tenant starves all others.
  double jain_fairness = 1.0;
  TimeNs span = 0;  // sim time the goodput is measured over
};

class ServiceLayer : public sim::ServiceClient {
 public:
  // Attaches itself to the sim; must outlive it. Throws
  // std::invalid_argument on an unusable config (no tenants, empty
  // client/server sets, zipf_theta outside [0, 1)).
  ServiceLayer(sim::R2c2Sim& sim, ServiceConfig config);

  // Schedules every tenant's initial arrivals (and shift timers) at t = 0.
  // Call once, after add_flows and before run. A subsequent sim.load()
  // discards these events along with the rest of the engine queue and
  // restores the archived ones — so the fresh-run and restore paths share
  // one construction sequence.
  void start();

  // Per-tenant SLO/fairness accounting over the run so far.
  SloReport report() const;

  // Introspection for tests.
  std::size_t tenants() const { return config_.tenants.size(); }
  std::uint64_t issued(std::size_t tenant) const { return state_[tenant].issued; }
  std::uint64_t completed(std::size_t tenant) const { return state_[tenant].completed; }
  std::uint64_t timed_out(std::size_t tenant) const { return state_[tenant].timed_out; }
  std::uint64_t aborted(std::size_t tenant) const { return state_[tenant].aborted; }
  std::size_t requests_in_flight() const { return requests_.size(); }

  // --- sim::ServiceClient ---
  void on_flow_complete(FlowId id, TimeNs at) override;
  void on_flow_abort(FlowId id, TimeNs at) override;
  void on_service_event(std::uint64_t op, std::uint64_t b) override;
  bool service_event_valid(std::uint64_t op, std::uint64_t b) const override;
  std::uint64_t service_fingerprint() const override;
  void persist(snapshot::SaveVisitor& v) const override;
  void persist(snapshot::LoadVisitor& v) override;
  void persist(snapshot::DigestVisitor& v) const override;

 private:
  // kEvService opcodes (EventDesc.a); values are part of the snapshot
  // format — add at the end, never renumber.
  enum Op : std::uint64_t {
    kOpIssue = 0,         // b = tenant: issue one request now
    kOpOpenTick = 1,      // b = tenant: issue + re-arm the Poisson timer
    kOpResponse = 2,      // b = request id: start the rpc/storage response
    kOpLeafResponse = 3,  // b = (request id << 8) | leaf index
    kOpTimeout = 4,       // b = request id: straggler timeout
    kOpShift = 5,         // b = tenant: apply the storage workload shift
  };

  // YCSB-style zipfian sampler over [0, n); rejection-free closed form
  // with precomputed zeta(n, theta). Derived from (config, shifted flag),
  // never archived.
  struct Zipf {
    std::uint64_t n = 1;
    double theta = 0.0;
    double zetan = 1.0;
    double zeta2 = 1.0;
    double alpha = 1.0;
    double eta = 1.0;
    void init(std::uint64_t n_, double theta_);
    std::uint64_t draw(Rng& rng) const;
  };

  struct TenantState {
    Rng rng;
    std::uint64_t issued = 0;
    std::uint64_t completed = 0;
    std::uint64_t timed_out = 0;
    std::uint64_t aborted = 0;
    std::uint64_t slo_violations = 0;
    std::uint64_t bytes_delivered = 0;
    std::uint32_t outstanding = 0;
    bool shifted = false;  // storage workload shift applied
    obs::Histogram latency_ns;
    Zipf zipf;  // storage only; derived state
  };

  // One in-flight request. kRpc/kStorage: one upstream flow, one response.
  // kIncast: `remaining` counts outstanding leaf responses; leaf node ids
  // are recomputed from (seq, leaf index), not stored.
  struct Request {
    std::uint32_t tenant = 0;
    NodeId client = 0;
    NodeId server = 0;  // rpc/storage responder
    TimeNs issued = 0;
    std::uint64_t seq = 0;
    std::uint64_t response_bytes = 0;
    std::uint64_t total_bytes = 0;  // payload accounted at completion
    std::uint32_t remaining = 0;    // responses still outstanding
  };

  // Maps a service-issued flow back to its request. role 0 = upstream
  // (request/query/write payload), role 1 = downstream (response).
  struct FlowRef {
    std::uint64_t req = 0;
    std::uint8_t role = 0;
    std::uint8_t leaf = 0;
  };

  enum class Outcome : std::uint8_t { kCompleted, kTimedOut, kAborted };

  void op_issue(std::uint32_t tenant);
  void op_open_tick(std::uint32_t tenant);
  void op_response(std::uint64_t req_id);
  void op_leaf_response(std::uint64_t req_id, std::uint8_t leaf);
  void op_timeout(std::uint64_t req_id);
  void op_shift(std::uint32_t tenant);
  void issue_request(std::uint32_t tenant, TimeNs now);
  void complete_request(std::uint64_t req_id, TimeNs at, Outcome outcome);
  FlowId start_flow(const TenantConfig& cfg, NodeId src, NodeId dst, std::uint64_t bytes);
  // The field walk behind the three persist overrides
  // (src/snapshot/persist.h).
  template <class Self, class V>
  static void persist(Self& s, V& v);
  int effective_fanout(const TenantConfig& cfg) const;
  void init_zipf(std::size_t tenant);

  sim::R2c2Sim& sim_;
  ServiceConfig config_;
  std::vector<TenantState> state_;
  std::unordered_map<std::uint64_t, Request> requests_;
  std::unordered_map<FlowId, FlowRef> flow_to_req_;
  std::uint64_t next_req_id_ = 1;
  bool started_ = false;
};

}  // namespace r2c2::service
