#include "snapshot/replay.h"

#include <cinttypes>
#include <cstdio>
#include <utility>

#include "control/route_selection.h"
#include "routing/routing.h"
#include "service/service.h"
#include "snapshot/archive.h"
#include "snapshot/persist.h"

namespace r2c2::snapshot {

namespace {

// Poisson workload over nodes [0, num_nodes) — pass the server count (not
// topo.num_nodes()) on switched topologies so leaves/spines never source
// traffic.
std::vector<FlowArrival> mesh_workload(int num_nodes, int flows, std::uint64_t seed) {
  WorkloadConfig wl;
  wl.num_nodes = num_nodes;
  wl.num_flows = flows;
  wl.mean_interarrival = 5 * kNsPerUs;
  wl.max_bytes = 96 * 1024;
  wl.seed = seed;
  return generate_poisson_uniform(wl);
}

// The "tenant" scenario's service mix: one tenant per archetype on the
// 16-server folded Clos, all bounded by max_requests so the run drains.
service::ServiceConfig tenant_service_config(std::uint64_t seed) {
  service::ServiceConfig svc;
  svc.seed = seed * 0x9e3779b97f4a7c15ULL + 7;

  service::TenantConfig rpc;
  rpc.name = "rpc";
  rpc.archetype = service::Archetype::kRpc;
  rpc.mode = service::ArrivalMode::kClosedLoop;
  rpc.clients = {0, 1, 2, 3};
  rpc.servers = {4, 5, 6, 7};
  rpc.outstanding = 4;
  rpc.max_requests = 80;
  rpc.request_bytes = 2 * 1024;
  rpc.response_bytes = 16 * 1024;
  rpc.slo_latency = 300 * kNsPerUs;
  svc.tenants.push_back(rpc);

  service::TenantConfig incast;
  incast.name = "incast";
  incast.archetype = service::Archetype::kIncast;
  incast.mode = service::ArrivalMode::kClosedLoop;
  incast.clients = {8, 9};
  incast.servers = {10, 11, 12, 13};
  incast.outstanding = 2;
  incast.max_requests = 40;
  incast.fanout = 4;
  incast.leaf_response_bytes = 8 * 1024;
  incast.straggler_timeout = 800 * kNsPerUs;
  incast.slo_latency = 400 * kNsPerUs;
  svc.tenants.push_back(incast);

  service::TenantConfig storage;
  storage.name = "storage";
  storage.archetype = service::Archetype::kStorage;
  storage.mode = service::ArrivalMode::kOpenLoop;
  storage.clients = {14, 15};
  storage.servers = {4, 5, 6, 7, 10, 11, 12, 13};
  storage.mean_interarrival = 15 * kNsPerUs;
  storage.max_requests = 60;
  storage.shift_at = 300 * kNsPerUs;
  storage.slo_latency = 350 * kNsPerUs;
  svc.tenants.push_back(storage);
  return svc;
}

}  // namespace

std::uint64_t metrics_digest(const sim::RunMetrics& m) {
  Digest d;
  DigestVisitor v(d);
  v.seq(m.flows, [&v](const auto& f) { sim::FlowRecord::persist(f, v); });
  d.mix(m.max_queue_bytes.size());
  for (std::uint64_t q : m.max_queue_bytes) d.mix(q);
  d.mix(m.data_bytes_on_wire);
  d.mix(m.control_bytes_on_wire);
  d.mix(m.drops);
  d.mix(m.events);
  d.mix_i64(m.sim_end);
  v.seq(m.recoveries, [&v](const auto& r) { sim::RecoveryRecord::persist(r, v); });
  d.mix(m.failures_injected);
  d.mix(m.restores_injected);
  d.mix(m.failures_detected);
  d.mix(m.restores_detected);
  d.mix(m.context_rebuilds);
  d.mix(m.flows_rebroadcast);
  d.mix(m.failed_link_drops);
  d.mix(m.corrupted_control);
  d.mix(m.corrupted_data);
  d.mix(m.ghost_flows_expired);
  d.mix(m.lease_refreshes_sent);
  d.mix(m.gray_drops);
  d.mix(m.flow_aborts);
  d.mix(m.links_demoted);
  d.mix(m.links_cleared);
  return d.value();
}

std::string divergence(const ReplayResult& want, const ReplayResult& got, TimeNs after) {
  const auto hex = [](std::uint64_t v) {
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016" PRIx64, v);
    return std::string(buf);
  };
  const auto point = [&hex](const DigestPoint& p) {
    return "t=" + std::to_string(p.at) + " ns " + hex(p.digest);
  };
  DigestLog expected;
  for (const DigestPoint& p : want.digests.points) {
    if (p.at > after) expected.points.push_back(p);
  }
  if (const std::ptrdiff_t i = DigestLog::first_divergence(expected, got.digests); i >= 0) {
    const auto k = static_cast<std::size_t>(i);
    return "digest point " + std::to_string(i) + " is " + point(got.digests.points[k]) +
           ", expected " + point(expected.points[k]);
  }
  if (got.digests.points.size() != expected.points.size()) {
    return std::to_string(got.digests.points.size()) + " digest points, expected " +
           std::to_string(expected.points.size());
  }
  if (got.final_digest != want.final_digest) {
    return "final state digest " + hex(got.final_digest) + ", expected " + hex(want.final_digest);
  }
  if (got.metrics_digest != want.metrics_digest) {
    return "metrics digest " + hex(got.metrics_digest) + ", expected " + hex(want.metrics_digest);
  }
  return {};
}

Scenario::Scenario(ReplayConfig config) : config_(std::move(config)) {
  if (config_.scenario == "adaptive" || config_.scenario == "tenant") {
    // Folded Clos so the spray has genuine path diversity to steer: 16
    // servers (nodes 0-15) under 4 leaves (16-19) and 2 spines (20-21).
    ClosSpec spec;
    spec.servers_per_leaf = 4;
    spec.num_leaves = 4;
    spec.num_spines = 2;
    spec.bandwidth = 10 * kGbps;
    spec.latency = 100;
    topo_ = std::make_unique<Topology>(make_folded_clos(spec));
  } else {
    topo_ = std::make_unique<Topology>(make_torus({4, 4}, 10 * kGbps, 100));
  }
  router_ = std::make_unique<Router>(*topo_);

  if (config_.scenario == "fault") {
    // Chaos mode: fail/restore waves while the self-healing machinery
    // (keepalives, rebuilds, leases) and packet corruption are all on.
    sim_config_.reliable = true;
    sim_config_.keepalive_interval = 10 * kNsPerUs;
    sim_config_.lease_interval = 100 * kNsPerUs;
    sim_config_.rto = 200 * kNsPerUs;
    sim_config_.net.corruption_rate = 5e-4;
    sim_config_.seed = config_.seed;
    Rng chaos_rng(config_.seed * 2654435761ULL + 1);
    sim::ChaosConfig cc;
    cc.waves = 5;
    cc.start = 40 * kNsPerUs;
    sim_config_.faults = sim::make_chaos_script(*topo_, chaos_rng, cc);
    arrivals_ = mesh_workload(topo_->num_nodes(), 60, config_.seed);
  } else if (config_.scenario == "ga") {
    // Genetic-algorithm route selection picks a per-flow RPS/VLB mix up
    // front (with the configured fitness-evaluation thread count — the
    // result is bit-identical across thread counts, so the whole run must
    // be too); the workload then carries the chosen protocol per arrival.
    sim_config_.reliable = true;
    sim_config_.lease_interval = 100 * kNsPerUs;
    sim_config_.rto = 200 * kNsPerUs;
    sim_config_.seed = config_.seed;
    arrivals_ = mesh_workload(topo_->num_nodes(), 50, config_.seed);
    std::vector<FlowSpec> flows;
    flows.reserve(arrivals_.size());
    FlowId id = 1;
    for (const FlowArrival& a : arrivals_) {
      flows.push_back({id++, a.src, a.dst, RouteAlg::kRps, a.weight, a.priority,
                       kUnlimitedDemand});
    }
    SelectionConfig sel;
    sel.population = 30;
    sel.max_generations = 10;
    sel.stall_generations = 4;
    sel.seed = config_.seed;
    sel.threads = config_.threads;
    const SelectionResult chosen = select_routes_ga(*router_, flows, sel);
    for (std::size_t i = 0; i < arrivals_.size(); ++i) {
      arrivals_[i].alg = static_cast<std::int8_t>(chosen.assignment[i]);
    }
  } else if (config_.scenario == "adaptive") {
    // Asymmetric gray fault on one leaf->spine uplink while ECN-style marks
    // steer the spray: congestion state (EWMA marks, tick arming, epoch
    // peaks) is all live, so digest trails and snapshot round trips cover
    // the adaptive data plane end to end.
    sim_config_.reliable = true;
    sim_config_.keepalive_interval = 10 * kNsPerUs;
    sim_config_.lease_interval = 100 * kNsPerUs;
    sim_config_.rto = 200 * kNsPerUs;
    sim_config_.adaptive_rto = true;
    sim_config_.adaptive_detection = true;
    sim_config_.congestion_aware = true;
    sim_config_.ecn_threshold_bytes = 4 * 1024;
    sim_config_.seed = config_.seed;
    sim::LinkDegrade gray;
    gray.loss_prob = 0.25;
    gray.added_latency = 2 * kNsPerUs;
    const LinkId uplink = topo_->find_link(16, 20);  // leaf0 -> spine0
    sim_config_.faults.events.push_back(
        sim::FaultScript::degrade_link(40 * kNsPerUs, uplink, gray));
    // Servers only: leaves/spines are transit.
    arrivals_ = mesh_workload(16, 60, config_.seed);
  } else if (config_.scenario == "tenant") {
    // The service layer issues its flows dynamically (attached below); a
    // small background open-loop mesh keeps the arrival-list path and the
    // service path coexisting in one run.
    sim_config_.reliable = true;
    sim_config_.lease_interval = 100 * kNsPerUs;
    sim_config_.rto = 200 * kNsPerUs;
    sim_config_.seed = config_.seed;
    arrivals_ = mesh_workload(16, 20, config_.seed);
  } else {
    throw SnapshotError("unknown scenario '" + config_.scenario +
                        "' (want fault|ga|adaptive|tenant)");
  }
  if (config_.routing == "static") {
    sim_config_.congestion_aware = false;
  } else if (config_.routing == "adaptive") {
    sim_config_.congestion_aware = true;
  } else if (!config_.routing.empty()) {
    throw SnapshotError("unknown routing mode '" + config_.routing +
                        "' (want static|adaptive)");
  }
  sim_config_.trace = config_.trace;
  sim_config_.engine_shards = config_.engine_shards;
  sim_config_.engine_workers = config_.engine_workers;
  start();
}

Scenario::Scenario(Topology topo, sim::R2c2SimConfig sim_config, std::vector<FlowArrival> arrivals,
                   TimeNs digest_every)
    : topo_(std::make_unique<Topology>(std::move(topo))),
      router_(std::make_unique<Router>(*topo_)),
      sim_config_(std::move(sim_config)),
      arrivals_(std::move(arrivals)) {
  config_.scenario.clear();
  config_.digest_every = digest_every;
  config_.trace = sim_config_.trace;
  start();
}

void Scenario::start() {
  sim_ = std::make_unique<sim::R2c2Sim>(*topo_, *router_, sim_config_);
  sim_->add_flows(arrivals_);
  if (config_.scenario == "tenant") {
    service_ = std::make_unique<service::ServiceLayer>(*sim_,
                                                       tenant_service_config(config_.seed));
    // A later load_snapshot discards these initial timers along with the
    // rest of the engine queue and restores the archived ones.
    service_->start();
  }
}

ReplayResult Scenario::run(TimeNs until) {
  ReplayResult out;
  sim::R2c2Sim& s = *sim_;
  // Digest boundaries are absolute multiples of digest_every, so a run
  // resumed from a snapshot taken at a boundary lands on the same grid and
  // its digest trail is comparable point for point.
  TimeNs t = s.now();
  while (!s.idle() && t < until) {
    t += config_.digest_every;
    s.run_until(t);
    const std::uint64_t digest = s.state_digest();
    out.digests.record(s.now(), digest);
    R2C2_TRACE_INSTANT(config_.trace, s.now(), 0, obs::EventType::kStateDigest, digest, 0);
    if (config_.snapshot_every > 0 && !config_.snapshot_prefix.empty() && !s.idle() &&
        t % config_.snapshot_every == 0) {
      const std::string path = config_.snapshot_prefix + std::to_string(t) + ".snap";
      save_snapshot(s, path);
      out.snapshots_written.push_back(path);
    }
  }
  out.final_digest = s.state_digest();
  out.metrics = s.collect_metrics();
  out.metrics_digest = snapshot::metrics_digest(out.metrics);
  return out;
}

void save_snapshot(const sim::R2c2Sim& simulator, const std::string& path) {
  ArchiveWriter w;
  simulator.save(w);
  w.write_file(path);
}

void load_snapshot(sim::R2c2Sim& simulator, const std::string& path) {
  ArchiveReader r = ArchiveReader::from_file(path);
  simulator.load(r);
}

}  // namespace r2c2::snapshot
