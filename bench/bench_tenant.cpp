// Tenant service-layer benchmark: per-tenant SLO attainment and fairness
// for the three service archetypes (src/service/) on the 16-server folded
// Clos, swept across load, plus the worker-count determinism gate for the
// closed-loop "tenant" replay scenario.
//
// Two sections, one JSON report:
//
//   1. Load sweep. One tenant per archetype — closed-loop RPC, closed-loop
//      partition-aggregate incast with a straggler timeout, open-loop
//      zipfian storage with a mid-run workload shift — share the rack at
//      three load points (the closed-loop windows and the open-loop rate
//      scale together). Per tenant and load: p50/p99/p999 request latency,
//      the SLO-violation fraction against each tenant's target, goodput,
//      and the Jain fairness index across the three goodputs. Reported for
//      EXPERIMENTS.md (the SLO table).
//
//   2. Worker-count digest identity on the "tenant" snapshot scenario
//      (4 shards): the digest trail, final state digest and metrics digest
//      must be bit-identical at 1 and 4 workers (snapshot::divergence)
//      while the service layer issues every flow from completion
//      callbacks. Hard gate (non-zero exit on divergence), alongside a
//      completion sanity gate (every tenant finishes work at every load).
//
// Emits JSON to BENCH_tenant.json (override with R2C2_BENCH_OUT); the
// committed baseline lives at bench/baselines/BENCH_tenant.json.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_common.h"
#include "routing/routing.h"
#include "service/service.h"
#include "snapshot/replay.h"

namespace r2c2::bench {
namespace {

struct LoadPoint {
  const char* name;
  int rpc_outstanding;
  int incast_outstanding;
  TimeNs storage_interarrival;
};

sim::R2c2SimConfig tenant_stack_config() {
  sim::R2c2SimConfig cfg;
  cfg.reliable = true;
  cfg.rto = 200 * kNsPerUs;
  cfg.lease_interval = 100 * kNsPerUs;
  cfg.seed = 29;
  return cfg;
}

service::ServiceConfig tenant_mix(const LoadPoint& load) {
  service::ServiceConfig svc;
  svc.seed = 61;

  service::TenantConfig rpc;
  rpc.name = "rpc";
  rpc.archetype = service::Archetype::kRpc;
  rpc.mode = service::ArrivalMode::kClosedLoop;
  rpc.clients = {0, 1, 2, 3};
  rpc.servers = {4, 5, 6, 7};
  rpc.outstanding = load.rpc_outstanding;
  rpc.max_requests = std::max<std::size_t>(30, scaled(120));
  rpc.request_bytes = 2 * 1024;
  rpc.response_bytes = 16 * 1024;
  rpc.slo_latency = 100 * kNsPerUs;
  svc.tenants.push_back(rpc);

  service::TenantConfig incast;
  incast.name = "incast";
  incast.archetype = service::Archetype::kIncast;
  incast.mode = service::ArrivalMode::kClosedLoop;
  incast.clients = {8, 9};
  incast.servers = {10, 11, 12, 13};
  incast.outstanding = load.incast_outstanding;
  incast.max_requests = std::max<std::size_t>(20, scaled(60));
  incast.fanout = 4;
  incast.query_bytes = 1 * 1024;
  incast.leaf_response_bytes = 6 * 1024;
  incast.straggler_timeout = 1500 * kNsPerUs;
  incast.slo_latency = 75 * kNsPerUs;
  svc.tenants.push_back(incast);

  service::TenantConfig storage;
  storage.name = "storage";
  storage.archetype = service::Archetype::kStorage;
  storage.mode = service::ArrivalMode::kOpenLoop;
  storage.clients = {14, 15};
  storage.servers = {4, 5, 6, 7, 10, 11, 12, 13};
  storage.mean_interarrival = load.storage_interarrival;
  storage.max_requests = std::max<std::size_t>(25, scaled(80));
  storage.shift_at = 400 * kNsPerUs;
  storage.slo_latency = 60 * kNsPerUs;
  svc.tenants.push_back(storage);
  return svc;
}

service::SloReport run_load_point(const Topology& topo, const Router& router,
                                  const LoadPoint& load) {
  sim::R2c2Sim s(topo, router, tenant_stack_config());
  service::ServiceLayer layer(s, tenant_mix(load));
  layer.start();
  while (!s.idle()) s.run_until(s.now() + 100 * kNsPerUs);
  return layer.report();
}

// The "tenant" snapshot scenario on 4 shards at `workers` engine workers.
snapshot::ReplayResult run_tenant_scenario(int workers) {
  snapshot::ReplayConfig rc;
  rc.scenario = "tenant";
  rc.engine_shards = 4;
  rc.engine_workers = workers;
  return snapshot::Scenario(rc).run();
}

int run() {
  const double scale = bench_scale();

  ClosSpec spec;
  spec.servers_per_leaf = 4;
  spec.num_leaves = 4;
  spec.num_spines = 2;
  const Topology topo = make_folded_clos(spec);
  const Router router(topo);

  const std::vector<LoadPoint> loads = {
      {"light", 2, 1, 30 * kNsPerUs},
      {"medium", 4, 2, 15 * kNsPerUs},
      {"heavy", 8, 4, 8 * kNsPerUs},
  };

  std::vector<service::SloReport> reports;
  bool all_completed = true;
  std::printf("%-7s %-8s %8s %8s %8s %9s %9s %9s %7s %9s %13s\n", "load", "tenant", "issued",
              "done", "timeout", "p50_us", "p99_us", "p999_us", "slo_us", "viol_frac",
              "goodput_gbps");
  for (const LoadPoint& load : loads) {
    reports.push_back(run_load_point(topo, router, load));
    const service::SloReport& rep = reports.back();
    for (const service::TenantReport& t : rep.tenants) {
      std::printf("%-7s %-8s %8llu %8llu %8llu %9.1f %9.1f %9.1f %7.0f %9.3f %13.3f\n",
                  load.name, t.name.c_str(), static_cast<unsigned long long>(t.issued),
                  static_cast<unsigned long long>(t.completed),
                  static_cast<unsigned long long>(t.timed_out), t.p50_us, t.p99_us, t.p999_us,
                  t.slo_us, t.slo_violation_fraction, t.goodput_bps / 1e9);
      if (t.completed == 0) all_completed = false;
    }
    std::printf("%-7s jain fairness %.4f over %.0f us\n", load.name, rep.jain_fairness,
                static_cast<double>(rep.span) / 1e3);
  }
  if (!all_completed) {
    std::fprintf(stderr, "COMPLETION GATE FAILED: a tenant finished zero requests\n");
  }

  const snapshot::ReplayResult w1 = run_tenant_scenario(1);
  const snapshot::ReplayResult w4 = run_tenant_scenario(4);
  const std::string diverged = snapshot::divergence(w1, w4);
  const bool identical = diverged.empty();
  std::printf("tenant 1v4 workers: state %016llx/%016llx metrics %016llx/%016llx %s\n",
              static_cast<unsigned long long>(w1.final_digest),
              static_cast<unsigned long long>(w4.final_digest),
              static_cast<unsigned long long>(w1.metrics_digest),
              static_cast<unsigned long long>(w4.metrics_digest),
              identical ? "IDENTICAL" : "DIVERGED");
  if (!identical) {
    std::fprintf(stderr, "WORKER DIGEST GATE FAILED: tenant scenario at 4 workers: %s\n",
                 diverged.c_str());
  }

  const char* out_path = std::getenv("R2C2_BENCH_OUT");
  if (out_path == nullptr) out_path = "BENCH_tenant.json";
  FILE* f = std::fopen(out_path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path);
    return 1;
  }
  std::fprintf(f, "{\n  \"bench\": \"tenant\",\n  \"scale\": %g,\n", scale);
  std::fprintf(f, "  \"loads\": [\n");
  for (std::size_t i = 0; i < loads.size(); ++i) {
    const service::SloReport& rep = reports[i];
    std::fprintf(f, "    {\"load\": \"%s\", \"jain_fairness\": %.4f, \"span_us\": %.1f, "
                    "\"tenants\": [\n",
                 loads[i].name, rep.jain_fairness, static_cast<double>(rep.span) / 1e3);
    for (std::size_t j = 0; j < rep.tenants.size(); ++j) {
      const service::TenantReport& t = rep.tenants[j];
      std::fprintf(f,
                   "      {\"name\": \"%s\", \"issued\": %llu, \"completed\": %llu, "
                   "\"timed_out\": %llu, \"aborted\": %llu, \"p50_us\": %.2f, "
                   "\"p99_us\": %.2f, \"p999_us\": %.2f, \"slo_us\": %.1f, "
                   "\"slo_violation_fraction\": %.4f, \"goodput_gbps\": %.4f}%s\n",
                   t.name.c_str(), static_cast<unsigned long long>(t.issued),
                   static_cast<unsigned long long>(t.completed),
                   static_cast<unsigned long long>(t.timed_out),
                   static_cast<unsigned long long>(t.aborted), t.p50_us, t.p99_us, t.p999_us,
                   t.slo_us, t.slo_violation_fraction, t.goodput_bps / 1e9,
                   j + 1 < rep.tenants.size() ? "," : "");
    }
    std::fprintf(f, "    ]}%s\n", i + 1 < loads.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f,
               "  \"worker_digest_identity\": {\"scenario\": \"tenant\", \"shards\": 4, "
               "\"workers\": [1, 4], \"state_w1\": \"%016llx\", \"state_w4\": \"%016llx\", "
               "\"metrics_w1\": \"%016llx\", \"metrics_w4\": \"%016llx\", \"identical\": %s},\n",
               static_cast<unsigned long long>(w1.final_digest),
               static_cast<unsigned long long>(w4.final_digest),
               static_cast<unsigned long long>(w1.metrics_digest),
               static_cast<unsigned long long>(w4.metrics_digest),
               identical ? "true" : "false");
  std::fprintf(f, "  \"all_tenants_completed\": %s\n", all_completed ? "true" : "false");
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("wrote %s\n", out_path);
  return (identical && all_completed) ? 0 : 1;
}

}  // namespace
}  // namespace r2c2::bench

int main() { return r2c2::bench::run(); }
