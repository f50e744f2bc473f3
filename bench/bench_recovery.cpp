// Failure-recovery benchmark: how long a rack takes to notice a cut cable
// and reconverge, as a function of rack size (Section 3.2 made dynamic).
//
// For each rack size, a single link is cut mid-workload while flows are in
// flight. The nodes detect the failure via keepalive deadlines, rebuild
// topology/routes/trees, and re-announce their flows; the run reports the
// three phases of the episode, averaged over several seeds:
//
//   detect_us      injection -> keepalive deadline fires
//   rebuild_us     detection -> degraded context in force
//   reconverge_us  injection -> every re-announcement fully propagated
//
// plus the FCT impact versus an identical no-fault run of the same
// workload (fct_slowdown = mean FCT with the cut / mean FCT without).
//
// Emits machine-readable JSON to BENCH_recovery.json (override with
// R2C2_BENCH_OUT) alongside the human-readable table; the committed
// baseline lives at bench/baselines/BENCH_recovery.json and is referenced
// from EXPERIMENTS.md.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include <chrono>

#include "bench_common.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/fault.h"

namespace r2c2::bench {
namespace {

struct RackCase {
  const char* name;
  std::vector<int> dims;
  std::size_t flows;  // before R2C2_BENCH_SCALE
};

struct CaseResult {
  std::string name;
  int nodes = 0;
  int runs = 0;
  double detect_us = 0;
  double rebuild_us = 0;
  double reconverge_us = 0;
  double fct_slowdown = 1.0;
  double flows_rebroadcast = 0;
};

sim::R2c2SimConfig recovery_config() {
  sim::R2c2SimConfig cfg;
  cfg.reliable = true;  // in-flight packets die on the cut cable
  cfg.keepalive_interval = 10 * kNsPerUs;
  cfg.lease_interval = 100 * kNsPerUs;
  cfg.rto = 200 * kNsPerUs;
  return cfg;
}

double mean_fct_us(const sim::RunMetrics& m) {
  std::vector<double> v;
  for (const auto& f : m.flows) {
    if (f.finished()) v.push_back(static_cast<double>(f.fct()) / 1e3);
  }
  return mean_of(v);
}

CaseResult run_case(const RackCase& rc, int runs) {
  const Topology topo = make_torus(std::span<const int>(rc.dims), 10 * kGbps, 100);
  const Router router(topo);
  const std::size_t flows = std::max<std::size_t>(20, scaled(rc.flows));

  CaseResult res;
  res.name = rc.name;
  res.nodes = static_cast<int>(topo.num_nodes());
  res.runs = runs;

  std::vector<double> detect, rebuild, reconverge, slowdown, rebroadcast;
  for (int r = 0; r < runs; ++r) {
    const std::uint64_t seed = 1000 + static_cast<std::uint64_t>(r);
    const auto workload = paper_workload(topo, flows, 5 * kNsPerUs, seed);

    // Cut a pseudo-random cable mid-workload; the same workload runs
    // against the same config with no fault as the control.
    Rng pick(seed * 7 + 1);
    const LinkId victim = random_link(topo, pick);
    const TimeNs cut_at = 150 * kNsPerUs;

    sim::R2c2SimConfig faulty = recovery_config();
    faulty.faults.events.push_back(sim::FaultScript::fail_link(cut_at, victim));
    const sim::RunMetrics mf = run_r2c2(topo, router, workload, faulty);
    const sim::RunMetrics mc = run_r2c2(topo, router, workload, recovery_config());

    if (mf.recoveries.empty()) continue;  // cable was idle and unnoticed (shouldn't happen)
    const sim::RecoveryRecord& rec = mf.recoveries.front();
    detect.push_back(static_cast<double>(rec.detection_ns()) / 1e3);
    rebuild.push_back(static_cast<double>(rec.recovered_at - rec.detected_at) / 1e3);
    reconverge.push_back(static_cast<double>(rec.reconvergence_ns()) / 1e3);
    rebroadcast.push_back(static_cast<double>(mf.flows_rebroadcast));
    const double base = mean_fct_us(mc);
    if (base > 0) slowdown.push_back(mean_fct_us(mf) / base);
  }

  res.detect_us = mean_of(detect);
  res.rebuild_us = mean_of(rebuild);
  res.reconverge_us = mean_of(reconverge);
  res.fct_slowdown = slowdown.empty() ? 1.0 : mean_of(slowdown);
  res.flows_rebroadcast = mean_of(rebroadcast);
  return res;
}

struct TraceOverheadResult {
  int runs = 0;
  double off_us = 0, on_us = 0;
  std::uint64_t events = 0;
  double overhead_pct() const { return off_us > 0 ? (on_us / off_us - 1.0) * 100.0 : 0.0; }
};

// Wall-clock cost of leaving the flight recorder + metrics registry
// attached through an entire fault-recovery run (the instrumentation-heavy
// path: keepalives, detection, rebuild spans, re-broadcasts).
TraceOverheadResult run_trace_overhead(int runs) {
  using Clock = std::chrono::steady_clock;
  const Topology topo = make_torus({4, 4, 4}, 10 * kGbps, 100);
  const Router router(topo);
  const std::size_t flows = std::max<std::size_t>(30, scaled(150));

  TraceOverheadResult res;
  res.runs = runs;
  std::vector<double> off_us, on_us;
  obs::FlightRecorder recorder(1 << 16);
  for (int r = 0; r < runs; ++r) {
    const std::uint64_t seed = 2000 + static_cast<std::uint64_t>(r);
    const auto workload = paper_workload(topo, flows, 5 * kNsPerUs, seed);
    Rng pick(seed * 3 + 1);
    const LinkId victim = random_link(topo, pick);
    sim::R2c2SimConfig cfg = recovery_config();
    cfg.faults.events.push_back(sim::FaultScript::fail_link(150 * kNsPerUs, victim));
    {
      const auto t0 = Clock::now();
      (void)run_r2c2(topo, router, workload, cfg);
      off_us.push_back(std::chrono::duration<double, std::micro>(Clock::now() - t0).count());
    }
    {
      recorder.clear();
      obs::MetricsRegistry registry;
      sim::R2c2SimConfig traced = cfg;
      traced.trace = &recorder;
      traced.metrics = &registry;
      const auto t0 = Clock::now();
      (void)run_r2c2(topo, router, workload, traced);
      on_us.push_back(std::chrono::duration<double, std::micro>(Clock::now() - t0).count());
    }
    res.events = recorder.total_recorded();
  }
  std::sort(off_us.begin(), off_us.end());
  std::sort(on_us.begin(), on_us.end());
  res.off_us = off_us[off_us.size() / 2];
  res.on_us = on_us[on_us.size() / 2];
  return res;
}

int run() {
  const double scale = bench_scale();
  const int runs = std::max(3, static_cast<int>(std::lround(5 * scale)));

  const std::vector<RackCase> racks = {
      {"torus_4x4", {4, 4}, 120},
      {"torus_4x4x4", {4, 4, 4}, 300},
      {"torus_8x8x4", {8, 8, 4}, 800},
  };

  std::vector<CaseResult> cases;
  for (const RackCase& rc : racks) cases.push_back(run_case(rc, runs));
  const TraceOverheadResult trace = run_trace_overhead(runs);

  std::printf("%-14s %6s %10s %11s %14s %13s %11s\n", "rack", "nodes", "detect_us", "rebuild_us",
              "reconverge_us", "fct_slowdown", "rebroadcast");
  for (const CaseResult& c : cases) {
    std::printf("%-14s %6d %10.1f %11.1f %14.1f %12.2fx %11.1f\n", c.name.c_str(), c.nodes,
                c.detect_us, c.rebuild_us, c.reconverge_us, c.fct_slowdown, c.flows_rebroadcast);
  }
  std::printf("tracing: recovery run %0.1f us plain, %0.1f us traced "
              "(%+.2f%% overhead, %llu events)\n",
              trace.off_us, trace.on_us, trace.overhead_pct(),
              static_cast<unsigned long long>(trace.events));

  const char* out_path = std::getenv("R2C2_BENCH_OUT");
  if (out_path == nullptr) out_path = "BENCH_recovery.json";
  FILE* f = std::fopen(out_path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path);
    return 1;
  }
  std::fprintf(f, "{\n  \"bench\": \"recovery\",\n  \"scale\": %g,\n  \"runs\": %d,\n", scale,
               runs);
  std::fprintf(f, "  \"cases\": [\n");
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const CaseResult& c = cases[i];
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"nodes\": %d, \"detect_us\": %.2f, "
                 "\"rebuild_us\": %.2f, \"reconverge_us\": %.2f, \"fct_slowdown\": %.3f, "
                 "\"flows_rebroadcast\": %.1f}%s\n",
                 c.name.c_str(), c.nodes, c.detect_us, c.rebuild_us, c.reconverge_us,
                 c.fct_slowdown, c.flows_rebroadcast, i + 1 < cases.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f,
               "  \"tracing\": {\"runs\": %d, \"off_us\": %.1f, \"on_us\": %.1f, "
               "\"overhead_pct\": %.2f, \"events\": %llu}\n}\n",
               trace.runs, trace.off_us, trace.on_us, trace.overhead_pct(),
               static_cast<unsigned long long>(trace.events));
  std::fclose(f);
  std::printf("wrote %s\n", out_path);
  return 0;
}

}  // namespace
}  // namespace r2c2::bench

int main() { return r2c2::bench::run(); }
