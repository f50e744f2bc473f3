// Observability overhead benchmark: what does leaving the flight recorder
// and metrics registry attached cost a full simulation run?
//
// Three measurements:
//   1. Raw primitive cost: FlightRecorder::record() and
//      Histogram::observe() in ns/op (tight loop, median of reps).
//   2. End-to-end overhead: identical R2C2 workloads run with and without
//      a recorder+registry attached (the hooks are always compiled; a
//      detached one costs a null check). The acceptance bar is <5%
//      overhead with both attached.
//   3. Export cost: serializing a full ring to Chrome trace JSON.
//
// Emits machine-readable JSON to BENCH_obs.json (override with
// R2C2_BENCH_OUT); the committed baseline lives at
// bench/baselines/BENCH_obs.json.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_common.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "obs/trace_export.h"

namespace r2c2::bench {
namespace {

using Clock = std::chrono::steady_clock;

double checksum = 0.0;  // defeats dead-code elimination

template <typename F>
double time_us(int reps, F&& fn) {
  std::vector<double> samples;
  samples.reserve(static_cast<std::size_t>(reps));
  for (int r = 0; r < reps; ++r) {
    const auto t0 = Clock::now();
    fn();
    const auto t1 = Clock::now();
    samples.push_back(std::chrono::duration<double, std::micro>(t1 - t0).count());
  }
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() / 2];
}

struct PrimitiveResult {
  double record_ns = 0;
  double observe_ns = 0;
  double counter_ns = 0;
};

PrimitiveResult run_primitives(int reps) {
  constexpr int kOps = 1 << 20;
  PrimitiveResult res;

  obs::FlightRecorder rec(1 << 16);
  res.record_ns = 1e3 *
                  time_us(reps,
                          [&] {
                            for (int i = 0; i < kOps; ++i) {
                              rec.record(i, static_cast<NodeId>(i & 63),
                                         obs::EventType::kRateRecompute,
                                         obs::EventPhase::kInstant, static_cast<std::uint64_t>(i));
                            }
                          }) /
                  kOps;
  checksum += static_cast<double>(rec.total_recorded());

  obs::Histogram hist;
  res.observe_ns = 1e3 * time_us(reps,
                                 [&] {
                                   for (int i = 0; i < kOps; ++i) {
                                     hist.observe(static_cast<double>(i));
                                   }
                                 }) /
                   kOps;
  checksum += hist.mean();

  obs::Counter ctr;
  res.counter_ns = 1e3 * time_us(reps,
                                 [&] {
                                   for (int i = 0; i < kOps; ++i) ctr.add(1);
                                 }) /
                   kOps;
  checksum += static_cast<double>(ctr.value());
  return res;
}

struct SimOverheadResult {
  std::string name;
  int runs = 0;
  double off_us = 0;       // no recorder/registry attached
  double on_us = 0;        // both attached
  double export_us = 0;    // ring -> Chrome trace JSON
  std::uint64_t events = 0;
  double overhead_pct() const { return off_us > 0 ? (on_us / off_us - 1.0) * 100.0 : 0.0; }
};

SimOverheadResult run_sim_overhead(int runs) {
  const Topology topo = make_torus({4, 4, 4}, 10 * kGbps, 100);
  const Router router(topo);
  const std::size_t flows = std::max<std::size_t>(50, scaled(200));

  SimOverheadResult res;
  res.name = "r2c2_64n_" + std::to_string(flows) + "f";
  res.runs = runs;

  std::vector<double> off_us, on_us, export_us;
  obs::FlightRecorder recorder(1 << 18);
  for (int r = 0; r < runs; ++r) {
    const auto workload =
        paper_workload(topo, flows, 5 * kNsPerUs, 4242 + static_cast<std::uint64_t>(r));
    sim::R2c2SimConfig plain;
    plain.lease_interval = 100 * kNsPerUs;  // exercise the periodic ticks too

    // Interleave on/off within the seed so thermal drift hits both evenly.
    {
      const auto t0 = Clock::now();
      sim::R2c2Sim s(topo, router, plain);
      s.add_flows(workload);
      checksum += static_cast<double>(s.run().events);
      off_us.push_back(std::chrono::duration<double, std::micro>(Clock::now() - t0).count());
    }
    {
      recorder.clear();
      obs::MetricsRegistry registry;
      sim::R2c2SimConfig traced = plain;
      traced.trace = &recorder;
      traced.metrics = &registry;
      const auto t0 = Clock::now();
      sim::R2c2Sim s(topo, router, traced);
      s.add_flows(workload);
      checksum += static_cast<double>(s.run().events);
      on_us.push_back(std::chrono::duration<double, std::micro>(Clock::now() - t0).count());
    }
    {
      const auto t0 = Clock::now();
      const std::string json = obs::to_chrome_trace_json(recorder);
      export_us.push_back(std::chrono::duration<double, std::micro>(Clock::now() - t0).count());
      checksum += static_cast<double>(json.size());
    }
    res.events = recorder.total_recorded();
  }
  std::sort(off_us.begin(), off_us.end());
  std::sort(on_us.begin(), on_us.end());
  std::sort(export_us.begin(), export_us.end());
  res.off_us = off_us[off_us.size() / 2];
  res.on_us = on_us[on_us.size() / 2];
  res.export_us = export_us[export_us.size() / 2];
  return res;
}

int run() {
  const double scale = bench_scale();
  const int reps = std::max(3, static_cast<int>(std::lround(7 * scale)));
  const int runs = std::max(3, static_cast<int>(std::lround(5 * scale)));

  const PrimitiveResult prim = run_primitives(reps);
  const SimOverheadResult sim = run_sim_overhead(runs);

  std::printf("%-24s %10.2f ns/op\n", "recorder.record", prim.record_ns);
  std::printf("%-24s %10.2f ns/op\n", "histogram.observe", prim.observe_ns);
  std::printf("%-24s %10.2f ns/op\n", "counter.add", prim.counter_ns);
  std::printf("%-24s %10.1f us (runtime off) %10.1f us (on) %+6.2f%% overhead, %llu events\n",
              sim.name.c_str(), sim.off_us, sim.on_us, sim.overhead_pct(),
              static_cast<unsigned long long>(sim.events));
  std::printf("%-24s %10.1f us\n", "trace export", sim.export_us);

  const char* out_path = std::getenv("R2C2_BENCH_OUT");
  if (out_path == nullptr) out_path = "BENCH_obs.json";
  FILE* f = std::fopen(out_path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path);
    return 1;
  }
  std::fprintf(f, "{\n  \"bench\": \"obs\",\n  \"scale\": %g,\n", scale);
  std::fprintf(f,
               "  \"primitives_ns\": {\"record\": %.2f, \"observe\": %.2f, \"counter_add\": "
               "%.2f},\n",
               prim.record_ns, prim.observe_ns, prim.counter_ns);
  std::fprintf(f,
               "  \"sim_overhead\": {\"name\": \"%s\", \"runs\": %d, \"off_us\": %.1f, "
               "\"on_us\": %.1f, \"overhead_pct\": %.2f, \"events\": %llu, \"export_us\": "
               "%.1f}\n}\n",
               sim.name.c_str(), sim.runs, sim.off_us, sim.on_us, sim.overhead_pct(),
               static_cast<unsigned long long>(sim.events), sim.export_us);
  std::fclose(f);
  std::printf("wrote %s (checksum %g)\n", out_path, checksum);
  return 0;
}

}  // namespace
}  // namespace r2c2::bench

int main() { return r2c2::bench::run(); }
