// Sharded-engine benchmark: full R2C2 simulation wall time on the 4096-node
// 3D torus (16x16x16, the rack-scale ceiling the paper targets) in three
// engine modes:
//
//   serial     - the 1-shard engine (engine_shards = 1): one lane, the global
//                lane, run by the same driver as a run of serial phases
//   sharded/1  - 8-way sharded engine, batched window dispatch, one worker
//   sharded/W  - same partition run by W = 2, 4, 8 workers
//
// The shard count is part of the trajectory, so serial and sharded runs are
// compared on wall clock only; across worker counts the run must be
// bit-identical (state digest and metrics digest), and any mismatch prints
// DETERMINISM VIOLATION and exits nonzero.
//
// Emits machine-readable JSON to BENCH_engine.json (override with
// R2C2_BENCH_OUT); the committed baseline lives at
// bench/baselines/BENCH_engine.json and is referenced from EXPERIMENTS.md.
// Speedups are meaningful only on multi-core hosts; the JSON records
// hardware_threads so baselines from different machines compare fairly.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/thread_pool.h"
#include "snapshot/replay.h"

namespace r2c2::bench {
namespace {

using Clock = std::chrono::steady_clock;

struct ModeResult {
  std::string label;
  int shards = 0;
  int workers = 0;
  double wall_ms = 0.0;
  std::uint64_t events = 0;
  std::uint64_t state_digest = 0;
  std::uint64_t metrics_digest = 0;
};

ModeResult run_mode(const char* label, const Topology& topo, const Router& router,
                    const std::vector<FlowArrival>& arrivals, int shards, int workers) {
  sim::R2c2SimConfig cfg;
  cfg.route_alg = RouteAlg::kDor;
  cfg.broadcast_trees = 1;  // a 4096-node tree's FIB is 16 MiB; one is plenty
  cfg.recompute_interval = 500 * kNsPerUs;
  cfg.engine_shards = shards;
  cfg.engine_workers = workers;
  sim::R2c2Sim s(topo, router, cfg);
  s.add_flows(arrivals);

  const auto t0 = Clock::now();
  const sim::RunMetrics m = s.run();
  const auto t1 = Clock::now();

  ModeResult r;
  r.label = label;
  r.shards = shards;
  r.workers = workers;
  r.wall_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
  r.events = m.events;
  r.state_digest = s.state_digest();
  r.metrics_digest = snapshot::metrics_digest(m);
  return r;
}

// R2C2_BENCH_ENGINE_NODES picks the torus size for the EXPERIMENTS.md
// scaling table: 512 (8x8x8), 2048 (16x16x8) or 4096 (16x16x16, default).
std::vector<int> torus_dims() {
  if (const char* s = std::getenv("R2C2_BENCH_ENGINE_NODES")) {
    const long n = std::atol(s);
    if (n == 512) return {8, 8, 8};
    if (n == 2048) return {16, 16, 8};
    if (n != 4096) std::fprintf(stderr, "unknown node count %s, using 4096\n", s);
  }
  return {16, 16, 16};
}

int run() {
  const double scale = bench_scale();
  const Topology topo = make_torus(torus_dims(), 10 * kGbps, 500);
  const Router router(topo);
  const std::size_t n_flows = scaled(topo.num_nodes() / 2);

  WorkloadConfig wl;
  wl.num_nodes = topo.num_nodes();
  wl.num_flows = n_flows;
  wl.mean_interarrival = 1 * kNsPerUs;
  wl.mean_bytes = 96.0 * 1024.0;
  wl.max_bytes = 128 * 1024;
  wl.seed = 0x456e67;
  const std::vector<FlowArrival> arrivals = generate_poisson_uniform(wl);

  const int hardware = ThreadPool::hardware_workers() + 1;
  std::printf("== bench_engine: %zu-node torus, %zu flows, DOR ==\n", topo.num_nodes(), n_flows);
  std::printf("host hardware threads: %d\n\n", hardware);

  std::vector<ModeResult> results;
  results.push_back(run_mode("serial", topo, router, arrivals, 1, 1));
  for (const int workers : {1, 2, 4, 8}) {
    const std::string label = "sharded/" + std::to_string(workers);
    results.push_back(run_mode(label.c_str(), topo, router, arrivals, 8, workers));
  }

  // Workers are pure parallelism: every sharded run must match sharded/1
  // bit for bit. (serial has a different trajectory — wall clock only.)
  const ModeResult& sharded1 = results[1];
  bool identical = true;
  for (std::size_t i = 2; i < results.size(); ++i) {
    const ModeResult& r = results[i];
    if (r.state_digest != sharded1.state_digest ||
        r.metrics_digest != sharded1.metrics_digest || r.events != sharded1.events) {
      identical = false;
      std::fprintf(stderr, "DETERMINISM VIOLATION at workers=%d\n", r.workers);
    }
  }

  std::printf("%10s %8s %8s %12s %10s %9s\n", "mode", "shards", "workers", "events", "wall_ms",
              "speedup");
  for (const ModeResult& r : results) {
    std::printf("%10s %8d %8d %12llu %10.1f %8.2fx\n", r.label.c_str(), r.shards, r.workers,
                static_cast<unsigned long long>(r.events), r.wall_ms,
                sharded1.wall_ms / r.wall_ms);
  }
  std::printf("\nsharded runs bit-identical across worker counts: %s\n",
              identical ? "yes" : "NO");

  const char* out_path = std::getenv("R2C2_BENCH_OUT");
  if (out_path == nullptr) out_path = "BENCH_engine.json";
  FILE* f = std::fopen(out_path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path);
    return 1;
  }
  std::fprintf(f, "{\n  \"bench\": \"engine\",\n  \"scale\": %g,\n", scale);
  std::fprintf(f, "  \"nodes\": %zu,\n  \"flows\": %zu,\n", topo.num_nodes(), n_flows);
  std::fprintf(f, "  \"hardware_threads\": %d,\n", hardware);
  std::fprintf(f, "  \"identical_across_workers\": %s,\n", identical ? "true" : "false");
  std::fprintf(f, "  \"results\": [\n");
  for (std::size_t i = 0; i < results.size(); ++i) {
    const ModeResult& r = results[i];
    std::fprintf(f,
                 "    {\"mode\": \"%s\", \"shards\": %d, \"workers\": %d, \"events\": %llu, "
                 "\"wall_ms\": %.2f, \"speedup\": %.2f, \"state_digest\": \"%016llx\"}%s\n",
                 r.label.c_str(), r.shards, r.workers,
                 static_cast<unsigned long long>(r.events), r.wall_ms,
                 sharded1.wall_ms / r.wall_ms,
                 static_cast<unsigned long long>(r.state_digest),
                 i + 1 < results.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", out_path);
  return identical ? 0 : 1;
}

}  // namespace
}  // namespace r2c2::bench

int main() { return r2c2::bench::run(); }
