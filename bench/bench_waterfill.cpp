// Rate-computation fast-path benchmark: CSR/scratch waterfill vs the
// reference implementation, across rack sizes, flow counts and priority
// classes, plus the GA fitness loop (one multi-choice problem solved per
// genotype vs rebuild-per-genotype) and the cost of the recompute span
// (histogram + trace events) around a steady-state solve.
//
// Emits machine-readable JSON to BENCH_waterfill.json (override with
// R2C2_BENCH_OUT) alongside the human-readable table; the committed
// baseline lives at bench/baselines/BENCH_waterfill.json and is referenced
// from EXPERIMENTS.md.
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/rng.h"
#include "congestion/waterfill.h"
#include "obs/metrics.h"
#include "obs/scope.h"
#include "obs/trace.h"
#include "routing/routing.h"
#include "topology/topology.h"

namespace r2c2::bench {
namespace {

using Clock = std::chrono::steady_clock;

double checksum = 0.0;  // defeats dead-code elimination across all timings

std::vector<FlowSpec> bench_flows(const Topology& topo, int n, int priorities, Rng& rng) {
  std::vector<FlowSpec> flows;
  flows.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    FlowSpec f;
    f.id = static_cast<FlowId>(i + 1);
    f.src = static_cast<NodeId>(rng.uniform_int(topo.num_nodes()));
    do {
      f.dst = static_cast<NodeId>(rng.uniform_int(topo.num_nodes()));
    } while (f.dst == f.src);
    f.alg = RouteAlg::kRps;
    f.weight = rng.uniform(0.5, 2.0);
    f.priority = static_cast<std::uint8_t>(rng.uniform_int(static_cast<std::uint64_t>(priorities)));
    // ~30% demand-limited, as after demand-estimation broadcasts.
    f.demand = rng.bernoulli(0.3) ? rng.uniform(0.1, 8.0) * kGbps : kUnlimitedDemand;
    flows.push_back(f);
  }
  return flows;
}

// Median-of-reps wall time for one call of `fn`, in microseconds.
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

struct CaseResult {
  std::string name;
  int nodes = 0, flows = 0, priorities = 0;
  double ref_us = 0, fast_build_us = 0, fast_solve_us = 0;
  double speedup_solve() const { return ref_us / fast_solve_us; }
  double speedup_build() const { return ref_us / fast_build_us; }
};

CaseResult run_case(const Topology& topo, const Router& router, int n_flows, int priorities,
                    int reps) {
  Rng rng(0x5eed + static_cast<std::uint64_t>(n_flows) * 31 +
          static_cast<std::uint64_t>(priorities));
  const auto flows = bench_flows(topo, n_flows, priorities, rng);
  const AllocationConfig cfg{.headroom = 0.05};

  // Warm the router's link-weight cache so neither side pays first-touch
  // route derivation inside the timed region.
  (void)waterfill_reference(router, flows, cfg);

  CaseResult res;
  res.name = std::to_string(topo.num_nodes()) + "n_" + std::to_string(n_flows) + "f_" +
             std::to_string(priorities) + "p";
  res.nodes = topo.num_nodes();
  res.flows = n_flows;
  res.priorities = priorities;

  res.ref_us = time_us(reps, [&] { checksum += waterfill_reference(router, flows, cfg).rate[0]; });

  // Build + solve: the periodic-recompute path when the flow set changed.
  WaterfillProblem problem;
  WaterfillScratch scratch;
  RateAllocation out;
  res.fast_build_us = time_us(reps, [&] {
    problem.build(router, flows, cfg);
    waterfill(problem, scratch, out);
    checksum += out.rate[0];
  });

  // Solve only: the steady-state path (problem cached, scratch reused).
  res.fast_solve_us = time_us(reps, [&] {
    waterfill(problem, scratch, out);
    checksum += out.rate[0];
  });
  return res;
}

struct GaResult {
  int flows = 0, choices = 0, evals = 0;
  double ref_us_per_eval = 0, fast_us_per_eval = 0;
  double speedup() const { return ref_us_per_eval / fast_us_per_eval; }
};

// The GA fitness loop, with and without a prebuilt multi-choice problem:
// identical genotype sequences (elite-style small mutations, as uniform
// crossover + 2% mutation produces), so both sides solve the same problems.
GaResult run_ga_case(const Topology& topo, const Router& router, int n_flows, int evals) {
  Rng rng(0x6a);
  const auto base = bench_flows(topo, n_flows, 1, rng);
  const RouteAlg choices[] = {RouteAlg::kRps, RouteAlg::kDor, RouteAlg::kVlb};
  const AllocationConfig cfg{.headroom = 0.05};

  // Pre-generate the genotype walk.
  std::vector<std::vector<std::uint8_t>> genotypes;
  std::vector<std::uint8_t> g(base.size(), 0);
  for (int e = 0; e < evals; ++e) {
    for (auto& v : g) {
      if (rng.bernoulli(0.02)) v = static_cast<std::uint8_t>(rng.uniform_int(3));
    }
    genotypes.push_back(g);
  }

  GaResult res;
  res.flows = n_flows;
  res.choices = 3;
  res.evals = evals;

  // Reference loop: copy the specs, overwrite .alg per gene, re-derive
  // everything.
  {
    std::vector<FlowSpec> adjusted(base.begin(), base.end());
    const auto t0 = Clock::now();
    for (const auto& geno : genotypes) {
      for (std::size_t i = 0; i < geno.size(); ++i) adjusted[i].alg = choices[geno[i]];
      checksum += waterfill_reference(router, adjusted, cfg).rate[0];
    }
    const auto t1 = Clock::now();
    res.ref_us_per_eval =
        std::chrono::duration<double, std::micro>(t1 - t0).count() / static_cast<double>(evals);
  }

  // Fast loop: one CSR problem with all (flow, choice) rows, each solve
  // given its genotype, reused scratch.
  {
    WaterfillProblem problem;
    problem.build_with_choices(router, base, choices, cfg);
    WaterfillScratch scratch;
    RateAllocation out;
    const auto t0 = Clock::now();
    for (const auto& geno : genotypes) {
      waterfill(problem, geno, scratch, out);
      checksum += out.rate[0];
    }
    const auto t1 = Clock::now();
    res.fast_us_per_eval =
        std::chrono::duration<double, std::micro>(t1 - t0).count() / static_cast<double>(evals);
  }
  return res;
}

struct TraceOverheadResult {
  int flows = 0;
  double plain_us = 0, traced_us = 0;
  double overhead_pct() const { return plain_us > 0 ? (traced_us / plain_us - 1.0) * 100.0 : 0.0; }
};

// The instrumented recompute path exactly as R2c2Sim runs it: an
// obs::ScopedTimer (histogram observe + Begin/End trace events) wrapping
// the steady-state solve, timed against the bare solve.
TraceOverheadResult run_trace_overhead(const Topology& topo, const Router& router, int n_flows,
                                       int reps) {
  Rng rng(0xb0b + static_cast<std::uint64_t>(n_flows));
  const auto flows = bench_flows(topo, n_flows, 1, rng);
  const AllocationConfig cfg{.headroom = 0.05};

  WaterfillProblem problem;
  WaterfillScratch scratch;
  RateAllocation out;
  problem.build(router, flows, cfg);
  waterfill(problem, scratch, out);  // warm the scratch arena

  TraceOverheadResult res;
  res.flows = n_flows;
  res.plain_us = time_us(reps, [&] {
    waterfill(problem, scratch, out);
    checksum += out.rate[0];
  });

  obs::FlightRecorder recorder(1 << 14);
  obs::MetricsRegistry registry;
  obs::Histogram& hist = registry.histogram("bench.recompute_wall_ns");
  res.traced_us = time_us(reps, [&] {
    obs::ScopedTimer span(&hist, &recorder, 0, 0, obs::EventType::kRateRecompute,
                          static_cast<std::uint64_t>(n_flows));
    waterfill(problem, scratch, out);
    checksum += out.rate[0];
  });
  return res;
}

int run() {
  const double scale = bench_scale();
  const int reps = std::max(3, static_cast<int>(std::lround(21 * scale)));

  const Topology rack64 = make_torus({4, 4, 4}, 10 * kGbps, 100);
  const Router router64(rack64);

  std::vector<CaseResult> cases;
  cases.push_back(run_case(rack64, router64, 100, 1, reps));
  cases.push_back(run_case(rack64, router64, 100, 4, reps));
  cases.push_back(run_case(rack512(), router512(), 100, 1, reps));
  cases.push_back(run_case(rack512(), router512(), 1000, 1, reps));
  cases.push_back(run_case(rack512(), router512(), 1000, 4, reps));

  const GaResult ga =
      run_ga_case(rack512(), router512(), 200, std::max(10, static_cast<int>(100 * scale)));
  const TraceOverheadResult trace = run_trace_overhead(rack512(), router512(), 1000, reps);

  std::printf("%-14s %10s %14s %14s %9s %9s\n", "case", "ref_us", "fast_build_us",
              "fast_solve_us", "x(build)", "x(solve)");
  for (const CaseResult& c : cases) {
    std::printf("%-14s %10.1f %14.1f %14.1f %8.1fx %8.1fx\n", c.name.c_str(), c.ref_us,
                c.fast_build_us, c.fast_solve_us, c.speedup_build(), c.speedup_solve());
  }
  std::printf("ga_fitness     %10.1f %14s %14.1f %9s %8.1fx   (%d flows, %d choices, %d evals)\n",
              ga.ref_us_per_eval, "-", ga.fast_us_per_eval, "-", ga.speedup(), ga.flows,
              ga.choices, ga.evals);
  std::printf("tracing: solve %0.1f us plain, %0.1f us traced (%+.2f%% overhead, %d flows)\n",
              trace.plain_us, trace.traced_us, trace.overhead_pct(), trace.flows);

  const char* out_path = std::getenv("R2C2_BENCH_OUT");
  if (out_path == nullptr) out_path = "BENCH_waterfill.json";
  FILE* f = std::fopen(out_path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path);
    return 1;
  }
  std::fprintf(f, "{\n  \"bench\": \"waterfill\",\n  \"scale\": %g,\n  \"reps\": %d,\n", scale,
               reps);
  std::fprintf(f, "  \"cases\": [\n");
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const CaseResult& c = cases[i];
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"nodes\": %d, \"flows\": %d, \"priorities\": %d, "
                 "\"ref_us\": %.2f, \"fast_build_us\": %.2f, \"fast_solve_us\": %.2f, "
                 "\"speedup_build\": %.2f, \"speedup_solve\": %.2f}%s\n",
                 c.name.c_str(), c.nodes, c.flows, c.priorities, c.ref_us, c.fast_build_us,
                 c.fast_solve_us, c.speedup_build(), c.speedup_solve(),
                 i + 1 < cases.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f,
               "  \"ga_fitness\": {\"flows\": %d, \"choices\": %d, \"evals\": %d, "
               "\"ref_us_per_eval\": %.2f, \"fast_us_per_eval\": %.2f, \"speedup\": %.2f},\n",
               ga.flows, ga.choices, ga.evals, ga.ref_us_per_eval, ga.fast_us_per_eval,
               ga.speedup());
  std::fprintf(f,
               "  \"tracing\": {\"flows\": %d, \"plain_us\": %.2f, \"traced_us\": %.2f, "
               "\"overhead_pct\": %.2f}\n",
               trace.flows, trace.plain_us, trace.traced_us, trace.overhead_pct());
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("wrote %s (checksum %g)\n", out_path, checksum);
  return 0;
}

}  // namespace
}  // namespace r2c2::bench

int main() { return r2c2::bench::run(); }
