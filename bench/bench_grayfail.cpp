// Gray-failure benchmark: what a lossy-but-alive link costs the rack, and
// what adaptive (phi-accrual) detection buys back (Section 3.2 extended to
// gray faults).
//
// One cable degrades mid-workload to a persistent loss rate — it never
// goes dark, so binary keepalive deadlines never fire. Two stacks face it
// with the same workload and seeds:
//
//   blind      reliability only: every loss is re-earned via RTO; routing
//              keeps spraying packets through the degraded cable
//   adaptive   suspicion scan demotes the lossy link (weight 1/(1+penalty)
//              in the randomized walks) and traffic drains around it
//
// A clean no-fault run of the same workload is the control. Reported per
// loss rate, averaged over several seeds:
//
//   fct_x        mean FCT / clean mean FCT (lower is better)
//   goodput      finished payload bits / sim duration
//   gray_drops   packets the degraded cable ate
//   demoted      suspicion crossings (adaptive only, by construction)
//   spurious     binary dead declarations (must stay 0: lossy != dead)
//
// Emits machine-readable JSON to BENCH_grayfail.json (override with
// R2C2_BENCH_OUT); the committed baseline lives at
// bench/baselines/BENCH_grayfail.json and is referenced from
// EXPERIMENTS.md.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_common.h"
#include "sim/fault.h"

namespace r2c2::bench {
namespace {

struct LossCase {
  const char* name;
  double loss;
};

struct ModeResult {
  int runs = 0;
  double fct_x = 1.0;        // mean FCT vs the clean control
  double goodput_gbps = 0;   // finished payload over the run's duration
  double gray_drops = 0;
  double demoted = 0;
  double spurious = 0;       // binary failure detections (want: none)
  double aborts = 0;
};

struct CaseResult {
  std::string name;
  double loss = 0;
  ModeResult blind;
  ModeResult adaptive;
};

sim::R2c2SimConfig gray_config(bool adaptive) {
  sim::R2c2SimConfig cfg;
  cfg.reliable = true;
  cfg.rto = 150 * kNsPerUs;
  cfg.adaptive_rto = true;
  cfg.max_rto = 5000 * kNsPerUs;
  cfg.max_retransmits = 32;
  cfg.retransmit_jitter = true;
  cfg.keepalive_interval = 10 * kNsPerUs;
  cfg.lease_interval = 100 * kNsPerUs;
  cfg.adaptive_detection = adaptive;
  return cfg;
}

double mean_fct_us(const sim::RunMetrics& m) {
  std::vector<double> v;
  for (const auto& f : m.flows) {
    if (f.finished()) v.push_back(static_cast<double>(f.fct()) / 1e3);
  }
  return mean_of(v);
}

double goodput_gbps(const sim::RunMetrics& m) {
  std::uint64_t bytes = 0;
  for (const auto& f : m.flows) {
    if (f.finished()) bytes += f.bytes;
  }
  return m.sim_end > 0 ? static_cast<double>(bytes) * 8.0 / static_cast<double>(m.sim_end) : 0.0;
}

CaseResult run_case(const LossCase& lc, int runs) {
  const Topology topo = make_torus({4, 4, 4}, 10 * kGbps, 100);
  const Router router(topo);
  const std::size_t flows = std::max<std::size_t>(40, scaled(200));

  CaseResult res;
  res.name = lc.name;
  res.loss = lc.loss;

  std::vector<double> fct_blind, fct_adaptive, good_blind, good_adaptive;
  std::vector<double> drops_blind, drops_adaptive, demoted, spurious_b, spurious_a, aborts_b,
      aborts_a;
  for (int r = 0; r < runs; ++r) {
    const std::uint64_t seed = 3000 + static_cast<std::uint64_t>(r);
    const auto workload = paper_workload(topo, flows, 5 * kNsPerUs, seed);
    Rng pick(seed * 11 + 5);
    const LinkId victim = random_link(topo, pick);
    sim::LinkDegrade gray;
    gray.loss_prob = lc.loss;

    sim::R2c2SimConfig blind = gray_config(false);
    blind.faults.events.push_back(sim::FaultScript::degrade_link(40 * kNsPerUs, victim, gray));
    sim::R2c2SimConfig adaptive = gray_config(true);
    adaptive.faults.events.push_back(sim::FaultScript::degrade_link(40 * kNsPerUs, victim, gray));

    const sim::RunMetrics mb = run_r2c2(topo, router, workload, blind);
    const sim::RunMetrics ma = run_r2c2(topo, router, workload, adaptive);
    const sim::RunMetrics mc = run_r2c2(topo, router, workload, gray_config(false));

    const double base = mean_fct_us(mc);
    if (base > 0) {
      fct_blind.push_back(mean_fct_us(mb) / base);
      fct_adaptive.push_back(mean_fct_us(ma) / base);
    }
    good_blind.push_back(goodput_gbps(mb));
    good_adaptive.push_back(goodput_gbps(ma));
    drops_blind.push_back(static_cast<double>(mb.gray_drops));
    drops_adaptive.push_back(static_cast<double>(ma.gray_drops));
    demoted.push_back(static_cast<double>(ma.links_demoted));
    spurious_b.push_back(static_cast<double>(mb.failures_detected));
    spurious_a.push_back(static_cast<double>(ma.failures_detected));
    aborts_b.push_back(static_cast<double>(mb.flow_aborts));
    aborts_a.push_back(static_cast<double>(ma.flow_aborts));
  }

  res.blind.runs = runs;
  res.blind.fct_x = fct_blind.empty() ? 1.0 : mean_of(fct_blind);
  res.blind.goodput_gbps = mean_of(good_blind);
  res.blind.gray_drops = mean_of(drops_blind);
  res.blind.spurious = mean_of(spurious_b);
  res.blind.aborts = mean_of(aborts_b);
  res.adaptive.runs = runs;
  res.adaptive.fct_x = fct_adaptive.empty() ? 1.0 : mean_of(fct_adaptive);
  res.adaptive.goodput_gbps = mean_of(good_adaptive);
  res.adaptive.gray_drops = mean_of(drops_adaptive);
  res.adaptive.demoted = mean_of(demoted);
  res.adaptive.spurious = mean_of(spurious_a);
  res.adaptive.aborts = mean_of(aborts_a);
  return res;
}

int run() {
  const double scale = bench_scale();
  const int runs = std::max(3, static_cast<int>(std::lround(5 * scale)));

  const std::vector<LossCase> losses = {
      {"loss_2pct", 0.02},
      {"loss_5pct", 0.05},
      {"loss_10pct", 0.10},
  };

  std::vector<CaseResult> cases;
  for (const LossCase& lc : losses) cases.push_back(run_case(lc, runs));

  std::printf("%-11s %-9s %7s %13s %11s %8s %9s %7s\n", "case", "stack", "fct_x", "goodput_gbps",
              "gray_drops", "demoted", "spurious", "aborts");
  for (const CaseResult& c : cases) {
    std::printf("%-11s %-9s %6.2fx %13.2f %11.1f %8.1f %9.1f %7.1f\n", c.name.c_str(), "blind",
                c.blind.fct_x, c.blind.goodput_gbps, c.blind.gray_drops, 0.0, c.blind.spurious,
                c.blind.aborts);
    std::printf("%-11s %-9s %6.2fx %13.2f %11.1f %8.1f %9.1f %7.1f\n", c.name.c_str(), "adaptive",
                c.adaptive.fct_x, c.adaptive.goodput_gbps, c.adaptive.gray_drops,
                c.adaptive.demoted, c.adaptive.spurious, c.adaptive.aborts);
  }

  const char* out_path = std::getenv("R2C2_BENCH_OUT");
  if (out_path == nullptr) out_path = "BENCH_grayfail.json";
  FILE* f = std::fopen(out_path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path);
    return 1;
  }
  std::fprintf(f, "{\n  \"bench\": \"grayfail\",\n  \"scale\": %g,\n  \"runs\": %d,\n", scale,
               runs);
  std::fprintf(f, "  \"cases\": [\n");
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const CaseResult& c = cases[i];
    auto mode = [&](const char* name, const ModeResult& m, bool last) {
      std::fprintf(f,
                   "      {\"stack\": \"%s\", \"fct_x\": %.3f, \"goodput_gbps\": %.3f, "
                   "\"gray_drops\": %.1f, \"demoted\": %.1f, \"spurious\": %.1f, "
                   "\"aborts\": %.1f}%s\n",
                   name, m.fct_x, m.goodput_gbps, m.gray_drops, m.demoted, m.spurious, m.aborts,
                   last ? "" : ",");
    };
    std::fprintf(f, "    {\"name\": \"%s\", \"loss\": %.3f, \"modes\": [\n", c.name.c_str(),
                 c.loss);
    mode("blind", c.blind, false);
    mode("adaptive", c.adaptive, true);
    std::fprintf(f, "    ]}%s\n", i + 1 < cases.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", out_path);
  return 0;
}

}  // namespace
}  // namespace r2c2::bench

int main() { return r2c2::bench::run(); }
