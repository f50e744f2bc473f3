// Adaptive-routing benchmark: what congestion-aware spraying buys on the
// Clos path (Section 6 discussion extended with live ECN-style marks), and
// what the Router's weight cache costs for kVlb at rack scale.
//
// Three sections, one JSON report:
//
//   1. Torus vs folded-Clos head-to-head under an asymmetric gray fault
//      (one directed link / leaf->spine uplink degraded mid-workload).
//      Per topology and spray algorithm (RPS, VLB), two stacks face the
//      same workload and seeds:
//        static     reliability only — the spray keeps feeding the
//                   degraded cable at full weight
//        adaptive   phi-accrual demotion plus congestion-aware spraying:
//                   weight 1/(1 + penalty + gain*mark) per candidate hop
//      A clean no-fault run of the same workload is the control;
//      fct_x = mean FCT / clean mean FCT (lower is better).
//
//   2. The weight cache under kVlb at 4096 servers (64 leaves x 64
//      servers/leaf): a scattered working set streams through a
//      byte-budgeted Router and resident bytes, the kRps entries each
//      kVlb entry averages included, must never exceed the budget (the
//      LRU floor is one tile). Per-pair tables at this size would be
//      multiple GB; the tile budget here is a few MiB.
//
//   3. Worker-count digest identity in adaptive mode: the same sharded
//      trajectory run with 1 and 4 workers must produce bit-identical
//      state and metrics digests even while marks steer the spray.
//
// Sections 2 and 3 are hard gates (non-zero exit on violation); section 1
// is reported for EXPERIMENTS.md. Emits JSON to BENCH_adaptive.json
// (override with R2C2_BENCH_OUT); the committed baseline lives at
// bench/baselines/BENCH_adaptive.json.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "routing/routing.h"
#include "sim/fault.h"
#include "snapshot/replay.h"

namespace r2c2::bench {
namespace {

struct ModeResult {
  double fct_x = 1.0;
  double goodput_gbps = 0;
  double gray_drops = 0;
  double demoted = 0;
};

struct CaseResult {
  std::string topo;
  std::string alg;
  ModeResult st;  // static spray
  ModeResult ad;  // adaptive spray
};

sim::R2c2SimConfig stack_config(bool adaptive) {
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
  cfg.congestion_aware = adaptive;
  cfg.ecn_threshold_bytes = 4 * 1024;
  return cfg;
}

// Poisson workload over the first `servers` nodes only, every flow on the
// given spray algorithm (leaves/spines of a Clos are transit-only).
std::vector<FlowArrival> server_workload(int servers, std::size_t flows, RouteAlg alg,
                                         std::uint64_t seed) {
  WorkloadConfig cfg;
  cfg.num_nodes = servers;
  cfg.num_flows = flows;
  cfg.mean_interarrival = 5 * kNsPerUs;
  cfg.seed = seed;
  std::vector<FlowArrival> arrivals = generate_poisson_uniform(cfg);
  for (FlowArrival& a : arrivals) a.alg = static_cast<std::int8_t>(alg);
  return arrivals;
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

CaseResult run_case(const char* topo_name, const Topology& topo, const Router& router,
                    int servers, LinkId victim, const char* alg_name, RouteAlg alg, int runs) {
  CaseResult res;
  res.topo = topo_name;
  res.alg = alg_name;
  const std::size_t flows = std::max<std::size_t>(40, scaled(160));

  std::vector<double> fct_s, fct_a, good_s, good_a, drops_s, drops_a, dem;
  for (int r = 0; r < runs; ++r) {
    const std::uint64_t seed = 3000 + static_cast<std::uint64_t>(r);
    const auto workload = server_workload(servers, flows, alg, seed);
    sim::LinkDegrade gray;
    gray.loss_prob = 0.10;
    gray.added_latency = 1 * kNsPerUs;

    sim::R2c2SimConfig st = stack_config(false);
    st.faults.events.push_back(sim::FaultScript::degrade_link(40 * kNsPerUs, victim, gray));
    sim::R2c2SimConfig ad = stack_config(true);
    ad.faults.events.push_back(sim::FaultScript::degrade_link(40 * kNsPerUs, victim, gray));

    const sim::RunMetrics ms = run_r2c2(topo, router, workload, st);
    const sim::RunMetrics ma = run_r2c2(topo, router, workload, ad);
    const sim::RunMetrics mc = run_r2c2(topo, router, workload, stack_config(false));

    const double base = mean_fct_us(mc);
    if (base > 0) {
      fct_s.push_back(mean_fct_us(ms) / base);
      fct_a.push_back(mean_fct_us(ma) / base);
    }
    good_s.push_back(goodput_gbps(ms));
    good_a.push_back(goodput_gbps(ma));
    drops_s.push_back(static_cast<double>(ms.gray_drops));
    drops_a.push_back(static_cast<double>(ma.gray_drops));
    dem.push_back(static_cast<double>(ma.links_demoted));
  }

  res.st.fct_x = fct_s.empty() ? 1.0 : mean_of(fct_s);
  res.st.goodput_gbps = mean_of(good_s);
  res.st.gray_drops = mean_of(drops_s);
  res.ad.fct_x = fct_a.empty() ? 1.0 : mean_of(fct_a);
  res.ad.goodput_gbps = mean_of(good_a);
  res.ad.gray_drops = mean_of(drops_a);
  res.ad.demoted = mean_of(dem);
  return res;
}

struct TileResult {
  int nodes = 0;
  int servers = 0;
  std::uint64_t budget_bytes = 0;
  std::uint64_t max_resident_bytes = 0;
  std::uint64_t resident_tiles = 0;
  std::uint64_t evictions = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  bool within_budget = false;
};

TileResult tile_bound_check() {
  // 64 leaves x 64 servers/leaf: the rack size a per-pair table could
  // never afford. The budget is deliberately tiny relative to the full table so
  // the LRU actually works for a living.
  ClosSpec spec;
  spec.servers_per_leaf = 64;
  spec.num_leaves = 64;
  spec.num_spines = 16;
  const Topology topo = make_folded_clos(spec);
  TileResult res;
  res.servers = spec.servers_per_leaf * spec.num_leaves;
  res.nodes = topo.num_nodes();

  Router::TileConfig tiles;
  tiles.tile_shape = 64;
  tiles.max_resident_bytes = std::uint64_t{8} << 20;  // 8 MiB
  res.budget_bytes = tiles.max_resident_bytes;
  const Router router(topo, tiles);

  // A scattered working set: far more distinct tiles than the budget can
  // hold at once, queried in a shuffled order so eviction and re-derivation
  // both happen.
  Rng pick(97);
  res.within_budget = true;
  const std::size_t queries = std::max<std::size_t>(64, scaled(192));
  for (std::size_t q = 0; q < queries; ++q) {
    const NodeId src = static_cast<NodeId>(pick.uniform_int(static_cast<std::uint64_t>(res.servers)));
    const NodeId dst = static_cast<NodeId>(pick.uniform_int(static_cast<std::uint64_t>(res.servers)));
    if (src == dst) continue;
    (void)router.link_weights(RouteAlg::kVlb, src, dst);
    const Router::TileStats s = router.tile_stats();
    if (s.resident_bytes > res.max_resident_bytes) res.max_resident_bytes = s.resident_bytes;
    if (s.resident_bytes > res.budget_bytes) res.within_budget = false;
  }
  const Router::TileStats s = router.tile_stats();
  res.resident_tiles = s.resident_tiles;
  res.evictions = s.evictions;
  res.hits = s.hits;
  res.misses = s.misses;
  return res;
}

struct DigestResult {
  std::uint64_t state_w1 = 0, state_w4 = 0;
  std::uint64_t metrics_w1 = 0, metrics_w4 = 0;
  bool identical = false;
};

DigestResult worker_digest_check() {
  ClosSpec spec;
  spec.servers_per_leaf = 4;
  spec.num_leaves = 4;
  spec.num_spines = 2;
  const Topology topo = make_folded_clos(spec);
  const Router router(topo);
  const auto workload = server_workload(16, 60, RouteAlg::kRps, 77);
  const LinkId uplink = topo.find_link(16, 20);  // leaf0 -> spine0

  auto digest_at = [&](int workers, std::uint64_t& state, std::uint64_t& metrics) {
    sim::R2c2SimConfig cfg = stack_config(true);
    sim::LinkDegrade gray;
    gray.loss_prob = 0.25;
    gray.added_latency = 2 * kNsPerUs;
    cfg.faults.events.push_back(sim::FaultScript::degrade_link(40 * kNsPerUs, uplink, gray));
    cfg.engine_shards = 4;
    cfg.engine_workers = workers;
    sim::R2c2Sim s(topo, router, cfg);
    s.add_flows(workload);
    const sim::RunMetrics m = s.run();
    state = s.state_digest();
    metrics = snapshot::metrics_digest(m);
  };

  DigestResult res;
  digest_at(1, res.state_w1, res.metrics_w1);
  digest_at(4, res.state_w4, res.metrics_w4);
  res.identical = res.state_w1 == res.state_w4 && res.metrics_w1 == res.metrics_w4;
  return res;
}

int run() {
  const double scale = bench_scale();
  const int runs = std::max(3, static_cast<int>(std::lround(5 * scale)));

  // Same server count on both topologies so the head-to-head is fair: a
  // 16-node 2D torus vs 16 servers under 4 leaves and 2 spines. (The
  // source-routing header packs each hop's port into 3 bits, so simulated
  // switches are capped at 8 ports — bigger racks are weights-only, see
  // the tile section.)
  const Topology torus = make_torus({4, 4}, 10 * kGbps, 100);
  const Router torus_router(torus);
  ClosSpec spec;
  spec.servers_per_leaf = 4;
  spec.num_leaves = 4;
  spec.num_spines = 2;
  const Topology clos = make_folded_clos(spec);
  const Router clos_router(clos);
  const LinkId torus_victim = torus.find_link(0, 1);
  const LinkId clos_victim = clos.find_link(16, 20);  // leaf0 -> spine0

  std::vector<CaseResult> cases;
  cases.push_back(
      run_case("torus_4x4", torus, torus_router, 16, torus_victim, "rps", RouteAlg::kRps, runs));
  cases.push_back(
      run_case("clos_16s4l2s", clos, clos_router, 16, clos_victim, "rps", RouteAlg::kRps, runs));
  cases.push_back(
      run_case("torus_4x4", torus, torus_router, 16, torus_victim, "vlb", RouteAlg::kVlb, runs));
  cases.push_back(
      run_case("clos_16s4l2s", clos, clos_router, 16, clos_victim, "vlb", RouteAlg::kVlb, runs));

  std::printf("%-13s %-4s %-9s %7s %13s %11s %8s\n", "topo", "alg", "stack", "fct_x",
              "goodput_gbps", "gray_drops", "demoted");
  for (const CaseResult& c : cases) {
    std::printf("%-13s %-4s %-9s %6.2fx %13.2f %11.1f %8.1f\n", c.topo.c_str(), c.alg.c_str(),
                "static", c.st.fct_x, c.st.goodput_gbps, c.st.gray_drops, 0.0);
    std::printf("%-13s %-4s %-9s %6.2fx %13.2f %11.1f %8.1f\n", c.topo.c_str(), c.alg.c_str(),
                "adaptive", c.ad.fct_x, c.ad.goodput_gbps, c.ad.gray_drops, c.ad.demoted);
  }

  const TileResult tiles = tile_bound_check();
  std::printf("tile cache @ %d nodes: max resident %.2f MiB of %.2f MiB budget "
              "(%llu tiles, %llu evictions, %llu hits, %llu misses) %s\n",
              tiles.nodes, static_cast<double>(tiles.max_resident_bytes) / (1 << 20),
              static_cast<double>(tiles.budget_bytes) / (1 << 20),
              static_cast<unsigned long long>(tiles.resident_tiles),
              static_cast<unsigned long long>(tiles.evictions),
              static_cast<unsigned long long>(tiles.hits),
              static_cast<unsigned long long>(tiles.misses),
              tiles.within_budget ? "OK" : "OVER BUDGET");

  const DigestResult dig = worker_digest_check();
  std::printf("adaptive 1v4 workers: state %016llx/%016llx metrics %016llx/%016llx %s\n",
              static_cast<unsigned long long>(dig.state_w1),
              static_cast<unsigned long long>(dig.state_w4),
              static_cast<unsigned long long>(dig.metrics_w1),
              static_cast<unsigned long long>(dig.metrics_w4),
              dig.identical ? "IDENTICAL" : "DIVERGED");

  const char* out_path = std::getenv("R2C2_BENCH_OUT");
  if (out_path == nullptr) out_path = "BENCH_adaptive.json";
  FILE* f = std::fopen(out_path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path);
    return 1;
  }
  std::fprintf(f, "{\n  \"bench\": \"adaptive\",\n  \"scale\": %g,\n  \"runs\": %d,\n", scale,
               runs);
  std::fprintf(f, "  \"hardware_threads\": %u,\n", std::thread::hardware_concurrency());
  std::fprintf(f, "  \"cases\": [\n");
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const CaseResult& c = cases[i];
    auto mode = [&](const char* name, const ModeResult& m, bool last) {
      std::fprintf(f,
                   "      {\"stack\": \"%s\", \"fct_x\": %.3f, \"goodput_gbps\": %.3f, "
                   "\"gray_drops\": %.1f, \"demoted\": %.1f}%s\n",
                   name, m.fct_x, m.goodput_gbps, m.gray_drops, m.demoted, last ? "" : ",");
    };
    std::fprintf(f, "    {\"topo\": \"%s\", \"alg\": \"%s\", \"modes\": [\n", c.topo.c_str(),
                 c.alg.c_str());
    mode("static", c.st, false);
    mode("adaptive", c.ad, true);
    std::fprintf(f, "    ]}%s\n", i + 1 < cases.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f,
               "  \"tile_cache\": {\"nodes\": %d, \"servers\": %d, \"budget_bytes\": %llu, "
               "\"max_resident_bytes\": %llu, \"resident_tiles\": %llu, \"evictions\": %llu, "
               "\"hits\": %llu, \"misses\": %llu, \"within_budget\": %s},\n",
               tiles.nodes, tiles.servers, static_cast<unsigned long long>(tiles.budget_bytes),
               static_cast<unsigned long long>(tiles.max_resident_bytes),
               static_cast<unsigned long long>(tiles.resident_tiles),
               static_cast<unsigned long long>(tiles.evictions),
               static_cast<unsigned long long>(tiles.hits),
               static_cast<unsigned long long>(tiles.misses),
               tiles.within_budget ? "true" : "false");
  std::fprintf(f,
               "  \"worker_digest_identity\": {\"shards\": 4, \"workers\": [1, 4], "
               "\"state_w1\": \"%016llx\", \"state_w4\": \"%016llx\", "
               "\"metrics_w1\": \"%016llx\", \"metrics_w4\": \"%016llx\", "
               "\"identical\": %s}\n",
               static_cast<unsigned long long>(dig.state_w1),
               static_cast<unsigned long long>(dig.state_w4),
               static_cast<unsigned long long>(dig.metrics_w1),
               static_cast<unsigned long long>(dig.metrics_w4),
               dig.identical ? "true" : "false");
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("wrote %s\n", out_path);
  return (tiles.within_budget && dig.identical) ? 0 : 1;
}

}  // namespace
}  // namespace r2c2::bench

int main() { return r2c2::bench::run(); }
