// Rack benchmark program: runs one workload through the public APIs of the
// r2c2 libraries, checks its outputs, and reports its metrics.
//
//   rackbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Untraced (--trace 0): repeats "set up, run" with fresh objects while the
// next repetition still fits in --seconds of wall time (at least kMinReps
// times) and reports medians of the end-to-end metrics. Traced
// (--trace 1): alternates untraced and traced repetitions, then replays the
// hot calls on the workload's own inputs and, for the simulations, a
// mid-run snapshot round trip; reports the per-layer metrics and where the
// time and events went. Either way every repetition's outputs are checked,
// and the cross-check at a second worker or thread count runs once, after
// the first repetition's timed part; its time counts against --seconds.
//
// Tables go to stdout. The last line is "RESULT <json>" with the checks,
// provenance, metrics and sample counts; run.py turns it into the
// benchmark's result line.
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "broadcast/broadcast.h"
#include "checks.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/thread_pool.h"
#include "congestion/waterfill.h"
#include "control/route_selection.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "routing/routing.h"
#include "service/service.h"
#include "sim/r2c2_sim.h"
#include "snapshot/archive.h"
#include "snapshot/replay.h"
#include "topology/topology.h"
#include "workload/generator.h"

namespace rackbench {
namespace {

using namespace r2c2;
using Clock = std::chrono::steady_clock;

// Timed repetitions per run even once --seconds is used up: the median
// needs three, the repeat-identity check two. Each repetition sets up
// afresh right after the previous run, so setup_s is the median of as
// many set-ups, all made with caches the previous run left cold.
constexpr std::size_t kMinReps = 3;
constexpr std::size_t kMaxReps = 64;
// Probe loops run at least this long.
constexpr double kProbe_s = 0.2;

// ---------------------------------------------------------------------------
// Process measurements

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// User + system CPU of the whole process (every thread).
double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

// Heap bytes in use. Unlike RSS it also sees allocations that reuse pages
// an earlier repetition freed.
double heap_mb() {
  const struct mallinfo2 mi = mallinfo2();
  return static_cast<double>(mi.uordblks + mi.hblkhd) / (1024.0 * 1024.0);
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t state = seed ^ (salt * 0x9e3779b97f4a7c15ULL);
  return splitmix64(state);
}

// ---------------------------------------------------------------------------
// Spans around every public call this file makes. Kept in memory and
// written out at the end; inert when no recorder is given.

class Spans {
 public:
  struct Span {
    std::string name;
    int parent = -1;
    double start = 0.0;  // seconds since the recorder was created
    double end = 0.0;
  };

  class Scope {
   public:
    Scope(Spans* owner, const char* name) : owner_(owner) {
      if (owner_ != nullptr) index_ = owner_->open(name);
    }
    ~Scope() {
      if (owner_ != nullptr) owner_->close(index_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Spans* owner_;
    int index_ = -1;
  };

  struct Total {
    std::size_t count = 0;
    double total = 0.0;
    double self = 0.0;  // total minus the part child spans cover
  };
  std::map<std::string, Total> totals() const {
    std::vector<double> child(spans_.size(), 0.0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) child[static_cast<std::size_t>(s.parent)] += s.end - s.start;
    }
    std::map<std::string, Total> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      Total& t = out[spans_[i].name];
      ++t.count;
      t.total += spans_[i].end - spans_[i].start;
      t.self += spans_[i].end - spans_[i].start - child[i];
    }
    return out;
  }

  // Chrome trace-event JSON (chrome://tracing, ui.perfetto.dev).
  bool write_chrome(const std::string& path) const {
    FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\"traceEvents\": [\n");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "  {\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": %.3f, "
                   "\"dur\": %.3f, \"args\": {\"id\": %zu, \"parent\": %d}}%s\n",
                   s.name.c_str(), s.start * 1e6, (s.end - s.start) * 1e6, i, s.parent,
                   i + 1 < spans_.size() ? "," : "");
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
  }

 private:
  int open(const char* name) {
    spans_.push_back({name, open_, seconds_since(t0_), 0.0});
    open_ = static_cast<int>(spans_.size()) - 1;
    return open_;
  }
  void close(int index) {
    Span& s = spans_[static_cast<std::size_t>(index)];
    s.end = seconds_since(t0_);
    open_ = s.parent;
  }

  Clock::time_point t0_ = Clock::now();
  std::vector<Span> spans_;
  int open_ = -1;
};

// Runs `fn` inside a span and returns its wall time in seconds.
template <typename F>
double timed(Spans* spans, const char* name, F&& fn) {
  Spans::Scope scope(spans, name);
  const auto t0 = Clock::now();
  fn();
  return seconds_since(t0);
}

// ---------------------------------------------------------------------------
// Metrics

struct Metric {
  double value = 0.0;
  std::string unit;
  long samples = -1;  // samples behind a median or percentile; -1: not one
};
using MetricMap = std::map<std::string, Metric>;

struct MetricDef {
  const char* name;
  const char* unit;
};

// End-to-end metrics, reported by every workload. lat_* is the simulated
// completion time of the workload's unit of work, as exact order
// statistics: every flow of the rack workload (all capped at 128 KB; paper
// Figs. 10/12 take the flows under 100 KB), flows into the slowest tenant's
// clients on the service workload, and a 1 MiB transfer at each flow's
// allocated rate under the GA's routes.
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},      {"run_s", "s"},       {"cpu_s", "s"},
    {"peak_rss_mb", "MB"}, {"lat_p50_us", "us"}, {"lat_p99_us", "us"},
};

// Per-layer metrics, named after the repository's modules. A layer that a
// workload does not exercise reports 0.
constexpr MetricDef kPerLayer[] = {
    {"workload.gen_ms", "ms"},
    {"topology.build_s", "s"},
    {"routing.router_build_s", "s"},
    {"routing.heap_mb", "MB"},
    {"routing.resident_mb", "MB"},
    {"routing.weights_warm_s", "s"},
    {"routing.pick_ns", "ns"},
    {"routing.picks", "count"},
    {"broadcast.trees_build_s", "s"},
    {"broadcast.copies", "count"},
    {"broadcast.copy_event_frac", "ratio"},
    {"broadcast.fanout_ns", "ns"},
    {"broadcast.ctrl_byte_frac", "ratio"},
    {"sim.ctor_s", "s"},
    {"sim.start_s", "s"},
    {"engine.events", "count"},
    {"engine.events_per_s", "1/s"},
    {"engine.clamped", "count"},
    {"engine.windows", "count"},
    {"engine.serial_phases", "count"},
    {"engine.stall_frac", "ratio"},
    {"engine.lane_imbalance", "ratio"},
    {"engine.mailbox_posted", "count"},
    {"network.data_mb", "MB"},
    {"network.ctrl_mb", "MB"},
    {"network.queue_p99_kb", "KB"},
    {"network.drops", "count"},
    {"congestion.recomputes", "count"},
    {"congestion.waterfill_us", "us"},
    {"congestion.solves", "count"},
    {"congestion.solve_cpu_ms", "ms"},
    {"control.ga_evals", "count"},
    {"control.ga_utility_gbps", "Gbps"},
    {"control.memo_hit_ratio", "ratio"},
    {"control.spec_abort_ratio", "ratio"},
    {"control.delta_genes_per_solve", "ratio"},
    {"thread_pool.steal_ratio", "ratio"},
    {"transport.retransmissions", "count"},
    {"transport.flow_aborts", "count"},
    {"service.rpc.issued", "count"},
    {"service.rpc.completed", "count"},
    {"service.rpc.timed_out", "count"},
    {"service.incast.issued", "count"},
    {"service.incast.completed", "count"},
    {"service.incast.timed_out", "count"},
    {"service.storage.issued", "count"},
    {"service.storage.completed", "count"},
    {"service.storage.timed_out", "count"},
    {"service.lease_refreshes", "count"},
    {"service.requests_per_s", "1/s"},
    {"service.req_p99_us", "us"},
    {"service.slo_violation_frac", "ratio"},
    {"snapshot.digest_ms", "ms"},
    {"snapshot.save_ms", "ms"},
    {"snapshot.load_ms", "ms"},
    {"snapshot.archive_kb", "KB"},
    {"obs.trace_overhead_frac", "ratio"},
    {"obs.trace_events", "count"},
};

const char* unit_of(const std::string& name) {
  for (const MetricDef& d : kEndToEnd) {
    if (name == d.name) return d.unit;
  }
  for (const MetricDef& d : kPerLayer) {
    if (name == d.name) return d.unit;
  }
  throw std::logic_error("undeclared metric " + name);
}

void put(MetricMap& m, const std::string& name, double value, long samples = -1) {
  m[name] = Metric{value, unit_of(name), samples};
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// ---------------------------------------------------------------------------
// Workloads

// A latency quantile and the samples behind it; no value when the samples
// cannot support it.
struct Quantile {
  std::optional<double> value;
  long samples = 0;
};

// One set-up and run of a workload.
struct Rep {
  double setup_s = 0.0;
  double run_s = 0.0;
  double cpu_s = 0.0;
  std::uint64_t digest = 0;     // everything the run produced, for repeat identity
  Quantile lat_p50;             // simulated completion time of the unit of work
  Quantile lat_p99;
  std::uint64_t attempted = 0;  // flows or requests
  std::uint64_t failed = 0;     // of those, not completed
  double work = 0.0;            // engine events or GA evaluations
  MetricMap layers;             // per-layer numbers (traced repetitions)
  std::string registry_json;    // the metrics registry (traced repetitions)
};

void set_latency(Rep& rep, const std::vector<double>& samples_us) {
  const auto n = static_cast<long>(samples_us.size());
  rep.lat_p50 = {percentile(samples_us, 50.0), n};
  rep.lat_p99 = {percentile(samples_us, 99.0), n};
}

// What a repetition does besides set-up and run.
struct RepMode {
  Spans* spans = nullptr;    // non-null: traced repetition
  bool probe = false;        // replay hot calls (and a snapshot round trip)
  bool cross_check = false;  // rerun at a second worker/thread count
};

class Workload {
 public:
  virtual ~Workload() = default;
  // Worker and thread counts, for provenance.
  virtual std::map<std::string, int> parallelism() const = 0;
  virtual Rep rep(const RepMode& mode, Checks& checks) = 0;
};

std::uint64_t mix_digests(std::uint64_t a, std::uint64_t b) {
  snapshot::Digest d;
  d.mix(a);
  d.mix(b);
  return d.value();
}

double gauge_or_zero(const obs::MetricsRegistry& reg, const std::string& name) {
  const obs::Gauge* g = reg.find_gauge(name);
  return g != nullptr ? g->value() : 0.0;
}

double counter_or_zero(const obs::MetricsRegistry& reg, const std::string& name) {
  const obs::Counter* c = reg.find_counter(name);
  return c != nullptr ? static_cast<double>(c->value()) : 0.0;
}

// Nodes reached by a full walk of tree <src, tree> over the FIB children.
std::size_t walk_tree(const BroadcastTrees& trees, NodeId src, int tree,
                      std::vector<NodeId>& stack) {
  std::size_t visited = 0;
  stack.assign(1, src);
  while (!stack.empty()) {
    const NodeId at = stack.back();
    stack.pop_back();
    ++visited;
    for (const NodeId child : trees.children(at, src, tree)) stack.push_back(child);
  }
  return visited;
}

// The flows active at the moment the most flows were active.
std::vector<FlowSpec> peak_concurrent_flows(const std::vector<sim::FlowRecord>& flows,
                                            RouteAlg alg) {
  std::vector<std::pair<TimeNs, int>> edges;
  for (const sim::FlowRecord& f : flows) {
    if (!f.finished()) continue;
    edges.push_back({f.arrival, +1});
    edges.push_back({f.completed, -1});
  }
  std::sort(edges.begin(), edges.end());
  int active = 0;
  int best = 0;
  TimeNs at = 0;
  for (const auto& [t, d] : edges) {
    active += d;
    if (active > best) {
      best = active;
      at = t;
    }
  }
  std::vector<FlowSpec> out;
  for (const sim::FlowRecord& f : flows) {
    if (f.finished() && f.arrival <= at && at < f.completed) {
      out.push_back({f.id, f.src, f.dst, alg, 1.0, 0, kUnlimitedDemand});
    }
  }
  return out;
}

// Mean ns per pick_path_into call, replaying the flows' own alg/src/dst.
double probe_pick_ns(const Router& router, const std::vector<FlowSpec>& flows,
                     std::uint64_t seed) {
  if (flows.empty()) return 0.0;
  Rng rng(seed);
  Path path;
  std::size_t calls = 0;
  const auto t0 = Clock::now();
  do {
    for (const FlowSpec& f : flows) router.pick_path_into(f.alg, f.src, f.dst, rng, path, f.id);
    calls += flows.size();
  } while (seconds_since(t0) < kProbe_s / 4);
  return seconds_since(t0) * 1e9 / static_cast<double>(calls);
}

// Mean us per WaterfillProblem::build + waterfill on `flows`.
double probe_waterfill_us(const Router& router, const std::vector<FlowSpec>& flows) {
  if (flows.empty()) return 0.0;
  WaterfillProblem problem;
  WaterfillScratch scratch;
  RateAllocation alloc;
  int calls = 0;
  const auto t0 = Clock::now();
  do {
    problem.build(router, flows);
    waterfill(problem, scratch, alloc);
    ++calls;
  } while (seconds_since(t0) < kProbe_s || calls < 3);
  return seconds_since(t0) * 1e6 / calls;
}

// The paper's rack (Section 5.2: 10 Gbps, 100 ns per hop), on which the GA
// selects routes, the rack-scale ceiling, and a leaf-spine rack for the
// tenant mix.
Topology rack512() { return make_torus({8, 8, 8}, 10 * kGbps, 100); }
Topology rack4096() { return make_torus({16, 16, 16}, 10 * kGbps, 500); }
Topology clos32() {
  ClosSpec clos;
  clos.servers_per_leaf = 4;
  clos.num_leaves = 8;
  clos.num_spines = 4;
  return make_folded_clos(clos);
}

// --- Simulations: rack4096_dor_sharded, tenant_clos_reliable ----------------

struct SimSpec {
  Topology (*topology)() = nullptr;
  sim::R2c2SimConfig config;
  int cross_workers = 0;         // > 0: cross-check at this worker count
  TimeNs step = 100 * kNsPerUs;  // run_until granularity
  std::uint64_t fct_cutoff = kShortFlowCutoffBytes;  // open-loop flows below it make lat_*
  // Open-loop flows (rack workload) or a tenant mix (service workload).
  std::vector<FlowArrival> arrivals;
  std::optional<service::ServiceConfig> service;
};

class SimWorkload final : public Workload {
 public:
  explicit SimWorkload(SimSpec spec) : spec_(std::move(spec)) {}

  std::map<std::string, int> parallelism() const override {
    return {{"engine_shards", spec_.config.engine_shards},
            {"engine_workers", spec_.config.engine_workers},
            {"engine_cross_workers", spec_.cross_workers}};
  }

  Rep rep(const RepMode& mode, Checks& checks) override {
    Spans* spans = mode.spans;
    Rep rep;
    obs::MetricsRegistry registry;
    obs::FlightRecorder recorder(spans != nullptr ? (1u << 20) : 1);
    sim::R2c2SimConfig cfg = spec_.config;
    if (spans != nullptr) {
      cfg.trace = &recorder;
      cfg.metrics = &registry;
    }

    std::optional<Topology> topo;
    std::optional<Router> router;
    std::optional<sim::R2c2Sim> sim;
    std::optional<service::ServiceLayer> layer;
    const double t_topo = timed(spans, "topology.build", [&] { topo.emplace(spec_.topology()); });
    const double heap0 = heap_mb();
    const double t_router =
        timed(spans, "routing.router_build", [&] { router.emplace(*topo); });
    const double router_mb = heap_mb() - heap0;
    const double t_ctor = timed(spans, "sim.ctor", [&] { sim.emplace(*topo, *router, cfg); });
    const double t_start = timed(spans, spec_.service ? "service.start" : "sim.add_flows",
                                 [&] { start(*sim, layer); });
    rep.setup_s = t_topo + t_router + t_ctor + t_start;

    const double cpu0 = cpu_seconds();
    rep.run_s = timed(spans, "sim.run", [&] { drive(*sim, spans); });
    rep.cpu_s = cpu_seconds() - cpu0;

    sim::RunMetrics m;
    std::uint64_t state = 0;
    timed(spans, "sim.collect_metrics", [&] { m = sim->collect_metrics(); });
    timed(spans, "sim.state_digest", [&] { state = sim->state_digest(); });
    rep.digest = mix_digests(state, snapshot::metrics_digest(m));
    rep.work = static_cast<double>(m.events);
    const double clamped = gauge_or_zero(sim->metrics(), "engine.clamped_schedules");

    std::optional<service::SloReport> report;
    if (spec_.service) {
      report = layer->report();
      check_service(checks, *spec_.service, *report, layer->requests_in_flight(), m, *topo,
                    cfg.mtu_payload, static_cast<std::uint64_t>(clamped));
      for (const service::TenantReport& t : report->tenants) {
        rep.attempted += t.issued;
        rep.failed += t.issued - t.completed;
      }
      slowest_tenant_fct(rep, *spec_.service, m);
    } else {
      // Unreliable runs on minimal routes put each byte on the wire once per
      // hop, so the wire byte count must match the flow sizes exactly.
      check_flows(checks, spec_.arrivals, m, *topo, cfg.mtu_payload, !cfg.reliable,
                  static_cast<std::uint64_t>(clamped));
      rep.attempted = spec_.arrivals.size();
      rep.failed = static_cast<std::uint64_t>(std::count_if(
          m.flows.begin(), m.flows.end(), [](const sim::FlowRecord& f) { return !f.finished(); }));
      set_latency(rep, m.short_flow_fct_us(spec_.fct_cutoff));
    }

    if (spans != nullptr) {
      MetricMap& L = rep.layers;
      layers(L, rep.run_s, m, *sim, report, registry, recorder, clamped);
      put(L, "topology.build_s", t_topo);
      put(L, "routing.router_build_s", t_router);
      put(L, "routing.heap_mb", router_mb);
      put(L, "routing.resident_mb",
          static_cast<double>(router->tile_stats().resident_bytes) / (1024.0 * 1024.0));
      put(L, "sim.ctor_s", t_ctor);
      put(L, "sim.start_s", t_start);
      rep.registry_json = registry.to_json();
    }
    // The probe and the cross-check build their own sims; only one is alive
    // at a time, so the peak RSS stays that of a single run.
    layer.reset();
    sim.reset();
    if (mode.probe) probe(rep.layers, m, *topo, *router, spans, state, checks);
    if (mode.cross_check) cross_check(*topo, *router, rep.digest, checks);
    return rep;
  }

 private:
  void start(sim::R2c2Sim& s, std::optional<service::ServiceLayer>& layer) const {
    if (spec_.service) {
      layer.emplace(s, *spec_.service);
      layer->start();
    } else {
      s.add_flows(spec_.arrivals);
    }
  }

  void drive(sim::R2c2Sim& s, Spans* spans) const {
    while (!s.idle()) {
      Spans::Scope step(spans, "sim.run_until");
      s.run_until(s.now() + spec_.step);
    }
  }

  // Worker count is pure parallelism: a run at another count must produce
  // the identical state and metrics.
  void cross_check(const Topology& topo, const Router& router, std::uint64_t digest,
                   Checks& checks) const {
    if (spec_.cross_workers <= 0) return;
    sim::R2c2SimConfig cfg = spec_.config;
    cfg.engine_workers = spec_.cross_workers;
    sim::R2c2Sim s(topo, router, cfg);
    std::optional<service::ServiceLayer> layer;
    start(s, layer);
    drive(s, nullptr);
    const sim::RunMetrics m = s.collect_metrics();
    const std::uint64_t pair[] = {digest,
                                  mix_digests(s.state_digest(), snapshot::metrics_digest(m))};
    check_identical(checks,
                    "digest.workers_" + std::to_string(spec_.config.engine_workers) + "_vs_" +
                        std::to_string(spec_.cross_workers),
                    pair);
  }

  // Completion time of the flows into the slowest tenant's clients at each
  // quantile: a tenant-facing SLO is only as good as its worst tenant, and
  // a request ends with its flows into the client (the response, or an
  // incast's leaf responses). Every request also sends one small flow out
  // of the client, so over all its flows a tenant's median would fall in
  // the gap between the two sizes. These are exact order statistics; the
  // report's request-latency quantiles are read off power-of-two histogram
  // buckets, too coarse for a bound of a few tenths, so they are only the
  // per-layer service.req_p99_us.
  static void slowest_tenant_fct(Rep& rep, const service::ServiceConfig& svc,
                                 const sim::RunMetrics& m) {
    std::map<NodeId, std::size_t> tenant_of;
    for (std::size_t t = 0; t < svc.tenants.size(); ++t) {
      for (const NodeId client : svc.tenants[t].clients) tenant_of[client] = t;
    }
    std::vector<std::vector<double>> fct_us(svc.tenants.size());
    for (const sim::FlowRecord& f : m.flows) {
      const auto it = tenant_of.find(f.dst);
      if (f.finished() && it != tenant_of.end()) {
        fct_us[it->second].push_back(static_cast<double>(f.fct()) / 1e3);
      }
    }
    for (const auto& [q, out] : {std::pair{50.0, &rep.lat_p50}, std::pair{99.0, &rep.lat_p99}}) {
      for (const std::vector<double>& v : fct_us) {
        const Quantile tenant{percentile(v, q), static_cast<long>(v.size())};
        // A tenant too small to support the quantile voids it.
        if (!tenant.value) {
          *out = tenant;
          break;
        }
        if (*tenant.value > out->value.value_or(-1.0)) *out = tenant;
      }
    }
  }

  void layers(MetricMap& L, double run_s, const sim::RunMetrics& m, const sim::R2c2Sim& s,
              const std::optional<service::SloReport>& report, const obs::MetricsRegistry& reg,
              const obs::FlightRecorder& recorder, double clamped) const {
    // Every broadcast copy is one 16-byte control packet crossing one link.
    const double copies = static_cast<double>(m.control_bytes_on_wire) /
                          static_cast<double>(kBroadcastPacketBytes);
    const double events = static_cast<double>(m.events);
    put(L, "broadcast.copies", copies);
    put(L, "broadcast.copy_event_frac", ratio(copies, events));
    put(L, "broadcast.ctrl_byte_frac",
        ratio(static_cast<double>(m.control_bytes_on_wire),
              static_cast<double>(m.data_bytes_on_wire + m.control_bytes_on_wire)));
    put(L, "engine.events", events);
    put(L, "engine.events_per_s", ratio(events, run_s));
    put(L, "engine.clamped", clamped);
    const int shards = spec_.config.engine_shards;
    if (shards > 1) {
      const double windows = gauge_or_zero(reg, "engine.windows");
      double stalls = 0.0;
      double posted = 0.0;
      double max_events = 0.0;
      double sum_events = 0.0;
      for (int i = 0; i < shards; ++i) {
        const std::string p = "engine.lane" + std::to_string(i) + ".";
        stalls += gauge_or_zero(reg, p + "window_stalls");
        posted += gauge_or_zero(reg, p + "mailbox_posted");
        const double e = gauge_or_zero(reg, p + "events");
        max_events = std::max(max_events, e);
        sum_events += e;
      }
      put(L, "engine.windows", windows);
      put(L, "engine.serial_phases", gauge_or_zero(reg, "engine.serial_phases"));
      put(L, "engine.stall_frac", ratio(stalls, windows * shards));
      put(L, "engine.lane_imbalance", ratio(max_events * shards, sum_events));
      put(L, "engine.mailbox_posted", posted);
    }
    put(L, "network.data_mb", static_cast<double>(m.data_bytes_on_wire) / 1e6);
    put(L, "network.ctrl_mb", static_cast<double>(m.control_bytes_on_wire) / 1e6);
    const std::vector<double> queues(m.max_queue_bytes.begin(), m.max_queue_bytes.end());
    put(L, "network.queue_p99_kb", percentile(queues, 99.0).value_or(0.0) / 1024.0,
        static_cast<long>(queues.size()));
    put(L, "network.drops", static_cast<double>(m.drops));
    put(L, "congestion.recomputes", static_cast<double>(s.recomputations()));
    put(L, "transport.retransmissions", static_cast<double>(s.retransmissions()));
    put(L, "transport.flow_aborts", static_cast<double>(m.flow_aborts));
    put(L, "service.lease_refreshes", static_cast<double>(m.lease_refreshes_sent));
    put(L, "obs.trace_events", static_cast<double>(recorder.total_recorded()));

    // Route picks the flow sizes imply: one per data packet for spraying
    // algorithms, one per flow where the sim caches the route per flow.
    const RouteAlg alg = spec_.config.route_alg;
    const bool per_packet = alg == RouteAlg::kRps || alg == RouteAlg::kVlb ||
                            alg == RouteAlg::kWlb;
    double picks = 0.0;
    for (const sim::FlowRecord& f : m.flows) {
      picks += per_packet ? std::ceil(static_cast<double>(f.bytes) / spec_.config.mtu_payload)
                          : 1.0;
    }
    put(L, "routing.picks", picks);

    if (report) {
      double issued = 0.0;
      double completed = 0.0;
      double violations = 0.0;
      for (const service::TenantReport& t : report->tenants) {
        const std::string p = "service." + t.name + ".";
        put(L, p + "issued", static_cast<double>(t.issued));
        put(L, p + "completed", static_cast<double>(t.completed));
        put(L, p + "timed_out", static_cast<double>(t.timed_out));
        issued += static_cast<double>(t.issued);
        completed += static_cast<double>(t.completed);
        // Over the SLO, timed out or aborted.
        violations += std::round(t.slo_violation_fraction *
                                 static_cast<double>(t.completed + t.timed_out)) +
                      static_cast<double>(t.aborted);
      }
      put(L, "service.requests_per_s", ratio(completed, run_s));
      // Power-of-two bucket resolution (obs::Histogram).
      const auto slowest = std::max_element(
          report->tenants.begin(), report->tenants.end(),
          [](const auto& a, const auto& b) { return a.p99_us < b.p99_us; });
      put(L, "service.req_p99_us", slowest->p99_us, static_cast<long>(slowest->completed));
      put(L, "service.slo_violation_frac", ratio(violations, issued));
    }
  }

  // Replays the hot calls on this run's own inputs, then a mid-run snapshot
  // round trip that must end on the straight run's final digest.
  void probe(MetricMap& L, const sim::RunMetrics& m, const Topology& topo, const Router& router,
             Spans* spans, std::uint64_t final_state, Checks& checks) const {
    Spans::Scope all(spans, "probe");
    const RouteAlg alg = spec_.config.route_alg;
    std::vector<FlowSpec> flows;
    for (const sim::FlowRecord& f : m.flows) {
      flows.push_back({f.id, f.src, f.dst, alg, 1.0, 0, kUnlimitedDemand});
    }
    timed(spans, "probe.pick_path_into",
          [&] { put(L, "routing.pick_ns", probe_pick_ns(router, flows, spec_.config.seed)); });
    timed(spans, "probe.waterfill", [&] {
      const std::vector<FlowSpec> peak = peak_concurrent_flows(m.flows, alg);
      put(L, "congestion.waterfill_us", probe_waterfill_us(router, peak),
          static_cast<long>(peak.size()));
    });

    std::optional<BroadcastTrees> trees;
    put(L, "broadcast.trees_build_s", timed(spans, "broadcast.trees_build", [&] {
          trees.emplace(topo, spec_.config.broadcast_trees);
        }));
    std::vector<NodeId> stack;
    std::size_t visited = 0;
    std::size_t walks = 0;
    const double walk_s = timed(spans, "probe.children_walk", [&] {
      const auto t0 = Clock::now();
      do {
        for (NodeId src = 0; src < topo.num_nodes(); src += 7, ++walks) {
          visited += walk_tree(*trees, src, static_cast<int>(walks) % trees->trees_per_source(),
                               stack);
        }
      } while (seconds_since(t0) < kProbe_s);
    });
    put(L, "broadcast.fanout_ns", walk_s * 1e9 / static_cast<double>(walks));
    checks.require(visited == walks * topo.num_nodes(), "broadcast.tree_spans_rack",
                   std::to_string(visited) + " nodes reached in " + std::to_string(walks) +
                       " full tree walks");

    Spans::Scope snap(spans, "probe.snapshot");
    std::vector<std::uint8_t> bytes;
    {
      sim::R2c2Sim first(topo, router, spec_.config);
      std::optional<service::ServiceLayer> layer;
      start(first, layer);
      while (!first.idle() && first.now() < m.sim_end / 2) {
        first.run_until(first.now() + spec_.step);
      }
      put(L, "snapshot.save_ms", 1e3 * timed(spans, "snapshot.save", [&] {
            snapshot::ArchiveWriter w;
            first.save(w);
            bytes = w.finish();
          }));
      put(L, "snapshot.archive_kb", static_cast<double>(bytes.size()) / 1024.0);
    }
    sim::R2c2Sim second(topo, router, spec_.config);
    std::optional<service::ServiceLayer> layer;
    start(second, layer);
    put(L, "snapshot.load_ms", 1e3 * timed(spans, "snapshot.load", [&] {
          snapshot::ArchiveReader r(std::move(bytes));
          second.load(r);
        }));
    drive(second, nullptr);
    std::uint64_t resumed = 0;
    put(L, "snapshot.digest_ms",
        1e3 * timed(spans, "snapshot.state_digest", [&] { resumed = second.state_digest(); }));
    const std::uint64_t pair[] = {final_state, resumed};
    check_identical(checks, "snapshot.resume_digest", pair);
  }

  SimSpec spec_;
};

// --- GA route selection: ga_select -----------------------------------------

class GaWorkload final : public Workload {
 public:
  // Long flows along `rounds` random derangements of the rack's nodes:
  // every node sends and receives `rounds` flows. Under uniform endpoints
  // a few nodes would carry three times as many, and the bottlenecks, and
  // with them the GA's solve cost, would change with the seed.
  GaWorkload(std::size_t rounds, std::uint64_t seed) : seed_(seed) {
    const std::size_t n = rack512().num_nodes();
    Rng rng(derive_seed(seed, 0x6761));
    std::vector<NodeId> dst(n);
    for (std::size_t r = 0; r < rounds; ++r) {
      std::iota(dst.begin(), dst.end(), NodeId{0});
      std::shuffle(dst.begin(), dst.end(), rng);
      // A fixed point swaps with its neighbour, which then has none either.
      for (std::size_t i = 0; i < n; ++i) {
        if (dst[i] == static_cast<NodeId>(i)) std::swap(dst[i], dst[(i + 1) % n]);
      }
      for (std::size_t src = 0; src < n; ++src) {
        FlowSpec f;
        f.id = static_cast<FlowId>(flows_.size() + 1);
        f.src = static_cast<NodeId>(src);
        f.dst = dst[src];
        flows_.push_back(f);
      }
    }
  }

  std::map<std::string, int> parallelism() const override {
    return {{"ga_threads", kThreads}, {"ga_cross_threads", kCrossThreads}};
  }

  Rep rep(const RepMode& mode, Checks& checks) override {
    Spans* spans = mode.spans;
    Rep rep;
    obs::MetricsRegistry registry;

    std::optional<Topology> topo;
    std::optional<Router> router;
    std::optional<ThreadPool> pool;
    const double t_pool = timed(spans, "thread_pool.start", [&] { pool.emplace(kThreads - 1); });
    const double t_topo = timed(spans, "topology.build", [&] { topo.emplace(rack512()); });
    const double heap0 = heap_mb();
    const double t_router =
        timed(spans, "routing.router_build", [&] { router.emplace(*topo); });
    // Across the GA's own lanes: a Router is safe to read, and to fill its
    // caches, from any number of threads.
    std::vector<std::size_t> empty_weights(static_cast<std::size_t>(pool->lanes()), 0);
    const double t_warm = timed(spans, "routing.link_weights_warm", [&] {
      pool->parallel_for(flows_.size(), [&](std::size_t i, int lane) {
        const FlowSpec& f = flows_[i];
        for (const RouteAlg alg : kChoices) {
          if (router->link_weights(alg, f.src, f.dst, f.id).empty()) {
            ++empty_weights[static_cast<std::size_t>(lane)];
          }
        }
      });
    });
    const double router_mb = heap_mb() - heap0;
    rep.setup_s = t_pool + t_topo + t_router + t_warm;
    const std::size_t empty = std::accumulate(empty_weights.begin(), empty_weights.end(),
                                              std::size_t{0});
    checks.require(empty == 0, "routing.link_weights",
                   std::to_string(empty) + " (flow, choice) pairs have no links");

    SelectionConfig cfg = config();
    cfg.pool = &*pool;
    if (spans != nullptr) cfg.metrics = &registry;
    SelectionResult result;
    const double cpu0 = cpu_seconds();
    rep.run_s = timed(spans, "control.select_routes_ga",
                      [&] { result = select_routes_ga(*router, flows_, cfg); });
    rep.cpu_s = cpu_seconds() - cpu0;

    check_selection(checks, result, flows_.size(), kChoices);
    const std::vector<FlowSpec> chosen = with_assignment(result);
    const RateAllocation alloc = waterfill(*router, chosen);
    double sum = 0.0;
    std::vector<double> transfer_us;
    for (const Bps r : alloc.rate) {
      sum += r;
      if (r > 0) transfer_us.push_back(kTransferBits / r * 1e6);
    }
    const double min_rate = *std::min_element(alloc.rate.begin(), alloc.rate.end());
    const double utility = (1.0 - kMinWeight) * sum +
                           kMinWeight * static_cast<double>(alloc.rate.size()) * min_rate;
    checks.require(std::abs(utility - result.utility) <= 1e-9 * std::abs(result.utility),
                   "ga.utility_rates",
                   "allocated rates give utility " + std::to_string(utility) + ", GA reports " +
                       std::to_string(result.utility));
    rep.attempted = flows_.size();
    rep.failed = flows_.size() - transfer_us.size();  // flows left without a rate
    set_latency(rep, transfer_us);
    snapshot::Digest d;
    for (const RouteAlg a : result.assignment) d.mix(static_cast<std::uint64_t>(a));
    d.mix_f64(result.utility);
    d.mix(static_cast<std::uint64_t>(result.evaluations));
    rep.digest = d.value();
    rep.work = result.evaluations;

    if (spans != nullptr) {
      MetricMap& L = rep.layers;
      const SelectionResult::Stats& st = result.stats;
      put(L, "topology.build_s", t_topo);
      put(L, "routing.router_build_s", t_router);
      put(L, "routing.weights_warm_s", t_warm);
      put(L, "routing.heap_mb", router_mb);
      put(L, "routing.resident_mb",
          static_cast<double>(router->tile_stats().resident_bytes) / (1024.0 * 1024.0));
      put(L, "congestion.solves", static_cast<double>(st.solves));
      put(L, "congestion.solve_cpu_ms", ratio(rep.cpu_s * 1e3, static_cast<double>(st.solves)));
      put(L, "control.ga_evals", static_cast<double>(result.evaluations));
      put(L, "control.ga_utility_gbps", sum / 1e9);  // aggregate throughput
      const double hits = counter_or_zero(registry, "ga.memo.hits");
      put(L, "control.memo_hit_ratio",
          ratio(hits, hits + counter_or_zero(registry, "ga.memo.misses")));
      put(L, "control.spec_abort_ratio", ratio(static_cast<double>(st.spec_aborts),
                                               static_cast<double>(st.spec_children)));
      put(L, "control.delta_genes_per_solve",
          ratio(static_cast<double>(st.delta_genes), static_cast<double>(st.solves)));
      const ThreadPool::Stats ps = pool->stats();
      put(L, "thread_pool.steal_ratio",
          ratio(static_cast<double>(ps.stolen), static_cast<double>(ps.executed)));
      rep.registry_json = registry.to_json();
    }
    if (mode.probe) {
      Spans::Scope all(spans, "probe");
      timed(spans, "probe.pick_path_into",
            [&] { put(rep.layers, "routing.pick_ns", probe_pick_ns(*router, chosen, seed_)); });
      timed(spans, "probe.waterfill", [&] {
        put(rep.layers, "congestion.waterfill_us", probe_waterfill_us(*router, chosen),
            static_cast<long>(chosen.size()));
      });
    }
    if (mode.cross_check) {
      // The GA's result is bit-identical at every thread count.
      ThreadPool other(kCrossThreads - 1);
      SelectionConfig again = config();
      again.pool = &other;
      check_same_selection(checks,
                           "ga.threads_" + std::to_string(kThreads) + "_vs_" +
                               std::to_string(kCrossThreads),
                           result, select_routes_ga(*router, flows_, again));
    }
    return rep;
  }

 private:
  // Three threads leave a core of a 4-core host to everything else; the
  // cross-check, outside the timed part, runs at two.
  static constexpr int kThreads = 3;
  static constexpr int kCrossThreads = 2;
  static constexpr RouteAlg kChoices[] = {RouteAlg::kRps, RouteAlg::kVlb};
  static constexpr double kTransferBits = 8.0 * 1024 * 1024;  // 1 MiB
  static constexpr double kMinWeight = 0.25;

  SelectionConfig config() const {
    SelectionConfig cfg;
    cfg.choices.assign(std::begin(kChoices), std::end(kChoices));
    cfg.population = 100;
    // A fixed number of generations: with the default 60 and early stop
    // after 12 without improvement, some seeds search four times longer
    // than others, and the run time would measure the seed.
    cfg.max_generations = 12;
    cfg.stall_generations = 12;
    // Aggregate throughput with a small tail term: under the pure aggregate
    // the GA starves a few flows on some seeds, and the p99 transfer time
    // spread by a quarter across ten seeds.
    cfg.utility = UtilityKind::kBlended;
    cfg.blend_min_weight = kMinWeight;
    cfg.seed = derive_seed(seed_, 0x7365);
    return cfg;
  }

  std::vector<FlowSpec> with_assignment(const SelectionResult& r) const {
    std::vector<FlowSpec> chosen = flows_;
    for (std::size_t i = 0; i < chosen.size() && i < r.assignment.size(); ++i) {
      chosen[i].alg = r.assignment[i];
    }
    return chosen;
  }

  std::uint64_t seed_;
  std::vector<FlowSpec> flows_;
};

// --- Workload table ----------------------------------------------------------

service::ServiceConfig tenant_mix(std::uint64_t seed) {
  service::ServiceConfig svc;
  svc.seed = seed;

  service::TenantConfig rpc;
  rpc.name = "rpc";
  rpc.archetype = service::Archetype::kRpc;
  rpc.mode = service::ArrivalMode::kClosedLoop;
  rpc.clients = {0, 1, 2, 3, 4, 5, 6, 7};
  rpc.servers = {8, 9, 10, 11, 12, 13, 14, 15};
  rpc.outstanding = 8;
  // 4000 rpc and storage requests, twice the usual mix: the rpc responses
  // are the slowest tenant's flows, and with forty samples beyond their p99
  // it spreads half as much across seeds as with twenty.
  rpc.max_requests = 4000;
  rpc.request_bytes = 2 * 1024;
  rpc.response_bytes = 16 * 1024;
  rpc.slo_latency = 100 * kNsPerUs;
  svc.tenants.push_back(rpc);

  // 1200 requests, so that the p99 keeps ten samples beyond it.
  service::TenantConfig incast;
  incast.name = "incast";
  incast.archetype = service::Archetype::kIncast;
  incast.mode = service::ArrivalMode::kClosedLoop;
  incast.clients = {16, 17, 18, 19};
  incast.servers = {20, 21, 22, 23, 24, 25, 26, 27};
  incast.outstanding = 4;
  incast.max_requests = 1200;
  incast.fanout = 8;
  incast.query_bytes = 1 * 1024;
  incast.leaf_response_bytes = 6 * 1024;
  incast.straggler_timeout = 1500 * kNsPerUs;
  incast.slo_latency = 75 * kNsPerUs;
  svc.tenants.push_back(incast);

  service::TenantConfig storage;
  storage.name = "storage";
  storage.archetype = service::Archetype::kStorage;
  storage.mode = service::ArrivalMode::kOpenLoop;
  storage.clients = {28, 29, 30, 31};
  storage.servers = {8, 9, 10, 11, 12, 13, 14, 15};
  storage.mean_interarrival = 2 * kNsPerUs;
  storage.max_requests = 4000;
  storage.shift_at = 400 * kNsPerUs;
  storage.slo_latency = 60 * kNsPerUs;
  svc.tenants.push_back(storage);
  return svc;
}

// Generates the workload's inputs from `seed`; the libraries see only them.
std::unique_ptr<Workload> make_workload(const std::string& name, std::uint64_t seed) {
  SimSpec spec;
  spec.config.seed = derive_seed(seed, 0x7270);
  WorkloadConfig wl;
  wl.mean_interarrival = 1 * kNsPerUs;
  wl.seed = derive_seed(seed, 0x776c);
  if (name == "rack4096_dor_sharded") {
    // lat_* takes every flow, all capped at 128 KB, so the p99 of 1000
    // flows keeps ten beyond it.
    spec.topology = rack4096;
    spec.config.route_alg = RouteAlg::kDor;
    spec.config.broadcast_trees = 1;
    // Two workers: at one, a repetition takes 10-12 s and only three fit
    // in a run. The cross-check runs four.
    spec.config.engine_shards = 8;
    spec.config.engine_workers = 2;
    spec.cross_workers = 4;
    wl.num_nodes = 4096;
    wl.num_flows = 1000;
    wl.mean_bytes = 96.0 * 1024.0;
    wl.max_bytes = 128 * 1024;
    spec.fct_cutoff = wl.max_bytes + 1;
    spec.arrivals = generate_poisson_uniform(wl);
  } else if (name == "tenant_clos_reliable") {
    spec.topology = clos32;
    spec.config.reliable = true;
    spec.config.rto = 200 * kNsPerUs;
    spec.config.lease_interval = 100 * kNsPerUs;
    spec.service = tenant_mix(derive_seed(seed, 0x7376));
  } else if (name == "ga_select") {
    return std::make_unique<GaWorkload>(2, seed);
  } else {
    throw std::invalid_argument("unknown workload " + name);
  }
  return std::make_unique<SimWorkload>(std::move(spec));
}

// ---------------------------------------------------------------------------
// Runner

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(ch) >= 0x20) out.push_back(ch);
  }
  return out;
}

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

std::string metrics_json(const MetricMap& m) {
  std::string out = "{";
  char buf[64];
  for (const auto& [name, metric] : m) {
    std::snprintf(buf, sizeof buf, "%.17g", metric.value);
    out += (out.size() > 1 ? ", \"" : "\"") + name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + metric.unit + "\"";
    if (metric.samples >= 0) out += ", \"samples\": " + std::to_string(metric.samples);
    out += "}";
  }
  return out + "}";
}

void print_where_time_went(const Spans& spans, const Rep& traced, MetricMap& metrics) {
  const auto totals = spans.totals();
  double all = 0.0;
  for (const auto& [name, t] : totals) all += t.self;
  std::printf("\n-- where the time went (traced repetitions, self time) --\n");
  std::printf("%-28s %8s %10s %10s %7s\n", "span", "count", "total_s", "self_s", "self%");
  for (const auto& [name, t] : totals) {
    std::printf("%-28s %8zu %10.4f %10.4f %6.1f%%\n", name.c_str(), t.count, t.total, t.self,
                100.0 * ratio(t.self, all));
  }
  auto v = [&](const char* name) { return metrics[name].value; };
  std::printf("\nset-up %.4f s = topology %.4f + router %.4f + weight warm-up %.4f + sim ctor "
              "%.4f + flows/service start %.4f (+ thread pool)\n",
              traced.setup_s, v("topology.build_s"), v("routing.router_build_s"),
              v("routing.weights_warm_s"), v("sim.ctor_s"), v("sim.start_s"));
  std::printf("\n-- where the events went --\n");
  if (v("engine.events") > 0) {
    std::printf("broadcast trees built standalone in %.4f s (the sim ctor builds them too)\n",
                v("broadcast.trees_build_s"));
    std::printf("engine events %.0f; broadcast copies %.0f = %.1f%% of events, and each copy "
                "is a link-free plus a delivery event\n",
                v("engine.events"), v("broadcast.copies"),
                100.0 * v("broadcast.copy_event_frac"));
    std::printf("control bytes %.1f%% of wire bytes; route picks %.0f; rate recomputes %.0f; "
                "retransmissions %.0f\n",
                100.0 * v("broadcast.ctrl_byte_frac"), v("routing.picks"),
                v("congestion.recomputes"), v("transport.retransmissions"));
  } else {
    std::printf("GA evaluations %.0f, waterfill solves %.0f, memo hits %.1f%%, speculative "
                "aborts %.1f%%, pool steals %.1f%%\n",
                v("control.ga_evals"), v("congestion.solves"), 100.0 * v("control.memo_hit_ratio"),
                100.0 * v("control.spec_abort_ratio"), 100.0 * v("thread_pool.steal_ratio"));
  }
}

int run(const Args& args) {
  const auto t_start = Clock::now();
  std::unique_ptr<Workload> w;
  const double gen_s = timed(nullptr, "", [&] { w = make_workload(args.workload, args.seed); });
  Checks checks;

  std::vector<Rep> untraced;
  std::vector<Rep> traced;
  Spans spans;
  // Whether one more repetition like `last` ends within `share` of
  // --seconds, counted in wall time from the start.
  auto fits = [&](const Rep& last, double share) {
    return seconds_since(t_start) + last.setup_s + last.run_s <= share * args.seconds;
  };
  auto next = [&](std::vector<Rep>& into, const RepMode& mode) {
    into.push_back(w->rep(mode, checks));
  };
  const RepMode first{.cross_check = true};
  if (!args.trace) {
    next(untraced, first);
    while (untraced.size() < kMinReps ||
           (untraced.size() < kMaxReps && fits(untraced.back(), 1.0))) {
      next(untraced, RepMode{});
    }
  } else {
    // Pairs of (untraced, traced) over half the time; the last traced
    // repetition also probes, which takes about as long as a pair.
    RepMode mode{.spans = &spans};
    do {
      next(untraced, untraced.empty() ? first : RepMode{});
      mode.probe = !fits(untraced.back(), 0.5) || untraced.size() == kMaxReps;
      next(traced, mode);
    } while (!mode.probe);
  }

  std::vector<std::uint64_t> digests;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  for (const auto* reps : {&untraced, &traced}) {
    for (const Rep& r : *reps) {
      digests.push_back(r.digest);
      attempted += r.attempted;
      failed += r.failed;
    }
  }
  check_identical(checks, "digest.repeat", digests);

  auto med = [](const std::vector<Rep>& reps, double Rep::*field) {
    std::vector<double> v;
    for (const Rep& r : reps) v.push_back(r.*field);
    return r2c2::percentile(std::move(v), 50.0);
  };
  const auto n_untraced = static_cast<long>(untraced.size());
  MetricMap metrics;
  if (!args.trace) {
    put(metrics, "setup_s", med(untraced, &Rep::setup_s), n_untraced);
    put(metrics, "run_s", med(untraced, &Rep::run_s), n_untraced);
    put(metrics, "cpu_s", med(untraced, &Rep::cpu_s), n_untraced);
    put(metrics, "peak_rss_mb", peak_rss_mb());
    // Simulated outputs repeat exactly (digest.repeat), so the first
    // repetition's quantiles stand for every repetition.
    for (const auto& [name, q] : {std::pair{"lat_p50_us", untraced.front().lat_p50},
                                  std::pair{"lat_p99_us", untraced.front().lat_p99}}) {
      checks.require(q.value.has_value(), std::string("samples.") + name,
                     std::to_string(q.samples) + " samples leave fewer than ten beyond it");
      if (q.value) put(metrics, name, *q.value, q.samples);
    }
  } else {
    for (const MetricDef& d : kPerLayer) put(metrics, d.name, 0.0);
    for (const auto& [name, metric] : traced.back().layers) metrics[name] = metric;
    put(metrics, "workload.gen_ms", gen_s * 1e3);
    const double plain = med(untraced, &Rep::run_s);
    put(metrics, "obs.trace_overhead_frac", ratio(med(traced, &Rep::run_s), plain) - 1.0,
        static_cast<long>(traced.size()));
    put(metrics, "engine.events_per_s", ratio(metrics["engine.events"].value, plain));
  }

  std::printf("== rackbench %s seed=%llu trace=%d: %zu untraced + %zu traced repetitions ==\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              args.trace ? 1 : 0, untraced.size(), traced.size());
  std::printf("%-12s %10s %10s %10s\n", "repetition", "setup_s", "run_s", "cpu_s");
  for (const auto* reps : {&untraced, &traced}) {
    for (std::size_t i = 0; i < reps->size(); ++i) {
      const Rep& r = (*reps)[i];
      const std::string label = (reps == &traced ? "traced " : "untraced ") + std::to_string(i);
      std::printf("%-12s %10.4f %10.4f %10.4f\n", label.c_str(), r.setup_s, r.run_s, r.cpu_s);
    }
  }
  if (args.trace) {
    print_where_time_went(spans, traced.back(), metrics);
    const std::string dir = ".bench_build/results/";
    if (!spans.write_chrome(dir + "spans-" + args.workload + ".json")) {
      std::printf("could not write the spans to %s\n", dir.c_str());
    }
    if (FILE* f = std::fopen((dir + "registry-" + args.workload + ".json").c_str(), "w")) {
      std::fputs(traced.back().registry_json.c_str(), f);
      std::fclose(f);
    }
  }
  std::printf("\n-- metrics --\n");
  for (const auto& [name, metric] : metrics) {
    std::printf("%-32s %16.6g %-6s", name.c_str(), metric.value, metric.unit.c_str());
    if (metric.samples >= 0) std::printf(" (n=%ld)", metric.samples);
    std::printf("\n");
  }
  std::printf("\n-- checks: %zu run, %zu failed --\n", checks.run(), checks.failures().size());
  for (const CheckFailure& f : checks.failures()) {
    std::printf("CHECK FAILED %s: %s\n", f.check.c_str(), f.detail.c_str());
  }

  std::string failures;
  for (const CheckFailure& f : checks.failures()) {
    failures += (failures.empty() ? "" : ", ") + std::string("{\"check\": \"") +
                json_escape(f.check) + "\", \"detail\": \"" + json_escape(f.detail) + "\"}";
  }
  std::string reps;
  for (const auto* list : {&untraced, &traced}) {
    for (const Rep& r : *list) {
      char buf[160];
      std::snprintf(buf, sizeof buf,
                    "{\"traced\": %s, \"setup_s\": %.6f, \"run_s\": %.6f, \"cpu_s\": %.6f}",
                    list == &traced ? "true" : "false", r.setup_s, r.run_s, r.cpu_s);
      reps += (reps.empty() ? "" : ", ") + std::string(buf);
    }
  }
  std::string parallel;
  for (const auto& [k, v] : w->parallelism()) {
    parallel += (parallel.empty() ? "\"" : ", \"") + k + "\": " + std::to_string(v);
  }
  std::printf(
      "RESULT {\"workload\": \"%s\", \"seed\": %llu, \"trace\": %d, \"correct\": %s, "
      "\"attempted\": %llu, \"failed\": %llu, \"checks_run\": %zu, \"check_failures\": [%s], "
      "\"work\": %.17g, \"repetitions\": [%s], \"wall_s\": %.3f, "
      "\"provenance\": {\"nproc\": %u, \"build_type\": \"%s\", \"compiler\": \"%s\", "
      "\"r2c2_tracing\": %d, \"parallelism\": {%s}}, \"metrics\": %s}\n",
      args.workload.c_str(), static_cast<unsigned long long>(args.seed), args.trace ? 1 : 0,
      checks.ok() ? "true" : "false", static_cast<unsigned long long>(attempted),
      static_cast<unsigned long long>(failed), checks.run(), failures.c_str(),
      untraced.front().work, reps.c_str(), seconds_since(t_start),
      std::thread::hardware_concurrency(), RACKBENCH_BUILD_TYPE, json_escape(compiler()).c_str(),
      R2C2_TRACING_ENABLED, parallel.c_str(), metrics_json(metrics).c_str());
  return checks.ok() ? 0 : 1;
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; i += 2) {
    const std::string key = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + key);
    const std::string val = argv[i + 1];
    if (key == "--workload") {
      a.workload = val;
    } else if (key == "--seed") {
      a.seed = std::stoull(val);
    } else if (key == "--seconds") {
      a.seconds = std::stod(val);
    } else if (key == "--trace") {
      a.trace = val != "0";
    } else {
      throw std::invalid_argument("unknown argument " + key);
    }
  }
  if (a.workload.empty()) throw std::invalid_argument("--workload is required");
  return a;
}

}  // namespace
}  // namespace rackbench

int main(int argc, char** argv) {
  try {
    return rackbench::run(rackbench::parse(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "rackbench: %s\n", e.what());
    return 2;
  }
}
