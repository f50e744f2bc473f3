// Acceptance check for the observability layer: a full R2c2Sim run with a
// recorder attached (including a mid-run cable failure) must export Chrome
// trace-event JSON that a trace viewer will accept — every event has a
// valid phase, timestamps are monotone per tid (per rack node), and every
// Begin has a matching End. A minimal purpose-built parser walks the JSON;
// no external JSON dependency.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <unordered_map>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "obs/trace_export.h"
#include "sim/fault.h"
#include "sim/metrics.h"
#include "sim/r2c2_sim.h"
#include "topology/topology.h"
#include "workload/generator.h"

namespace r2c2 {
namespace {

using sim::FaultScript;
using sim::R2c2Sim;
using sim::R2c2SimConfig;
using sim::RunMetrics;

struct ParsedEvent {
  char ph = '?';
  double ts = 0.0;   // microseconds
  long long tid = -1;
  std::string name;
};

// Minimal extractor for the exporter's fixed one-event-per-line format.
// Returns events in file order (which is emission order).
std::vector<ParsedEvent> parse_events(const std::string& json) {
  std::vector<ParsedEvent> out;
  const std::string marker = "{\"name\": \"";
  for (std::size_t pos = json.find(marker); pos != std::string::npos;
       pos = json.find(marker, pos + 1)) {
    const std::size_t line_end = json.find('\n', pos);
    const std::string line = json.substr(pos, line_end - pos);
    ParsedEvent ev;
    const std::size_t name_end = line.find('"', marker.size());
    ev.name = line.substr(marker.size(), name_end - marker.size());
    const std::size_t ph = line.find("\"ph\": \"");
    if (ph != std::string::npos) ev.ph = line[ph + 7];
    const std::size_t ts = line.find("\"ts\": ");
    if (ts != std::string::npos) ev.ts = std::stod(line.substr(ts + 6));
    const std::size_t tid = line.find("\"tid\": ");
    if (tid != std::string::npos) ev.tid = std::stoll(line.substr(tid + 7));
    out.push_back(std::move(ev));
  }
  return out;
}

TEST(TraceSchema, FullSimRunExportsValidBalancedTrace) {
  const Topology topo = make_torus({4, 4}, 10 * kGbps, 100);
  const Router router(topo);

  obs::FlightRecorder recorder;
  obs::MetricsRegistry registry;
  R2c2SimConfig cfg;
  cfg.trace = &recorder;
  cfg.metrics = &registry;
  cfg.reliable = true;
  cfg.keepalive_interval = 10 * kNsPerUs;
  cfg.lease_interval = 100 * kNsPerUs;
  cfg.rto = 200 * kNsPerUs;
  const LinkId victim = topo.find_link(0, 1);
  cfg.faults.events.push_back(FaultScript::fail_link(120 * kNsPerUs, victim));

  WorkloadConfig wl;
  wl.num_nodes = topo.num_nodes();
  wl.num_flows = 40;
  wl.mean_interarrival = 5 * kNsPerUs;
  wl.max_bytes = 96 * 1024;
  wl.seed = 21;

  R2c2Sim simulator(topo, router, cfg);
  simulator.add_flows(generate_poisson_uniform(wl));
  const RunMetrics m = simulator.run();
  ASSERT_EQ(m.flows.size(), 40u);
  for (const auto& f : m.flows) ASSERT_TRUE(f.finished()) << f.id;

  const std::string json = to_chrome_trace_json(recorder);

  // --- The run actually traced: every subsystem left events behind. ---
  ASSERT_FALSE(recorder.empty());
  const std::vector<ParsedEvent> events = parse_events(json);
  ASSERT_GE(events.size(), 80u);  // 40 starts + 40 finishes at minimum

  std::unordered_map<long long, double> last_ts;      // per-tid monotonicity
  std::unordered_map<long long, long long> depth;     // per-tid B/E balance
  bool saw_flow_start = false, saw_flow_finish = false, saw_recompute = false;
  bool saw_fault = false;
  for (const ParsedEvent& ev : events) {
    // Valid phase, node attribution in range.
    ASSERT_TRUE(ev.ph == 'B' || ev.ph == 'E' || ev.ph == 'i') << ev.ph;
    ASSERT_GE(ev.tid, 0);
    ASSERT_LT(ev.tid, topo.num_nodes());
    // Monotone (non-decreasing) timestamps per tid.
    const auto it = last_ts.find(ev.tid);
    if (it != last_ts.end()) {
      ASSERT_GE(ev.ts, it->second) << "tid " << ev.tid << " went backwards at " << ev.name;
    }
    last_ts[ev.tid] = ev.ts;
    // Balanced spans: depth never goes negative.
    if (ev.ph == 'B') ++depth[ev.tid];
    if (ev.ph == 'E') {
      --depth[ev.tid];
      ASSERT_GE(depth[ev.tid], 0) << "unmatched End on tid " << ev.tid;
    }
    saw_flow_start |= ev.name == "flow_start";
    saw_flow_finish |= ev.name == "flow_finish";
    saw_recompute |= ev.name == "rate_recompute";
    saw_fault |= ev.name == "fault_inject" || ev.name == "fault_detect" ||
                 ev.name == "fault_rebuild";
  }
  for (const auto& [tid, d] : depth) {
    EXPECT_EQ(d, 0) << "dangling Begin on tid " << tid;
  }
  EXPECT_TRUE(saw_flow_start);
  EXPECT_TRUE(saw_flow_finish);
  EXPECT_TRUE(saw_recompute);
  EXPECT_TRUE(saw_fault);

  // The shared registry observed the same run.
  ASSERT_NE(registry.find_counter("r2c2.flows_started"), nullptr);
  EXPECT_EQ(registry.find_counter("r2c2.flows_started")->value(), 40u);
  EXPECT_EQ(registry.find_counter("r2c2.flows_finished")->value(), 40u);
  EXPECT_GT(registry.find_counter("r2c2.recomputations")->value(), 0u);
  ASSERT_NE(registry.find_histogram("r2c2.recompute_wall_ns"), nullptr);
  EXPECT_GT(registry.find_histogram("r2c2.recompute_wall_ns")->count(), 0u);

  // The envelope itself is always present (what CI uploads as an artifact).
  EXPECT_NE(json.find("\"displayTimeUnit\": \"ns\""), std::string::npos);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"events_overwritten\""), std::string::npos);

  // write_chrome_trace() round-trips the same bytes to disk.
  const std::string path = ::testing::TempDir() + "r2c2_trace_schema_test.json";
  ASSERT_TRUE(write_chrome_trace(recorder, path));
  FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::string disk;
  char buf[4096];
  for (std::size_t n; (n = std::fread(buf, 1, sizeof(buf), f)) > 0;) disk.append(buf, n);
  std::fclose(f);
  std::remove(path.c_str());
  EXPECT_EQ(disk, json);
}

TEST(TraceSchema, SmallRingStillExportsBalancedSpans) {
  // Force heavy wraparound: a tiny ring attached to a real run. Orphaned
  // Ends must be dropped and dangling Begins closed, so the export stays
  // viewer-loadable even when most of the run was overwritten.
  const Topology topo = make_torus({4, 4}, 10 * kGbps, 100);
  const Router router(topo);
  obs::FlightRecorder recorder(64);
  R2c2SimConfig cfg;
  cfg.trace = &recorder;

  WorkloadConfig wl;
  wl.num_nodes = topo.num_nodes();
  wl.num_flows = 60;
  wl.mean_interarrival = 3 * kNsPerUs;
  wl.max_bytes = 64 * 1024;
  wl.seed = 5;

  R2c2Sim simulator(topo, router, cfg);
  simulator.add_flows(generate_poisson_uniform(wl));
  simulator.run();

  EXPECT_EQ(recorder.size(), recorder.capacity());
  EXPECT_GT(recorder.overwritten(), 0u);
  const std::vector<ParsedEvent> events = parse_events(to_chrome_trace_json(recorder));
  std::unordered_map<long long, long long> depth;
  for (const ParsedEvent& ev : events) {
    if (ev.ph == 'B') ++depth[ev.tid];
    if (ev.ph == 'E') {
      --depth[ev.tid];
      ASSERT_GE(depth[ev.tid], 0);
    }
  }
  for (const auto& [tid, d] : depth) EXPECT_EQ(d, 0) << tid;
}

TEST(TraceSchema, ShardedRunMergesLaneTracesIdenticallyAcrossWorkerCounts) {
  // Regression: the recorder used to detach silently whenever the engine ran
  // with more than one worker (the ring is single-threaded). Sharded runs
  // now give each lane a private ring, merged (ts, lane, position)-ordered
  // at metrics collection — so a W=4 run keeps its full trace, and the
  // merged sequence is bit-identical to the same shard count at W=1.
  const Topology topo = make_torus({4, 4}, 10 * kGbps, 100);
  const Router router(topo);

  WorkloadConfig wl;
  wl.num_nodes = topo.num_nodes();
  wl.num_flows = 40;
  wl.mean_interarrival = 5 * kNsPerUs;
  wl.max_bytes = 96 * 1024;
  wl.seed = 21;

  auto run_traced = [&](int workers, obs::FlightRecorder& rec) {
    R2c2SimConfig cfg;
    cfg.trace = &rec;
    cfg.reliable = true;
    cfg.keepalive_interval = 10 * kNsPerUs;
    cfg.lease_interval = 100 * kNsPerUs;
    cfg.rto = 200 * kNsPerUs;
    cfg.engine_shards = 4;
    cfg.engine_workers = workers;
    const LinkId victim = topo.find_link(0, 1);
    cfg.faults.events.push_back(FaultScript::fail_link(120 * kNsPerUs, victim));
    R2c2Sim simulator(topo, router, cfg);
    simulator.add_flows(generate_poisson_uniform(wl));
    const RunMetrics m = simulator.run();
    for (const auto& f : m.flows) EXPECT_TRUE(f.finished()) << f.id;
  };

  obs::FlightRecorder rec_w1;
  obs::FlightRecorder rec_w4;
  run_traced(1, rec_w1);
  run_traced(4, rec_w4);

  ASSERT_FALSE(rec_w4.empty());
  const std::vector<obs::TraceEvent> a = rec_w1.snapshot();
  const std::vector<obs::TraceEvent> b = rec_w4.snapshot();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].ts, b[i].ts) << i;
    EXPECT_EQ(a[i].node, b[i].node) << i;
    EXPECT_EQ(static_cast<int>(a[i].type), static_cast<int>(b[i].type)) << i;
    EXPECT_EQ(static_cast<int>(a[i].phase), static_cast<int>(b[i].phase)) << i;
    // Every span End carries the *wall-clock* cost of the scope in arg0
    // (ScopedTimer convention; see obs/scope.h) — real elapsed time,
    // legitimately different run to run. Everything else matches bit for
    // bit.
    if (a[i].phase != obs::EventPhase::kEnd) {
      EXPECT_EQ(a[i].arg0, b[i].arg0) << i;
    }
    EXPECT_EQ(a[i].arg1, b[i].arg1) << i;
  }

  // The merged trace still satisfies the viewer schema: valid phases,
  // in-range node attribution, monotone timestamps per tid, balanced spans.
  const std::vector<ParsedEvent> events = parse_events(to_chrome_trace_json(rec_w4));
  ASSERT_GE(events.size(), 80u);  // 40 starts + 40 finishes at minimum
  std::unordered_map<long long, double> last_ts;
  std::unordered_map<long long, long long> depth;
  bool saw_fault = false;
  for (const ParsedEvent& ev : events) {
    ASSERT_TRUE(ev.ph == 'B' || ev.ph == 'E' || ev.ph == 'i') << ev.ph;
    ASSERT_GE(ev.tid, 0);
    ASSERT_LT(ev.tid, topo.num_nodes());
    const auto it = last_ts.find(ev.tid);
    if (it != last_ts.end()) {
      ASSERT_GE(ev.ts, it->second) << ev.name;
    }
    last_ts[ev.tid] = ev.ts;
    if (ev.ph == 'B') ++depth[ev.tid];
    if (ev.ph == 'E') {
      --depth[ev.tid];
      ASSERT_GE(depth[ev.tid], 0);
    }
    saw_fault |= ev.name == "fault_inject" || ev.name == "fault_detect" ||
                 ev.name == "fault_rebuild";
  }
  for (const auto& [tid, d] : depth) EXPECT_EQ(d, 0) << tid;
  EXPECT_TRUE(saw_fault);
}

}  // namespace
}  // namespace r2c2
