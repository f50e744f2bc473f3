#include <gtest/gtest.h>

#include <functional>
#include <numeric>
#include <utility>

#include "common/stats.h"
#include "sim/r2c2_sim.h"

namespace r2c2::sim {
namespace {

std::vector<FlowArrival> single_flow(NodeId src, NodeId dst, std::uint64_t bytes,
                                     TimeNs start = 0) {
  FlowArrival f;
  f.start = start;
  f.src = src;
  f.dst = dst;
  f.bytes = bytes;
  return {f};
}

TEST(R2c2Sim, SingleFlowAggregatesMultipathBandwidth) {
  // 0 -> 5 on a 4x4 torus has two link-disjoint shortest paths; RPS sprays
  // over both, so a lone flow legitimately exceeds a single link's rate —
  // the path-diversity benefit the paper contrasts with single-path TCP
  // (Section 5.2). Ceiling: 2 x 9.5 Gbps (headroom-reduced links).
  const Topology topo = make_torus({4, 4}, 10 * kGbps, 100);
  const Router router(topo);
  R2c2Sim sim(topo, router, {});
  sim.add_flows(single_flow(0, 5, 1 << 20));
  const RunMetrics m = sim.run();
  ASSERT_EQ(m.flows.size(), 1u);
  ASSERT_TRUE(m.flows[0].finished());
  EXPECT_GT(m.flows[0].throughput_bps(), 1.5 * 9.5e9);
  EXPECT_LE(m.flows[0].throughput_bps(), 2.0 * 9.5e9 + 1e8);
}

TEST(R2c2Sim, SinglePathFlowCapsAtLineRate) {
  // With deterministic DOR routing the same flow is single-path and tops
  // out at the headroom-reduced link rate.
  const Topology topo = make_torus({4, 4}, 10 * kGbps, 100);
  const Router router(topo);
  R2c2SimConfig cfg;
  cfg.route_alg = RouteAlg::kDor;
  R2c2Sim sim(topo, router, cfg);
  sim.add_flows(single_flow(0, 5, 1 << 20));
  const RunMetrics m = sim.run();
  ASSERT_TRUE(m.flows[0].finished());
  EXPECT_GT(m.flows[0].throughput_bps(), 8.5e9);
  EXPECT_LE(m.flows[0].throughput_bps(), 9.6e9);
}

TEST(R2c2Sim, AllBytesDeliveredExactlyOnce) {
  const Topology topo = make_torus({4, 4}, 10 * kGbps, 100);
  const Router router(topo);
  R2c2Sim sim(topo, router, {});
  WorkloadConfig wl;
  wl.num_nodes = topo.num_nodes();
  wl.num_flows = 100;
  wl.mean_interarrival = 10 * kNsPerUs;
  wl.max_bytes = 256 * 1024;
  sim.add_flows(generate_poisson_uniform(wl));
  const RunMetrics m = sim.run();
  EXPECT_EQ(m.flows.size(), 100u);
  for (const FlowRecord& f : m.flows) {
    EXPECT_TRUE(f.finished()) << "flow " << f.id;
    EXPECT_GT(f.fct(), 0) << "flow " << f.id;
  }
  EXPECT_EQ(m.drops, 0u);
}

TEST(R2c2Sim, TwoCompetingFlowsShareFairly) {
  // Two flows over the same DOR path: each should get ~half the link.
  const Topology topo = make_torus({8}, 10 * kGbps, 100);
  const Router router(topo);
  R2c2SimConfig cfg;
  cfg.route_alg = RouteAlg::kDor;
  cfg.recompute_interval = 50 * kNsPerUs;
  R2c2Sim sim(topo, router, cfg);
  std::vector<FlowArrival> flows;
  flows.push_back(single_flow(0, 2, 4 << 20)[0]);
  flows.push_back(single_flow(1, 3, 4 << 20)[0]);  // shares link 1->2
  sim.add_flows(flows);
  const RunMetrics m = sim.run();
  for (const FlowRecord& f : m.flows) {
    ASSERT_TRUE(f.finished());
    EXPECT_NEAR(f.throughput_bps(), 4.75e9, 0.8e9) << "flow " << f.id;
  }
}

TEST(R2c2Sim, WeightedFlowsSplitProportionally) {
  const Topology topo = make_torus({8}, 10 * kGbps, 100);
  const Router router(topo);
  R2c2SimConfig cfg;
  cfg.route_alg = RouteAlg::kDor;
  cfg.recompute_interval = 50 * kNsPerUs;
  R2c2Sim sim(topo, router, cfg);
  FlowArrival heavy = single_flow(0, 2, 6 << 20)[0];
  heavy.weight = 2.0;
  FlowArrival light = single_flow(1, 3, 6 << 20)[0];
  sim.add_flows({heavy, light});
  const RunMetrics m = sim.run();
  // While both are active the split is 2:1. The lighter flow finishes
  // later; compare average assigned rates over the heavy flow's lifetime
  // via the recorded rate integrals: the heavy flow's average allocated
  // rate must clearly exceed the light one's.
  ASSERT_TRUE(m.flows[0].finished() && m.flows[1].finished());
  EXPECT_GT(m.flows[0].avg_assigned_rate_bps, 1.5 * m.flows[1].avg_assigned_rate_bps * 0.8);
  EXPECT_LT(m.flows[0].fct(), m.flows[1].fct());
}

TEST(R2c2Sim, PriorityFlowPreempts) {
  const Topology topo = make_torus({8}, 10 * kGbps, 100);
  const Router router(topo);
  R2c2SimConfig cfg;
  cfg.route_alg = RouteAlg::kDor;
  cfg.recompute_interval = 20 * kNsPerUs;
  R2c2Sim sim(topo, router, cfg);
  FlowArrival background = single_flow(0, 2, 8 << 20)[0];
  background.priority = 1;
  FlowArrival urgent = single_flow(1, 3, 1 << 20)[0];
  urgent.priority = 0;
  urgent.start = 200 * kNsPerUs;  // arrives mid-transfer
  sim.add_flows({background, urgent});
  const RunMetrics m = sim.run();
  ASSERT_TRUE(m.flows[1].finished());
  // The urgent flow gets (nearly) the whole link despite the background
  // flow: FCT close to solo transfer time (1 MiB at 9.5 Gbps ~ 0.9 ms).
  EXPECT_LT(m.flows[1].fct(), static_cast<TimeNs>(1.4 * kNsPerMs));
}

TEST(R2c2Sim, BroadcastTrafficAccounted) {
  const Topology topo = make_torus({4, 4}, 10 * kGbps, 100);
  const Router router(topo);
  R2c2Sim sim(topo, router, {});
  WorkloadConfig wl;
  wl.num_nodes = topo.num_nodes();
  wl.num_flows = 50;
  wl.mean_interarrival = 5 * kNsPerUs;
  wl.max_bytes = 64 * 1024;
  sim.add_flows(generate_poisson_uniform(wl));
  const RunMetrics m = sim.run();
  // Two broadcasts per flow (start + finish), 15 tree edges each, 16 B per
  // copy. Retransmissions are impossible (control queues are unbounded).
  EXPECT_EQ(m.control_bytes_on_wire, 50u * 2 * 15 * 16);
}

TEST(R2c2Sim, QueuesStayTiny) {
  // Goal G3: with rate-based control the network runs at very low queuing.
  const Topology topo = make_torus({4, 4}, 10 * kGbps, 100);
  const Router router(topo);
  R2c2Sim sim(topo, router, {});
  WorkloadConfig wl;
  wl.num_nodes = topo.num_nodes();
  wl.num_flows = 200;
  wl.mean_interarrival = 2 * kNsPerUs;
  wl.max_bytes = 128 * 1024;
  sim.add_flows(generate_poisson_uniform(wl));
  const RunMetrics m = sim.run();
  std::vector<double> q(m.max_queue_bytes.begin(), m.max_queue_bytes.end());
  // 99th percentile of per-port max occupancy below a few packets.
  EXPECT_LT(percentile(q, 99), 30e3);
}

TEST(R2c2Sim, RhoZeroRecomputesPerEvent) {
  const Topology topo = make_torus({4, 4}, 10 * kGbps, 100);
  const Router router(topo);
  R2c2SimConfig cfg;
  cfg.recompute_interval = 0;
  R2c2Sim sim(topo, router, cfg);
  WorkloadConfig wl;
  wl.num_nodes = topo.num_nodes();
  wl.num_flows = 20;
  wl.max_bytes = 32 * 1024;
  sim.add_flows(generate_poisson_uniform(wl));
  const RunMetrics m = sim.run();
  for (const FlowRecord& f : m.flows) EXPECT_TRUE(f.finished());
  // One recomputation per applied flow event (starts + finishes).
  EXPECT_GE(sim.recomputations(), 40u);
}

TEST(R2c2Sim, SingleShardRunPublishesEngineGauges) {
  // A 1-shard run is the one-lane case of the sharded engine: its only
  // lane is the global lane, every event runs there in serial phases, and
  // it reports the same engine gauges a sharded run does.
  const Topology topo = make_torus({4, 4}, 10 * kGbps, 100);
  const Router router(topo);
  R2c2Sim sim(topo, router, {});
  sim.add_flows(single_flow(0, 5, 64 * 1024));
  const RunMetrics m = sim.run();
  ASSERT_TRUE(m.flows[0].finished());
  const obs::Gauge* lane0 = sim.metrics().find_gauge("engine.lane0.events");
  ASSERT_NE(lane0, nullptr);
  EXPECT_GT(m.events, 0u);
  EXPECT_EQ(lane0->value(), static_cast<double>(m.events));
  EXPECT_EQ(sim.metrics().find_gauge("engine.lane1.events"), nullptr);
  const obs::Gauge* phases = sim.metrics().find_gauge("engine.serial_phases");
  ASSERT_NE(phases, nullptr);
  EXPECT_GT(phases->value(), 0.0);
  EXPECT_LE(phases->value(), static_cast<double>(m.events));
}

TEST(R2c2Sim, SmallerRhoTracksIdealRatesCloser) {
  // The Fig. 15 mechanism: average assigned rates approach the rho = 0
  // ideal as the recomputation interval shrinks.
  const Topology topo = make_torus({4, 4}, 10 * kGbps, 100);
  const Router router(topo);
  WorkloadConfig wl;
  wl.num_nodes = topo.num_nodes();
  wl.num_flows = 150;
  wl.mean_interarrival = 2 * kNsPerUs;
  wl.max_bytes = 128 * 1024;
  wl.seed = 99;
  const auto arrivals = generate_poisson_uniform(wl);

  const auto run_with_rho = [&](TimeNs rho) {
    R2c2SimConfig cfg;
    cfg.recompute_interval = rho;
    R2c2Sim sim(topo, router, cfg);
    sim.add_flows(arrivals);
    return sim.run();
  };
  const RunMetrics ideal = run_with_rho(0);
  const auto err_vs_ideal = [&](const RunMetrics& m) {
    double total = 0.0;
    for (std::size_t i = 0; i < m.flows.size(); ++i) {
      const double ref = std::max(1.0, ideal.flows[i].avg_assigned_rate_bps);
      total += std::abs(m.flows[i].avg_assigned_rate_bps - ref) / ref;
    }
    return total / static_cast<double>(m.flows.size());
  };
  const double err_small = err_vs_ideal(run_with_rho(20 * kNsPerUs));
  const double err_large = err_vs_ideal(run_with_rho(2000 * kNsPerUs));
  EXPECT_LT(err_small, err_large);
}

TEST(R2c2Sim, HeadroomIsAKnobWithTwoSides) {
  // The headroom trade-off (Fig. 17): a modest 5% reservation costs long
  // flows little, while an extreme reservation visibly wastes capacity.
  // (The FCT *benefit* of small headroom only shows at rack scale and high
  // churn; the full sweep lives in bench/fig17_headroom.)
  const Topology topo = make_torus({4, 4}, 10 * kGbps, 100);
  const Router router(topo);
  WorkloadConfig wl;
  wl.num_nodes = topo.num_nodes();
  wl.num_flows = 40;
  wl.mean_interarrival = 2 * kNsPerUs;
  wl.seed = 5;
  auto arrivals = generate_poisson_uniform(wl);
  for (FlowArrival& f : arrivals) f.bytes = 2 << 20;  // all flows are "long"
  const auto mean_long_tput = [&](double headroom) {
    R2c2SimConfig cfg;
    cfg.alloc.headroom = headroom;
    R2c2Sim sim(topo, router, cfg);
    sim.add_flows(arrivals);
    const RunMetrics m = sim.run();
    double sum = 0.0;
    const auto v = m.long_flow_tput_gbps();
    for (const double x : v) sum += x;
    return sum / static_cast<double>(v.size());
  };
  const double at_5 = mean_long_tput(0.05);
  const double at_50 = mean_long_tput(0.50);
  EXPECT_GT(at_5, 1.25 * at_50);
}

TEST(R2c2Sim, ReorderBoundedUnderRps) {
  const Topology topo = make_torus({4, 4, 4}, 10 * kGbps, 100);
  const Router router(topo);
  R2c2Sim sim(topo, router, {});
  WorkloadConfig wl;
  wl.num_nodes = topo.num_nodes();
  wl.num_flows = 100;
  wl.mean_interarrival = 2 * kNsPerUs;
  wl.max_bytes = 256 * 1024;
  sim.add_flows(generate_poisson_uniform(wl));
  const RunMetrics m = sim.run();
  for (const FlowRecord& f : m.flows) {
    EXPECT_LT(f.max_reorder_pkts, 60u);  // Section 5.2 reports max 51
  }
}

TEST(R2c2Sim, VlbRoutingAlsoCompletes) {
  const Topology topo = make_torus({4, 4}, 10 * kGbps, 100);
  const Router router(topo);
  R2c2SimConfig cfg;
  cfg.route_alg = RouteAlg::kVlb;
  R2c2Sim sim(topo, router, cfg);
  sim.add_flows(single_flow(0, 5, 512 * 1024));
  const RunMetrics m = sim.run();
  ASSERT_TRUE(m.flows[0].finished());
}

TEST(R2c2Sim, ConfigFingerprintCoversEveryTrajectoryField) {
  // config_fingerprint() is a hand-written list of the config fields that
  // shape a run: changing any one of them must move it, and changing the
  // worker count or the observability sinks must not.
  const Topology topo = make_torus({4, 4}, 10 * kGbps, 100);
  const Router router(topo);
  const auto fingerprint = [&](const R2c2SimConfig& cfg) {
    return R2c2Sim(topo, router, cfg).config_fingerprint();
  };
  const std::uint64_t base = fingerprint({});
  using Edit = std::function<void(R2c2SimConfig&)>;
  const std::pair<const char*, Edit> shaping[] = {
      {"alloc.headroom", [](R2c2SimConfig& c) { c.alloc.headroom = 0.1; }},
      {"recompute_interval", [](R2c2SimConfig& c) { c.recompute_interval = 100 * kNsPerUs; }},
      {"route_alg", [](R2c2SimConfig& c) { c.route_alg = RouteAlg::kVlb; }},
      {"broadcast_trees", [](R2c2SimConfig& c) { c.broadcast_trees = 2; }},
      {"net.data_buffer_bytes", [](R2c2SimConfig& c) { c.net.data_buffer_bytes = 64 * 1024; }},
      {"net.corruption_rate", [](R2c2SimConfig& c) { c.net.corruption_rate = 1e-3; }},
      {"mtu_payload", [](R2c2SimConfig& c) { c.mtu_payload = 1000; }},
      {"reliable", [](R2c2SimConfig& c) { c.reliable = true; }},
      {"rto", [](R2c2SimConfig& c) { c.rto = 100 * kNsPerUs; }},
      {"max_retransmits", [](R2c2SimConfig& c) { c.max_retransmits = 8; }},
      {"adaptive_rto", [](R2c2SimConfig& c) { c.adaptive_rto = true; }},
      {"max_rto", [](R2c2SimConfig& c) { c.max_rto = 1000 * kNsPerUs; }},
      {"retransmit_jitter", [](R2c2SimConfig& c) { c.retransmit_jitter = true; }},
      {"faults",
       [](R2c2SimConfig& c) { c.faults.events.push_back(FaultScript::fail_link(kNsPerUs, 0)); }},
      {"keepalive_interval", [](R2c2SimConfig& c) { c.keepalive_interval = 10 * kNsPerUs; }},
      {"adaptive_detection", [](R2c2SimConfig& c) { c.adaptive_detection = true; }},
      {"congestion_aware", [](R2c2SimConfig& c) { c.congestion_aware = true; }},
      {"ecn_threshold_bytes", [](R2c2SimConfig& c) { c.ecn_threshold_bytes = 4 * 1024; }},
      {"lease_interval", [](R2c2SimConfig& c) { c.lease_interval = 100 * kNsPerUs; }},
      {"seed", [](R2c2SimConfig& c) { c.seed = 8; }},
      {"engine_shards", [](R2c2SimConfig& c) { c.engine_shards = 2; }},
  };
  for (const auto& [field, edit] : shaping) {
    R2c2SimConfig cfg;
    edit(cfg);
    EXPECT_NE(fingerprint(cfg), base) << field;
  }

  // Checked on two shards, where a second worker has a lane to drive.
  R2c2SimConfig sharded;
  sharded.engine_shards = 2;
  const std::uint64_t sharded_base = fingerprint(sharded);
  obs::FlightRecorder recorder(64);
  obs::MetricsRegistry registry;
  const std::pair<const char*, Edit> neutral[] = {
      {"engine_workers", [](R2c2SimConfig& c) { c.engine_workers = 2; }},
      {"trace", [&](R2c2SimConfig& c) { c.trace = &recorder; }},
      {"metrics", [&](R2c2SimConfig& c) { c.metrics = &registry; }},
  };
  for (const auto& [field, edit] : neutral) {
    R2c2SimConfig cfg = sharded;
    edit(cfg);
    EXPECT_EQ(fingerprint(cfg), sharded_base) << field;
  }
}

}  // namespace
}  // namespace r2c2::sim
