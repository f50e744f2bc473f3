#include <gtest/gtest.h>

#include "common/stats.h"
#include "sim/pfq_sim.h"
#include "snapshot/replay.h"

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

TEST(PfqSim, SingleFlowSustainsLineRate) {
  const Topology topo = make_torus({4, 4}, 10 * kGbps, 100);
  const Router router(topo);
  PfqSimConfig cfg;
  cfg.route_alg = RouteAlg::kDor;
  PfqSim sim(topo, router, cfg);
  sim.add_flows(single_flow(0, 5, 2 << 20));
  const RunMetrics m = sim.run();
  ASSERT_TRUE(m.flows[0].finished());
  // Back-pressure with a 2-packet quota must not throttle a solo flow.
  EXPECT_GT(m.flows[0].throughput_bps(), 9e9);
  EXPECT_LE(m.flows[0].throughput_bps(), 10.1e9);
}

TEST(PfqSim, AllFlowsComplete) {
  const Topology topo = make_torus({4, 4}, 10 * kGbps, 100);
  const Router router(topo);
  PfqSim sim(topo, router, {});
  WorkloadConfig wl;
  wl.num_nodes = topo.num_nodes();
  wl.num_flows = 150;
  wl.mean_interarrival = 2 * kNsPerUs;
  wl.max_bytes = 128 * 1024;
  sim.add_flows(generate_poisson_uniform(wl));
  const RunMetrics m = sim.run();
  for (const FlowRecord& f : m.flows) EXPECT_TRUE(f.finished()) << "flow " << f.id;
}

TEST(PfqSim, PerFlowFairnessOnSharedLink) {
  const Topology topo = make_torus({8}, 10 * kGbps, 100);
  const Router router(topo);
  PfqSimConfig cfg;
  cfg.route_alg = RouteAlg::kDor;
  PfqSim sim(topo, router, cfg);
  std::vector<FlowArrival> flows;
  flows.push_back(single_flow(0, 2, 4 << 20)[0]);
  flows.push_back(single_flow(1, 3, 4 << 20)[0]);  // shares 1->2
  sim.add_flows(flows);
  const RunMetrics m = sim.run();
  ASSERT_TRUE(m.flows[0].finished() && m.flows[1].finished());
  // Round-robin gives a clean 50/50 split while both are active.
  const double ratio = m.flows[0].throughput_bps() / m.flows[1].throughput_bps();
  EXPECT_GT(ratio, 0.75);
  EXPECT_LT(ratio, 1.35);
}

TEST(PfqSim, BackpressureBoundsQueues) {
  // Per-flow quota K means no port can ever hold more than K bytes per
  // flow: total occupancy is bounded by active-flows x K.
  const Topology topo = make_torus({4, 4}, 10 * kGbps, 100);
  const Router router(topo);
  PfqSimConfig cfg;
  PfqSim sim(topo, router, cfg);
  std::vector<FlowArrival> flows;
  for (NodeId s : {1, 2, 3, 4, 6, 7, 8, 9}) {
    FlowArrival f;
    f.src = s;
    f.dst = 0;
    f.bytes = 1 << 20;
    flows.push_back(f);
  }
  sim.add_flows(flows);
  const RunMetrics m = sim.run();
  const auto max_q = *std::max_element(m.max_queue_bytes.begin(), m.max_queue_bytes.end());
  EXPECT_LE(max_q, flows.size() * kPfqFlowQuotaBytes);
  for (const FlowRecord& f : m.flows) EXPECT_TRUE(f.finished());
}

TEST(PfqSim, IncastSharesSink) {
  // 4 senders into one sink: each gets ~1/4 of the sink capacity... but the
  // sink has 4 incoming links (torus), so with distinct last hops each can
  // approach line rate; force a shared last link by colinear placement.
  const Topology topo = make_torus({8}, 10 * kGbps, 100);
  const Router router(topo);
  PfqSimConfig cfg;
  cfg.route_alg = RouteAlg::kDor;
  PfqSim sim(topo, router, cfg);
  std::vector<FlowArrival> flows;
  for (NodeId s : {1, 2, 3}) {  // all route x-forward through 3->4
    FlowArrival f;
    f.src = s;
    f.dst = 4;
    f.bytes = 3 << 20;
    flows.push_back(f);
  }
  sim.add_flows(flows);
  const RunMetrics m = sim.run();
  std::vector<double> tputs;
  for (const FlowRecord& f : m.flows) {
    EXPECT_TRUE(f.finished());
    tputs.push_back(f.throughput_bps());
  }
  // All complete; aggregate bounded by the shared 3->4 link.
  EXPECT_LE(*std::max_element(tputs.begin(), tputs.end()), 10.1e9);
}

TEST(PfqSim, WorkConservingUnderSpray) {
  // RPS spraying: one flow between far corners exceeds single-link rate
  // when per-hop quotas don't throttle it (idealized forwarding).
  const Topology topo = make_torus({4, 4}, 10 * kGbps, 100);
  const Router router(topo);
  PfqSim sim(topo, router, {});
  sim.add_flows(single_flow(0, 5, 4 << 20));
  const RunMetrics m = sim.run();
  ASSERT_TRUE(m.flows[0].finished());
  EXPECT_GT(m.flows[0].throughput_bps(), 11e9);  // multipath gain
}

// Pins the PFQ baseline's whole trajectory: a small sprayed Poisson
// workload plus a four-to-one incast, so back-pressure parks ports and
// occupancy drops wake them. Any change to what an event does, or to the
// order events run in, moves the metrics digest or the event count.
TEST(PfqSim, FixedWorkloadDigestAndEventsArePinned) {
  const Topology topo = make_torus({4, 4}, 10 * kGbps, 100);
  const Router router(topo);
  PfqSim sim(topo, router, {});
  WorkloadConfig wl;
  wl.num_nodes = topo.num_nodes();
  wl.num_flows = 40;
  wl.mean_interarrival = 5 * kNsPerUs;
  wl.max_bytes = 128 * 1024;
  std::vector<FlowArrival> flows = generate_poisson_uniform(wl);
  for (const NodeId src : {1, 2, 3, 4}) flows.push_back(single_flow(src, 5, 256 * 1024)[0]);
  sim.add_flows(flows);
  const RunMetrics m = sim.run();
  EXPECT_EQ(snapshot::metrics_digest(m), 0x083b2d40ef6aff1fULL);
  EXPECT_EQ(m.events, 4164u);
}

}  // namespace
}  // namespace r2c2::sim
