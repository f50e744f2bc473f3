#include <gtest/gtest.h>

#include "common/stats.h"
#include "sim/tcp_sim.h"
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

TEST(TcpSim, SingleFlowCompletes) {
  const Topology topo = make_torus({4, 4}, 10 * kGbps, 100);
  const Router router(topo);
  TcpSim sim(topo, router, {});
  sim.add_flows(single_flow(0, 5, 1 << 20));
  const RunMetrics m = sim.run();
  ASSERT_EQ(m.flows.size(), 1u);
  ASSERT_TRUE(m.flows[0].finished());
  // Single ECMP path: can never beat one link's rate.
  EXPECT_LE(m.flows[0].throughput_bps(), 10.1e9);
  EXPECT_GT(m.flows[0].throughput_bps(), 1e9);  // slow start converges quickly at 2 us RTT
}

TEST(TcpSim, AllFlowsEventuallyComplete) {
  const Topology topo = make_torus({4, 4}, 10 * kGbps, 100);
  const Router router(topo);
  TcpSim sim(topo, router, {});
  WorkloadConfig wl;
  wl.num_nodes = topo.num_nodes();
  wl.num_flows = 100;
  wl.mean_interarrival = 10 * kNsPerUs;
  wl.max_bytes = 256 * 1024;
  sim.add_flows(generate_poisson_uniform(wl));
  const RunMetrics m = sim.run();
  for (const FlowRecord& f : m.flows) EXPECT_TRUE(f.finished()) << "flow " << f.id;
}

TEST(TcpSim, RecoversFromDrops) {
  // A tiny 6 KB buffer forces drops under incast; TCP must still deliver.
  const Topology topo = make_torus({4, 4}, 10 * kGbps, 100);
  const Router router(topo);
  TcpSimConfig cfg;
  cfg.net.data_buffer_bytes = 6 * 1024;
  TcpSim sim(topo, router, cfg);
  std::vector<FlowArrival> flows;
  for (NodeId s : {1, 2, 3, 4, 6, 7}) {
    FlowArrival f;
    f.src = s;
    f.dst = 5;
    f.bytes = 512 * 1024;
    flows.push_back(f);
  }
  sim.add_flows(flows);
  const RunMetrics m = sim.run();
  EXPECT_GT(m.drops, 0u);
  EXPECT_GT(sim.retransmissions(), 0u);
  for (const FlowRecord& f : m.flows) EXPECT_TRUE(f.finished()) << "flow " << f.id;
}

TEST(TcpSim, FairishSharingOnSharedBottleneck) {
  const Topology topo = make_torus({8}, 10 * kGbps, 100);
  const Router router(topo);
  TcpSim sim(topo, router, {});
  // Both flows traverse the 0->1->2 direction (single shortest path on a
  // ring segment): they share link 1->2.
  std::vector<FlowArrival> flows;
  flows.push_back(single_flow(0, 2, 8 << 20)[0]);
  flows.push_back(single_flow(1, 2, 8 << 20)[0]);
  sim.add_flows(flows);
  const RunMetrics m = sim.run();
  ASSERT_TRUE(m.flows[0].finished() && m.flows[1].finished());
  const double ratio = m.flows[0].throughput_bps() / m.flows[1].throughput_bps();
  EXPECT_GT(ratio, 0.4);
  EXPECT_LT(ratio, 2.5);
}

TEST(TcpSim, ShortFlowsSufferBehindLongOnes) {
  // The Fig. 10 mechanism: a short flow sharing a drop-tail queue with a
  // bulk flow sees inflated FCT versus running alone.
  const Topology topo = make_torus({8}, 10 * kGbps, 100);
  const Router router(topo);
  // The probes share the bulk flow's path (the single shortest 0->1->2
  // route on the ring) and therefore its drop-tail queues. AIMD makes the
  // queue oscillate, so sample several probe times and compare the worst
  // case against an uncontended probe.
  const auto short_fcts = [&](bool with_background) {
    TcpSim sim(topo, router, {});
    std::vector<FlowArrival> flows;
    if (with_background) flows.push_back(single_flow(0, 2, 16 << 20)[0]);
    const std::size_t first_probe = flows.size();
    for (int i = 0; i < 5; ++i) {
      FlowArrival probe = single_flow(0, 2, 20 * 1024)[0];
      probe.start = (500 + 900 * i) * kNsPerUs;
      flows.push_back(probe);
    }
    sim.add_flows(flows);
    const RunMetrics m = sim.run();
    TimeNs worst = 0;
    for (std::size_t i = first_probe; i < m.flows.size(); ++i) {
      EXPECT_TRUE(m.flows[i].finished());
      worst = std::max(worst, m.flows[i].fct());
    }
    return worst;
  };
  EXPECT_GT(short_fcts(true), 2 * short_fcts(false));
}

TEST(TcpSim, SinglePathMeansNoReordering) {
  // With no drops (unbounded buffers), a single-path flow arrives strictly
  // in order. (With drop-tail buffers, retransmission holes would be
  // buffered and counted.)
  const Topology topo = make_torus({4, 4}, 10 * kGbps, 100);
  const Router router(topo);
  TcpSimConfig cfg;
  cfg.net.data_buffer_bytes = 0;
  TcpSim sim(topo, router, cfg);
  sim.add_flows(single_flow(0, 9, 2 << 20));
  const RunMetrics m = sim.run();
  ASSERT_TRUE(m.flows[0].finished());
  EXPECT_EQ(m.flows[0].max_reorder_pkts, 0u);
}

TEST(TcpSim, QueuesFillUpUnlikeR2c2) {
  // TCP keeps drop-tail buffers full (no pacing): max occupancy reaches a
  // large fraction of the configured buffer.
  const Topology topo = make_torus({8}, 10 * kGbps, 100);
  const Router router(topo);
  TcpSimConfig cfg;
  cfg.net.data_buffer_bytes = 96 * 1024;
  TcpSim sim(topo, router, cfg);
  std::vector<FlowArrival> flows;
  flows.push_back(single_flow(0, 2, 8 << 20)[0]);
  flows.push_back(single_flow(1, 2, 8 << 20)[0]);
  sim.add_flows(flows);
  const RunMetrics m = sim.run();
  const auto max_q = *std::max_element(m.max_queue_bytes.begin(), m.max_queue_bytes.end());
  EXPECT_GT(max_q, 48u * 1024);
}

// Pins the TCP baseline's whole trajectory: a small Poisson workload plus a
// four-to-one incast behind 6 KB buffers, so drops, fast retransmits and
// timeouts (stale ones included) all fire. Any change to what an event
// does, or to the order events run in, moves the metrics digest or the
// event count.
TEST(TcpSim, FixedWorkloadDigestAndEventsArePinned) {
  const Topology topo = make_torus({4, 4}, 10 * kGbps, 100);
  const Router router(topo);
  TcpSimConfig cfg;
  cfg.net.data_buffer_bytes = 6 * 1024;
  TcpSim sim(topo, router, cfg);
  WorkloadConfig wl;
  wl.num_nodes = topo.num_nodes();
  wl.num_flows = 40;
  wl.mean_interarrival = 5 * kNsPerUs;
  wl.max_bytes = 128 * 1024;
  std::vector<FlowArrival> flows = generate_poisson_uniform(wl);
  for (const NodeId src : {1, 2, 3, 4}) flows.push_back(single_flow(src, 5, 256 * 1024)[0]);
  sim.add_flows(flows);
  const RunMetrics m = sim.run();
  EXPECT_GT(sim.retransmissions(), 0u);
  EXPECT_EQ(snapshot::metrics_digest(m), 0xbf9046114b3ef190ULL);
  EXPECT_EQ(m.events, 9847u);
}

}  // namespace
}  // namespace r2c2::sim
