// Gray failures: per-direction link degradation (loss, corruption, added
// latency/jitter, flap oscillators), phi-accrual-style adaptive detection
// that demotes lossy-but-alive links in routing without declaring them
// dead, adaptive-RTO give-up surfaced as explicit flow aborts, and the
// snapshot discipline over all of the new state.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/rng.h"
#include "routing/routing.h"
#include "sim/fault.h"
#include "sim/metrics.h"
#include "sim/network.h"
#include "sim/r2c2_sim.h"
#include "snapshot/archive.h"
#include "snapshot/replay.h"
#include "topology/topology.h"
#include "workload/generator.h"

namespace r2c2 {
namespace {

using sim::ChaosConfig;
using sim::Engine;
using sim::FaultEvent;
using sim::FaultInjector;
using sim::FaultScript;
using sim::LinkDegrade;
using sim::LinkDir;
using sim::Network;
using sim::NetworkConfig;
using sim::R2c2Sim;
using sim::R2c2SimConfig;
using sim::RunMetrics;
using sim::SimPacket;

std::vector<FlowArrival> mesh_workload(const Topology& topo, int flows, std::uint64_t seed) {
  WorkloadConfig wl;
  wl.num_nodes = topo.num_nodes();
  wl.num_flows = flows;
  wl.mean_interarrival = 5 * kNsPerUs;
  wl.max_bytes = 96 * 1024;
  wl.seed = seed;
  return generate_poisson_uniform(wl);
}

// --- Network-level degradation ---------------------------------------------

class GrayNetworkTest : public ::testing::Test {
 protected:
  GrayNetworkTest() : topo_(make_torus({4}, 10 * kGbps, 100)) {}

  SimPacket data_packet(const Path& path, std::uint32_t bytes) {
    SimPacket p;
    p.type = PacketType::kData;
    p.flow = 1;
    p.src = path.front();
    p.dst = path.back();
    p.payload = bytes - static_cast<std::uint32_t>(DataHeader::kWireSize);
    p.wire_bytes = bytes;
    p.route = encode_path(topo_, path);
    return p;
  }

  Topology topo_;
};

TEST_F(GrayNetworkTest, LossIsPerDirection) {
  Engine e;
  Network net(e, topo_, {});
  int delivered = 0;
  net.set_deliver([&](NodeId, SimPacket&&) { ++delivered; });
  LinkDegrade gray;
  gray.loss_prob = 1.0;  // certain loss, so no RNG luck in the assertion
  net.set_link_degrade(topo_.find_link(0, 1), gray);
  net.forward(0, data_packet({0, 1}, 1500));  // degraded direction: lost
  net.forward(1, data_packet({1, 0}, 1500));  // reverse direction: clean
  e.run();
  EXPECT_EQ(delivered, 1);
  EXPECT_EQ(net.gray_drops(), 1u);
  EXPECT_EQ(net.degraded_links(), 1);
}

TEST_F(GrayNetworkTest, AddedLatencyShiftsArrivalExactly) {
  Engine e;
  Network net(e, topo_, {});
  TimeNs arrival = -1;
  net.set_deliver([&](NodeId, SimPacket&&) { arrival = e.now(); });
  LinkDegrade gray;
  gray.added_latency = 777;
  net.set_link_degrade(topo_.find_link(0, 1), gray);
  net.forward(0, data_packet({0, 1}, 1500));
  e.run();
  // 1500 B at 10 Gbps = 1200 ns + 100 ns propagation + 777 ns degradation.
  EXPECT_EQ(arrival, 1300 + 777);
}

TEST_F(GrayNetworkTest, JitterIsBoundedAndDeterministic) {
  auto run_once = [&] {
    Engine e;
    Network net(e, topo_, {});
    std::vector<TimeNs> arrivals;
    net.set_deliver([&](NodeId, SimPacket&&) { arrivals.push_back(e.now()); });
    LinkDegrade gray;
    gray.jitter = 400;
    net.set_link_degrade(topo_.find_link(0, 1), gray);
    for (int i = 0; i < 8; ++i) net.forward(0, data_packet({0, 1}, 1500));
    e.run();
    return arrivals;
  };
  const std::vector<TimeNs> a = run_once();
  const std::vector<TimeNs> b = run_once();
  ASSERT_EQ(a.size(), 8u);
  EXPECT_EQ(a, b);  // jitter draws come from the seeded per-lane RNG
  for (std::size_t i = 0; i < a.size(); ++i) {
    // Each arrival is its queue-position baseline plus jitter in [0, 400).
    const TimeNs base = 1300 + static_cast<TimeNs>(i) * 1200;
    EXPECT_GE(a[i], base);
    EXPECT_LT(a[i], base + 400);
  }
}

TEST_F(GrayNetworkTest, FlapOscillatorGoesDarkPeriodically) {
  Engine e;
  Network net(e, topo_, {});
  int delivered = 0;
  net.set_deliver([&](NodeId, SimPacket&&) { ++delivered; });
  LinkDegrade gray;
  gray.flap_period = 1000;
  gray.flap_down = 500;  // dark during [0, 500) of each period (anchor = now)
  const LinkId link = topo_.find_link(0, 1);
  net.set_link_degrade(link, gray);
  // The flap gate is sampled when serialization *starts* (try_transmit),
  // so keep the port idle between sends: packet one transmits at t=100
  // (dark: 100 % 1000 < 500), packet two at t=1600 (up: 600 >= 500).
  constexpr std::uint32_t kSend = 99;  // this test's own kind: send one packet
  e.handle(kSend, [&](const sim::EventDesc&) { net.forward(0, data_packet({0, 1}, 1500)); });
  e.schedule_at(100, sim::EventDesc{kSend, 0, 0});
  e.schedule_at(1600, sim::EventDesc{kSend, 0, 0});
  e.run();
  EXPECT_EQ(delivered, 1);
  EXPECT_EQ(net.gray_drops(), 1u);
}

// --- Injector direction split ----------------------------------------------

TEST(GrayInjector, OneWayFailTakesOnlyOneDirectionDark) {
  const Topology topo = make_torus({4}, 10 * kGbps, 100);
  Engine e;
  Network net(e, topo, NetworkConfig{});
  const LinkId fwd = topo.find_link(0, 1);
  FaultScript script;
  script.events.push_back(FaultScript::fail_one_way(100, fwd));
  script.events.push_back(FaultScript::restore_one_way(300, fwd));
  FaultInjector injector(e, net, topo, script);
  injector.arm();
  e.run(200);
  EXPECT_FALSE(injector.link_up(fwd));
  EXPECT_TRUE(injector.link_up(fwd, LinkDir::kReverse));
  EXPECT_FALSE(injector.cable_up(fwd));
  e.run();
  EXPECT_TRUE(injector.cable_up(fwd));
  EXPECT_EQ(injector.failures_injected(), 1u);
  EXPECT_EQ(injector.restores_injected(), 1u);
}

TEST(GrayInjector, OneWayDegradeLeavesReverseClean) {
  const Topology topo = make_torus({4}, 10 * kGbps, 100);
  Engine e;
  Network net(e, topo, NetworkConfig{});
  const LinkId fwd = topo.find_link(2, 3);
  LinkDegrade gray;
  gray.loss_prob = 0.25;
  FaultScript script;
  script.events.push_back(FaultScript::degrade_one_way(100, fwd, gray));
  script.events.push_back(FaultScript::clear_degrade_one_way(300, fwd));
  FaultInjector injector(e, net, topo, script);
  injector.arm();
  e.run(200);
  EXPECT_TRUE(injector.link_degrade(fwd).active());
  EXPECT_FALSE(injector.link_degrade(fwd, LinkDir::kReverse).active());
  EXPECT_TRUE(injector.link_up(fwd));  // degraded, not down
  e.run();
  EXPECT_FALSE(injector.link_degrade(fwd).active());
  EXPECT_EQ(injector.degrades_injected(), 1u);
  EXPECT_EQ(injector.degrades_cleared(), 1u);
}

// --- Chaos script: multi-fail + node waves (cumulative connectivity) -------

TEST(ChaosScriptGray, MultiFailAndNodeWavesKeepSurvivorsConnected) {
  const Topology topo = make_torus({4, 4}, 10 * kGbps, 100);
  Rng rng(99);
  ChaosConfig cc;
  cc.waves = 6;
  cc.fails_per_wave = 3;
  cc.node_waves = 3;
  const FaultScript script = sim::make_chaos_script(topo, rng, cc);

  std::vector<char> down(topo.num_links(), 0);
  std::vector<char> node_down(topo.num_nodes(), 0);
  auto set_cable = [&](LinkId link, char v) {
    const Link& l = topo.link(link);
    down[link] = v;
    const LinkId rev = topo.find_link(l.to, l.from);
    if (rev != kInvalidLink) down[rev] = v;
  };
  // Connectivity over surviving nodes only: a failed node is expected to be
  // unreachable, everyone else must still reach everyone else.
  auto survivors_connected = [&] {
    NodeId start = kInvalidNode;
    std::size_t alive = 0;
    for (NodeId n = 0; n < topo.num_nodes(); ++n) {
      if (!node_down[n]) {
        ++alive;
        if (start == kInvalidNode) start = n;
      }
    }
    if (alive == 0) return true;
    std::vector<char> seen(topo.num_nodes(), 0);
    std::vector<NodeId> stack{start};
    seen[start] = 1;
    std::size_t reached = 1;
    while (!stack.empty()) {
      const NodeId u = stack.back();
      stack.pop_back();
      for (const LinkId id : topo.out_links(u)) {
        if (down[id]) continue;
        const NodeId v = topo.link(id).to;
        if (!seen[v] && !node_down[v]) {
          seen[v] = 1;
          ++reached;
          stack.push_back(v);
        }
      }
    }
    return reached == alive;
  };

  int node_fails = 0;
  for (const FaultEvent& ev : script.events) {
    switch (ev.kind) {
      case FaultEvent::Kind::kFailLink:
        set_cable(ev.link, 1);
        break;
      case FaultEvent::Kind::kRestoreLink:
        set_cable(ev.link, 0);
        break;
      case FaultEvent::Kind::kFailNode:
        ++node_fails;
        node_down[ev.node] = 1;
        for (const LinkId id : topo.out_links(ev.node)) set_cable(id, 1);
        break;
      case FaultEvent::Kind::kRestoreNode:
        node_down[ev.node] = 0;
        for (const LinkId id : topo.out_links(ev.node)) set_cable(id, 0);
        break;
      default:
        break;
    }
    EXPECT_TRUE(survivors_connected()) << "at t=" << ev.at;
  }
  EXPECT_EQ(node_fails, cc.node_waves * sim::kChaosNodesPerWave);
}

TEST(ChaosScriptGray, GrayPhaseNeverPerturbsHardPhases) {
  // Phased generation: enabling gray waves must not change a single draw of
  // the link/node phases — the hard prefix of the script is bit-identical.
  const Topology topo = make_torus({4, 4}, 10 * kGbps, 100);
  ChaosConfig hard_only;
  hard_only.waves = 4;
  hard_only.fails_per_wave = 2;
  hard_only.node_waves = 2;
  ChaosConfig with_gray = hard_only;
  with_gray.gray_waves = 3;
  with_gray.grays_per_wave = 2;
  Rng a(1234), b(1234);
  const FaultScript hard = sim::make_chaos_script(topo, a, hard_only);
  const FaultScript full = sim::make_chaos_script(topo, b, with_gray);

  std::vector<FaultEvent> full_hard;
  int grays = 0;
  for (const FaultEvent& ev : full.events) {
    if (ev.is_gray()) {
      ++grays;
    } else {
      full_hard.push_back(ev);
    }
  }
  EXPECT_GT(grays, 0);
  ASSERT_EQ(full_hard.size(), hard.events.size());
  for (std::size_t i = 0; i < full_hard.size(); ++i) {
    EXPECT_EQ(full_hard[i].at, hard.events[i].at);
    EXPECT_EQ(full_hard[i].kind, hard.events[i].kind);
    EXPECT_EQ(full_hard[i].link, hard.events[i].link);
    EXPECT_EQ(full_hard[i].node, hard.events[i].node);
  }
}

// --- Spray-bias composition -------------------------------------------------

TEST(SprayBiasComposition, AllZeroInputsLeaveTheBiasEmpty) {
  const std::vector<char> clean(6, 0);
  const std::vector<double> no_marks(6, 0.0);
  std::vector<double> marks(6, 0.0);
  marks[2] = 0.5;
  std::vector<double> bias{1.0, 2.0};  // stale contents are replaced
  // No suspect, every mark zero: empty, so the Router makes its unbiased
  // draws and skips the per-candidate weights.
  sim::compose_spray_bias({}, clean, no_marks, 4.0, bias);
  EXPECT_TRUE(bias.empty());
  // Marks are ignored without a positive gain, or when the sim passes none.
  for (const double gain : {0.0, -4.0}) {
    sim::compose_spray_bias({}, clean, marks, gain, bias);
    EXPECT_TRUE(bias.empty()) << gain;
  }
  sim::compose_spray_bias({}, clean, {}, 4.0, bias);
  EXPECT_TRUE(bias.empty());
}

TEST(SprayBiasComposition, PenaltyAndMarkAddPerLink) {
  // Identity map (the pristine plane): link 1 suspect, link 3 marked, link
  // 4 both. Each entry is the sum the Router weighs as 1/(1 + bias).
  std::vector<char> suspect(6, 0);
  suspect[1] = suspect[4] = 1;
  std::vector<double> marks(6, 0.0);
  marks[3] = 2.0;
  marks[4] = 0.25;
  std::vector<double> bias;
  sim::compose_spray_bias({}, suspect, marks, 4.0, bias);
  ASSERT_EQ(bias.size(), 6u);
  EXPECT_EQ(bias[0], 0.0);
  EXPECT_EQ(bias[1], sim::kSuspectPenalty);
  EXPECT_EQ(bias[2], 0.0);
  EXPECT_EQ(bias[3], 8.0);
  EXPECT_EQ(bias[4], sim::kSuspectPenalty + 1.0);
  EXPECT_EQ(bias[5], 0.0);
  // A zero or negative gain leaves the penalties alone.
  for (const double gain : {0.0, -4.0}) {
    sim::compose_spray_bias({}, suspect, marks, gain, bias);
    EXPECT_EQ(bias, (std::vector<double>{0.0, sim::kSuspectPenalty, 0.0, 0.0,
                                         sim::kSuspectPenalty, 0.0}))
        << gain;
  }
}

TEST(SprayBiasComposition, RemappedPlaneReadsSubstrateFlagsAndMarks) {
  // A degraded plane of three links over a six-link substrate: plane link
  // l reads the flag and mark of substrate link map[l]. Suspect substrate
  // link 1 has no plane link and adds nothing.
  const std::vector<LinkId> map{5, 0, 2};
  std::vector<char> suspect(6, 0);
  suspect[5] = suspect[1] = 1;
  std::vector<double> marks(6, 0.0);
  marks[2] = 1.0;
  marks[0] = 0.5;
  std::vector<double> bias;
  sim::compose_spray_bias(map, suspect, marks, 8.0, bias);
  EXPECT_EQ(bias, (std::vector<double>{sim::kSuspectPenalty, 4.0, 8.0}));
  // Only the unmapped suspect left: every plane entry is zero.
  suspect[5] = 0;
  sim::compose_spray_bias(map, suspect, {}, 8.0, bias);
  EXPECT_TRUE(bias.empty());
}

// --- The composed bias on the torus walk ------------------------------------

TEST(RouterPenalty, EmptyAndZeroPenaltyMatchBaseDrawForDraw) {
  const Topology topo = make_torus({4, 4}, 10 * kGbps, 100);
  const Router router(topo);
  const std::vector<double> zeros(topo.num_links(), 0.0);
  // A span shorter than the link table: the links past its end weigh 1.
  const SprayBias short_zeros = SprayBias(zeros).first(topo.num_links() / 2);
  Rng base_rng(5), empty_rng(5), zero_rng(5), short_rng(5);
  Path base, via_empty, via_zero, via_short;
  for (int i = 0; i < 200; ++i) {
    const NodeId src = static_cast<NodeId>(i % 16);
    const NodeId dst = static_cast<NodeId>((i * 7 + 3) % 16);
    if (src == dst) continue;
    router.pick_path_into(RouteAlg::kRps, src, dst, base_rng, base);
    router.pick_path_into(RouteAlg::kRps, src, dst, empty_rng, via_empty, 0, SprayBias{});
    router.pick_path_into(RouteAlg::kRps, src, dst, zero_rng, via_zero, 0, zeros);
    router.pick_path_into(RouteAlg::kRps, src, dst, short_rng, via_short, 0, short_zeros);
    // Same RNG draw sequence in all four: bit-identical multi-hop walks, so
    // a bias with no suspect and no mark never changes a trajectory.
    EXPECT_EQ(base, via_empty);
    EXPECT_EQ(base, via_zero);
    EXPECT_EQ(base, via_short);
  }
}

TEST(RouterPenalty, PenalizedLinkIsAvoidedProportionally) {
  const Topology topo = make_torus({4, 4}, 10 * kGbps, 100);
  const Router router(topo);
  // Suspect 0->1; 0 and 5 are the corners of the 0->1->5 and 0->4->5
  // two-hop square, so RPS picks between two first hops. The simulator's
  // composition turns the flag into the penalty the walk weighs.
  std::vector<char> suspect(topo.num_links(), 0);
  const LinkId bad = topo.find_link(0, 1);
  suspect[bad] = 1;
  std::vector<double> penalty;
  sim::compose_spray_bias({}, suspect, {}, 0.0, penalty);
  ASSERT_EQ(penalty.size(), topo.num_links());
  ASSERT_EQ(penalty[bad], sim::kSuspectPenalty);  // weight 1/9 vs 1: ~10% of the traffic
  Rng rng(11);
  Path path;
  int through_bad = 0;
  const int kTrials = 2000;
  for (int i = 0; i < kTrials; ++i) {
    router.pick_path_into(RouteAlg::kRps, 0, 5, rng, path, 0, penalty);
    for (std::size_t h = 0; h + 1 < path.size(); ++h) {
      if (path[h] == 0 && path[h + 1] == 1) ++through_bad;
    }
  }
  // Unpenalized both next hops are equally likely (~50%). With weight
  // 1/(1+8) vs 1 the bad first hop should drop to ~1/10.
  EXPECT_LT(through_bad, kTrials / 5);
  EXPECT_GT(through_bad, 0);  // demoted, not removed
}

// --- Adaptive detection in the simulator ------------------------------------

R2c2SimConfig adaptive_config() {
  R2c2SimConfig cfg;
  cfg.reliable = true;
  cfg.keepalive_interval = 10 * kNsPerUs;
  cfg.lease_interval = 100 * kNsPerUs;
  cfg.rto = 150 * kNsPerUs;
  cfg.adaptive_rto = true;
  cfg.retransmit_jitter = true;
  cfg.adaptive_detection = true;
  return cfg;
}

TEST(AdaptiveDetection, LossyLinkDemotedNeverDeclaredDead) {
  // The acceptance scenario: a 5%-loss link must be demoted in routing but
  // never declared dead — no failure detection, no context rebuild, and
  // every flow still completes through retransmission.
  const Topology topo = make_torus({4, 4}, 10 * kGbps, 100);
  const Router router(topo);
  R2c2SimConfig cfg = adaptive_config();
  LinkDegrade gray;
  gray.loss_prob = 0.05;
  const LinkId lossy = topo.find_link(0, 1);
  cfg.faults.events.push_back(FaultScript::degrade_link(40 * kNsPerUs, lossy, gray));
  R2c2Sim simulator(topo, router, cfg);
  simulator.add_flows(mesh_workload(topo, 40, 23));
  const RunMetrics m = simulator.run();

  EXPECT_GE(m.links_demoted, 1u);
  EXPECT_EQ(m.failures_detected, 0u);  // lossy != dead
  EXPECT_EQ(m.context_rebuilds, 0u);   // no spurious topology rebuild
  EXPECT_GT(m.gray_drops, 0u);
  EXPECT_EQ(m.flow_aborts, 0u);
  for (const sim::FlowRecord& f : m.flows) {
    EXPECT_TRUE(f.finished()) << "flow " << f.id;
  }
}

TEST(AdaptiveDetection, HysteresisClearsDemotionAfterLinkHeals) {
  const Topology topo = make_torus({4, 4}, 10 * kGbps, 100);
  const Router router(topo);
  R2c2SimConfig cfg = adaptive_config();
  // This test is about suspicion hysteresis, not the binary verdict: at
  // 20% keepalive loss the 40 us deadline needs four lost probes in a row
  // (p = 0.0016 per probe, and this seed never trips it), while a single
  // loss already demotes. The workload runs long enough past the heal for
  // the loss estimate to decay below the clear threshold in-run.
  LinkDegrade gray;
  gray.loss_prob = 0.2;
  const LinkId lossy = topo.find_link(0, 1);
  cfg.faults.events.push_back(FaultScript::degrade_link(40 * kNsPerUs, lossy, gray));
  cfg.faults.events.push_back(FaultScript::clear_degrade(150 * kNsPerUs, lossy));
  R2c2Sim simulator(topo, router, cfg);
  simulator.add_flows(mesh_workload(topo, 150, 31));
  const RunMetrics m = simulator.run();

  EXPECT_GE(m.links_demoted, 1u);
  EXPECT_GE(m.links_cleared, 1u);
  EXPECT_EQ(m.context_rebuilds, 0u);
  EXPECT_EQ(simulator.suspects(), 0u);  // nothing left demoted at the end
}

TEST(AdaptiveDetection, ZeroSuspectsKeepTrajectoryBitIdentical) {
  // adaptive_detection=on with zero suspects must be bit-identical to
  // adaptive_detection=off: the penalized walk consumes the exact same RNG
  // draws when every penalty is zero. The workload is light enough that no
  // keepalive is ever delayed past the loss margin — under heavier load,
  // congestion-delayed keepalives can legitimately demote (the detector
  // reads queueing as loss), which *should* change routing.
  const Topology topo = make_torus({4, 4}, 10 * kGbps, 100);
  const Router router(topo);
  R2c2SimConfig off = adaptive_config();
  off.adaptive_detection = false;
  R2c2SimConfig on = adaptive_config();
  R2c2Sim a(topo, router, off);
  R2c2Sim b(topo, router, on);
  a.add_flows(mesh_workload(topo, 12, 37));
  b.add_flows(mesh_workload(topo, 12, 37));
  const RunMetrics ma = a.run();
  const RunMetrics mb = b.run();
  ASSERT_EQ(ma.flows.size(), mb.flows.size());
  for (std::size_t i = 0; i < ma.flows.size(); ++i) {
    EXPECT_EQ(ma.flows[i].completed, mb.flows[i].completed);
  }
  EXPECT_EQ(ma.data_bytes_on_wire, mb.data_bytes_on_wire);
  EXPECT_EQ(mb.links_demoted, 0u);
}

// --- Transport give-up surfaced as an explicit abort ------------------------

TEST(FlowAbort, UnreachableDestinationAbortsInsteadOfHanging) {
  // Kill every cable of one node and never restore it, with detection off:
  // packets to it blackhole silently, the sender's retransmission budget
  // runs out, and the flow must surface as an explicit abort — counted in
  // metrics, stamped on the record, and the run still terminates.
  const Topology topo = make_torus({4, 4}, 10 * kGbps, 100);
  const Router router(topo);
  R2c2SimConfig cfg;
  cfg.reliable = true;
  cfg.rto = 50 * kNsPerUs;
  cfg.max_retransmits = 4;
  cfg.adaptive_rto = true;
  cfg.max_rto = 200 * kNsPerUs;
  cfg.retransmit_jitter = true;
  // The abort's FlowFinish broadcast can never complete (the dead node
  // never gets its tree copy), so the global view keeps the ghost entry
  // until the lease GC expires it; without leases the control plane would
  // keep recomputing rates for a flow it still believes exists and the
  // run would never go idle.
  cfg.lease_interval = 100 * kNsPerUs;
  const NodeId victim = 5;
  cfg.faults.events.push_back(FaultScript::fail_node(30 * kNsPerUs, victim));

  // RPS spraying aggregates ~4 links of bandwidth, so the doomed flow must
  // be big enough to still be mid-transfer when the victim dies at 30 us.
  std::vector<FlowArrival> arrivals;
  arrivals.push_back({10 * kNsPerUs, 0, victim, 256 * 1024, 1.0, 0, -1});  // doomed
  arrivals.push_back({10 * kNsPerUs, 2, 10, 32 * 1024, 1.0, 0, -1});       // fine
  R2c2Sim simulator(topo, router, cfg);
  simulator.add_flows(arrivals);
  const RunMetrics m = simulator.run();

  EXPECT_EQ(m.flow_aborts, 1u);
  ASSERT_EQ(m.flows.size(), 2u);
  const sim::FlowRecord& doomed = m.flows[0];
  const sim::FlowRecord& fine = m.flows[1];
  EXPECT_TRUE(doomed.aborted);
  EXPECT_FALSE(doomed.finished());
  EXPECT_GT(doomed.aborted_at, doomed.arrival);
  EXPECT_TRUE(doomed.resolved());
  EXPECT_TRUE(fine.finished());
  EXPECT_FALSE(fine.aborted);
  EXPECT_GT(m.drops + m.failed_link_drops, 0u);
}

// --- Snapshot round trip with gray state ------------------------------------

TEST(GraySnapshot, MidWaveSnapshotResumesBitIdentically) {
  // Snapshot *inside* a degradation episode (loss active, links demoted,
  // suspicion EWMAs mid-flight) and resume in a fresh simulator: every
  // subsequent digest and the final metrics must match the straight run.
  const Topology topo = make_torus({4, 4}, 10 * kGbps, 100);
  R2c2SimConfig cfg = adaptive_config();
  Rng chaos_rng(17);
  ChaosConfig cc;
  cc.waves = 2;
  cc.node_waves = 1;
  cc.gray_waves = 2;
  cc.grays_per_wave = 2;
  cc.start = 40 * kNsPerUs;
  cc.mean_wave_gap = 200 * kNsPerUs;
  cc.mean_down_time = 300 * kNsPerUs;
  cc.mean_gray_time = 500 * kNsPerUs;
  cfg.faults = sim::make_chaos_script(topo, chaos_rng, cc);
  ASSERT_FALSE(cfg.faults.empty());
  const std::vector<FlowArrival> arrivals = mesh_workload(topo, 50, 41);
  // Runs digest every 20 us.
  const auto run_of = [&] { return snapshot::Scenario(topo, cfg, arrivals, 20 * kNsPerUs); };
  const snapshot::ReplayResult want = run_of().run();

  // Snapshot leg: pick a boundary mid-run — inside the fault activity
  // window, with degradations applied and suspicion accrued.
  ASSERT_GE(want.digests.points.size(), 8u);
  const TimeNs snap_at = want.digests.points[want.digests.points.size() / 2].at;
  snapshot::Scenario head = run_of();
  head.simulator().run_until(snap_at);
  EXPECT_GT(head.simulator().collect_metrics().gray_drops, 0u);  // genuinely mid-wave
  snapshot::ArchiveWriter w;
  head.simulator().save(w);

  snapshot::Scenario resumed = run_of();
  snapshot::ArchiveReader r{w.finish()};
  resumed.simulator().load(r);
  EXPECT_EQ(resumed.simulator().now(), snap_at);
  EXPECT_EQ(snapshot::divergence(want, resumed.run(), snap_at), "");
}

// --- Congestion-aware (adaptive) routing ------------------------------------

R2c2SimConfig congestion_aware_config() {
  R2c2SimConfig cfg = adaptive_config();
  cfg.congestion_aware = true;
  cfg.ecn_threshold_bytes = 4 * 1024;  // low enough that real queues mark
  return cfg;
}

TEST(AdaptiveRouting, UnmarkedRunKeepsStaticRoutingTrajectory) {
  // congestion_aware=on with a threshold no queue ever reaches must leave
  // every routing draw bit-identical to congestion_aware=off: the sampling
  // ticks run (extra events, different event totals) but every mark stays
  // exactly 0.0, so the biased walk degenerates to the uniform one and the
  // flows land on the same links at the same times.
  const Topology topo = make_torus({4, 4}, 10 * kGbps, 100);
  const Router router(topo);
  R2c2SimConfig off = adaptive_config();
  R2c2SimConfig on = congestion_aware_config();
  on.ecn_threshold_bytes = std::uint64_t{1} << 40;  // unreachable
  R2c2Sim a(topo, router, off);
  R2c2Sim b(topo, router, on);
  a.add_flows(mesh_workload(topo, 40, 37));
  b.add_flows(mesh_workload(topo, 40, 37));
  const RunMetrics ma = a.run();
  const RunMetrics mb = b.run();
  ASSERT_EQ(ma.flows.size(), mb.flows.size());
  for (std::size_t i = 0; i < ma.flows.size(); ++i) {
    EXPECT_EQ(ma.flows[i].completed, mb.flows[i].completed);
  }
  EXPECT_EQ(ma.data_bytes_on_wire, mb.data_bytes_on_wire);
  EXPECT_EQ(ma.drops, mb.drops);
}

TEST(AdaptiveRouting, WorkerCountInvariantDigestsUnderGrayFault) {
  // The acceptance bar for the adaptive mode: with live congestion marks
  // steering the spray AND a gray fault demoting a link, the sharded run's
  // digests must not depend on the worker count.
  const Topology topo = make_torus({4, 4}, 10 * kGbps, 100);
  const auto run_at = [&topo](int workers) {
    R2c2SimConfig cfg = congestion_aware_config();
    cfg.engine_shards = 4;
    cfg.engine_workers = workers;
    LinkDegrade gray;
    gray.loss_prob = 0.05;
    cfg.faults.events.push_back(
        FaultScript::degrade_link(40 * kNsPerUs, topo.find_link(0, 1), gray));
    return snapshot::Scenario(topo, cfg, mesh_workload(topo, 60, 41), 20 * kNsPerUs)
        .run(kNsPerSec);
  };
  EXPECT_EQ(snapshot::divergence(run_at(1), run_at(4)), "");
}

TEST(AdaptiveRouting, SnapshotRoundTripRestoresCongestionState) {
  // Save mid-run while EWMA marks are live and the sampling tick is armed;
  // the resumed run must walk the exact digest trajectory of the straight
  // run (marks, epoch peaks and the tick flag all cross the archive).
  const Topology topo = make_torus({4, 4}, 10 * kGbps, 100);
  R2c2SimConfig cfg = congestion_aware_config();
  LinkDegrade gray;
  gray.loss_prob = 0.05;
  cfg.faults.events.push_back(
      FaultScript::degrade_link(40 * kNsPerUs, topo.find_link(0, 1), gray));
  const std::vector<FlowArrival> arrivals = mesh_workload(topo, 50, 43);
  const auto run_of = [&] { return snapshot::Scenario(topo, cfg, arrivals, 50 * kNsPerUs); };
  const snapshot::ReplayResult want = run_of().run();
  ASSERT_GT(want.digests.points.size(), 4u);

  const snapshot::DigestPoint mid = want.digests.points[want.digests.points.size() / 2];
  snapshot::Scenario head = run_of();
  head.simulator().run_until(mid.at);
  snapshot::ArchiveWriter w;
  head.simulator().save(w);

  snapshot::Scenario resumed = run_of();
  snapshot::ArchiveReader r{w.finish()};
  resumed.simulator().load(r);
  EXPECT_EQ(resumed.simulator().now(), mid.at);
  EXPECT_EQ(resumed.simulator().state_digest(), mid.digest);
  EXPECT_EQ(snapshot::divergence(want, resumed.run(), mid.at), "");
}

}  // namespace
}  // namespace r2c2
