// Runtime fault injection and control-plane self-healing (Section 3.2 made
// dynamic): cables fail and splice back *while the simulation runs*; the
// nodes detect it via keepalive deadlines, rebuild topology/routes/trees,
// re-announce ongoing flows, and the lease protocol collects any view
// entries stranded by lost control packets.
#include <gtest/gtest.h>

#include <deque>
#include <memory>
#include <vector>

#include "broadcast/broadcast.h"
#include "r2c2/stack.h"
#include "sim/fault.h"
#include "sim/metrics.h"
#include "sim/r2c2_sim.h"
#include "topology/topology.h"
#include "workload/generator.h"

namespace r2c2 {
namespace {

using sim::ChaosConfig;
using sim::FaultScript;
using sim::LinkDegrade;
using sim::R2c2Sim;
using sim::R2c2SimConfig;
using sim::RunMetrics;

R2c2SimConfig self_healing_config() {
  R2c2SimConfig cfg;
  cfg.reliable = true;  // in-flight packets die on a cut cable
  cfg.keepalive_interval = 10 * kNsPerUs;
  cfg.lease_interval = 100 * kNsPerUs;
  cfg.rto = 200 * kNsPerUs;
  return cfg;
}

std::vector<FlowArrival> mesh_workload(const Topology& topo, int flows, std::uint64_t seed) {
  WorkloadConfig wl;
  wl.num_nodes = topo.num_nodes();
  wl.num_flows = flows;
  wl.mean_interarrival = 5 * kNsPerUs;
  wl.max_bytes = 96 * 1024;
  wl.seed = seed;
  return generate_poisson_uniform(wl);
}

// --- FaultScript / chaos-mode generation ---

TEST(ChaosScript, IsDeterministicAndPaired) {
  const Topology topo = make_torus({4, 4}, 10 * kGbps, 100);
  ChaosConfig cc;
  cc.waves = 6;
  Rng a(42), b(42);
  const FaultScript s1 = sim::make_chaos_script(topo, a, cc);
  const FaultScript s2 = sim::make_chaos_script(topo, b, cc);
  ASSERT_EQ(s1.events.size(), s2.events.size());
  for (std::size_t i = 0; i < s1.events.size(); ++i) {
    EXPECT_EQ(s1.events[i].at, s2.events[i].at);
    EXPECT_EQ(s1.events[i].kind, s2.events[i].kind);
    EXPECT_EQ(s1.events[i].link, s2.events[i].link);
  }
  // Every failure has a matching restore, and times are sorted.
  int fails = 0, restores = 0;
  for (std::size_t i = 0; i < s1.events.size(); ++i) {
    if (i > 0) {
      EXPECT_GE(s1.events[i].at, s1.events[i - 1].at);
    }
    if (s1.events[i].is_failure()) {
      ++fails;
    } else {
      ++restores;
    }
  }
  EXPECT_EQ(fails, restores);
  EXPECT_GT(fails, 0);
}

TEST(ChaosScript, NeverDisconnectsTheRack) {
  // Replay the script over the live-cable graph and check connectivity
  // after every event (the generator connectivity-checks each cut).
  const Topology topo = make_torus({4, 4}, 10 * kGbps, 100);
  Rng rng(7);
  ChaosConfig cc;
  cc.waves = 12;
  cc.fails_per_wave = 2;
  const FaultScript script = sim::make_chaos_script(topo, rng, cc);
  std::vector<char> down(topo.num_links(), 0);
  auto set_cable = [&](LinkId link, char v) {
    const Link& l = topo.link(link);
    down[link] = v;
    const LinkId rev = topo.find_link(l.to, l.from);
    if (rev != kInvalidLink) down[rev] = v;
  };
  auto connected = [&] {
    std::vector<char> seen(topo.num_nodes(), 0);
    std::vector<NodeId> stack{0};
    seen[0] = 1;
    std::size_t reached = 1;
    while (!stack.empty()) {
      const NodeId u = stack.back();
      stack.pop_back();
      for (const LinkId id : topo.out_links(u)) {
        if (down[id]) continue;
        const NodeId v = topo.link(id).to;
        if (!seen[v]) {
          seen[v] = 1;
          ++reached;
          stack.push_back(v);
        }
      }
    }
    return reached == topo.num_nodes();
  };
  for (const sim::FaultEvent& ev : script.events) {
    set_cable(ev.link, ev.is_failure() ? 1 : 0);
    EXPECT_TRUE(connected()) << "at t=" << ev.at;
  }
}

// --- Tentpole: mid-run failure detected and recovered by the nodes ---

TEST(DynamicFailure, DetectedRebuiltAndAllFlowsComplete) {
  const Topology topo = make_torus({4, 4}, 10 * kGbps, 100);
  const Router router(topo);
  R2c2SimConfig cfg = self_healing_config();
  const LinkId victim = topo.find_link(0, 1);
  // Cut a cable mid-run, while ~40 flows are in flight; never restore it.
  cfg.faults.events.push_back(FaultScript::fail_link(120 * kNsPerUs, victim));
  R2c2Sim simulator(topo, router, cfg);
  simulator.add_flows(mesh_workload(topo, 40, 21));
  const RunMetrics m = simulator.run();

  // The injector cut it; the *nodes* noticed and recovered on their own.
  EXPECT_EQ(m.failures_injected, 1u);
  ASSERT_GE(m.failures_detected, 1u);
  EXPECT_GE(m.context_rebuilds, 1u);
  EXPECT_GT(m.flows_rebroadcast, 0u);
  EXPECT_GT(m.failed_link_drops, 0u);  // something was in flight on the cable

  // Recovery episode timeline is coherent.
  ASSERT_FALSE(m.recoveries.empty());
  const sim::RecoveryRecord& rec = m.recoveries.front();
  EXPECT_TRUE(rec.failure);
  EXPECT_EQ(rec.injected_at, 120 * kNsPerUs);
  EXPECT_GT(rec.detected_at, rec.injected_at);
  EXPECT_LE(rec.detection_ns(), 8 * cfg.keepalive_interval);
  EXPECT_GE(rec.recovered_at, rec.detected_at);
  EXPECT_GE(rec.reconverged_at, rec.recovered_at);

  // Every in-flight flow survives the outage.
  ASSERT_EQ(m.flows.size(), 40u);
  for (const auto& f : m.flows) EXPECT_TRUE(f.finished()) << f.id;
  // And the control plane fully cleaned up after itself.
  EXPECT_TRUE(simulator.global_view().empty());
}

TEST(DynamicFailure, RestoreIsDetectedAndContextHealsBack) {
  const Topology topo = make_torus({4, 4}, 10 * kGbps, 100);
  const Router router(topo);
  R2c2SimConfig cfg = self_healing_config();
  const LinkId victim = topo.find_link(5, 6);
  cfg.faults.events.push_back(FaultScript::fail_link(100 * kNsPerUs, victim));
  cfg.faults.events.push_back(FaultScript::restore_link(600 * kNsPerUs, victim));
  R2c2Sim simulator(topo, router, cfg);
  simulator.add_flows(mesh_workload(topo, 60, 5));
  const RunMetrics m = simulator.run();

  EXPECT_EQ(m.failures_injected, 1u);
  EXPECT_EQ(m.restores_injected, 1u);
  EXPECT_GE(m.failures_detected, 1u);
  EXPECT_GE(m.restores_detected, 1u);
  EXPECT_GE(m.context_rebuilds, 2u);  // degrade, then back to pristine
  bool saw_restore_episode = false;
  for (const auto& rec : m.recoveries) {
    if (!rec.failure) {
      saw_restore_episode = true;
      EXPECT_GE(rec.detected_at, 600 * kNsPerUs);
    }
  }
  EXPECT_TRUE(saw_restore_episode);
  for (const auto& f : m.flows) EXPECT_TRUE(f.finished()) << f.id;
  EXPECT_TRUE(simulator.global_view().empty());
  // After healing, the detection verdict matches ground truth again.
  EXPECT_FALSE(simulator.link_detected_down(victim));
}

TEST(DynamicFailure, WithoutFaultsBehavesAsBaseline) {
  // Enabling the machinery with an empty script must not change results:
  // keepalives ride the priority class and leases only refresh.
  const Topology topo = make_torus({4, 4}, 10 * kGbps, 100);
  const Router router(topo);
  R2c2SimConfig plain;
  R2c2SimConfig armed = self_healing_config();
  armed.reliable = false;  // align with plain
  R2c2Sim a(topo, router, plain);
  R2c2Sim b(topo, router, armed);
  a.add_flows(mesh_workload(topo, 30, 9));
  b.add_flows(mesh_workload(topo, 30, 9));
  const RunMetrics ma = a.run();
  const RunMetrics mb = b.run();
  ASSERT_EQ(ma.flows.size(), mb.flows.size());
  for (std::size_t i = 0; i < ma.flows.size(); ++i) {
    EXPECT_TRUE(mb.flows[i].finished());
    // Identical FCTs are not guaranteed (keepalives share links), but
    // completion and ordering of the workload must hold.
    EXPECT_EQ(ma.flows[i].src, mb.flows[i].src);
    EXPECT_EQ(ma.flows[i].bytes, mb.flows[i].bytes);
  }
  EXPECT_EQ(mb.failures_detected, 0u);
  EXPECT_EQ(mb.context_rebuilds, 0u);
  EXPECT_EQ(mb.ghost_flows_expired, 0u);
}

// --- Chaos mode: randomized fail/restore waves + corruption ---

TEST(Chaos, InvariantsHoldAfterRepeatedFailRestoreWaves) {
  const Topology topo = make_torus({4, 4}, 10 * kGbps, 100);
  const Router router(topo);
  R2c2SimConfig cfg = self_healing_config();
  cfg.net.corruption_rate = 5e-4;  // control-packet corruption too
  cfg.seed = 13;
  Rng chaos_rng(1234);
  ChaosConfig cc;
  cc.waves = 8;
  cc.start = 50 * kNsPerUs;
  // Dense waves so failures land while the 120-flow workload is in flight.
  cc.mean_wave_gap = 80 * kNsPerUs;
  cc.mean_down_time = 150 * kNsPerUs;
  cfg.faults = sim::make_chaos_script(topo, chaos_rng, cc);
  ASSERT_FALSE(cfg.faults.empty());

  R2c2Sim simulator(topo, router, cfg);
  simulator.add_flows(mesh_workload(topo, 120, 77));
  const RunMetrics m = simulator.run();

  EXPECT_EQ(m.failures_injected, 8u);
  EXPECT_GE(m.failures_detected, 1u);
  EXPECT_GE(m.context_rebuilds, 1u);
  // Invariants after the dust settles: every flow completed despite the
  // waves, and no ghost entry survived (view drained, keys released).
  for (const auto& f : m.flows) EXPECT_TRUE(f.finished()) << f.id;
  EXPECT_TRUE(simulator.global_view().empty());
}

TEST(Chaos, SameSeedReproducesTheRunExactly) {
  const Topology topo = make_torus({4, 4}, 10 * kGbps, 100);
  const Router router(topo);
  auto once = [&] {
    R2c2SimConfig cfg = self_healing_config();
    cfg.net.corruption_rate = 5e-4;
    Rng chaos_rng(99);
    ChaosConfig cc;
    cc.waves = 5;
    cc.start = 40 * kNsPerUs;
    cfg.faults = sim::make_chaos_script(topo, chaos_rng, cc);
    R2c2Sim simulator(topo, router, cfg);
    simulator.add_flows(mesh_workload(topo, 60, 3));
    return simulator.run();
  };
  const RunMetrics m1 = once();
  const RunMetrics m2 = once();
  EXPECT_EQ(m1.sim_end, m2.sim_end);
  EXPECT_EQ(m1.events, m2.events);
  EXPECT_EQ(m1.failures_detected, m2.failures_detected);
  EXPECT_EQ(m1.context_rebuilds, m2.context_rebuilds);
  ASSERT_EQ(m1.flows.size(), m2.flows.size());
  for (std::size_t i = 0; i < m1.flows.size(); ++i) {
    EXPECT_EQ(m1.flows[i].completed, m2.flows[i].completed);
  }
}

// --- Satellite: corruption accounting split + no stranded entries ---

TEST(CorruptionSplit, ControlCorruptionCountedSeparatelyAndHealedByLeases) {
  const Topology topo = make_torus({4, 4}, 10 * kGbps, 100);
  const Router router(topo);
  R2c2SimConfig cfg;
  cfg.reliable = true;
  cfg.net.corruption_rate = 2e-3;
  // A corrupted broadcast copy is retransmitted after its drop notice, but
  // a gray link loses copies silently: those are really lost, so only the
  // lease protocol can heal the view.
  LinkDegrade gray;
  gray.loss_prob = 0.3;
  cfg.faults.events.push_back(FaultScript::degrade_link(0, topo.find_link(0, 1), gray));
  cfg.lease_interval = 100 * kNsPerUs;
  cfg.rto = 200 * kNsPerUs;
  R2c2Sim simulator(topo, router, cfg);
  simulator.add_flows(mesh_workload(topo, 150, 31));
  const RunMetrics m = simulator.run();

  // Both classes got corrupted and are tracked separately.
  EXPECT_GT(m.corrupted_control, 0u);
  EXPECT_GT(m.corrupted_data, 0u);
  // Lost finish events used to strand entries forever; lease GC collects
  // them, so the run terminates with an empty view and all flows done.
  for (const auto& f : m.flows) EXPECT_TRUE(f.finished()) << f.id;
  EXPECT_TRUE(simulator.global_view().empty());
}

// --- Stack-level: per-node views reconverge, ghosts are collected ---

struct StackRack {
  Topology topo = make_torus({4, 4}, 10 * kGbps, 100);
  Router router{topo};
  BroadcastTrees trees{topo, 2};
  RackContext ctx;
  std::deque<std::pair<NodeId, std::vector<std::uint8_t>>> wire;
  std::vector<std::unique_ptr<R2c2Stack>> stacks;

  explicit StackRack(TimeNs lease_interval = 50 * kNsPerUs) {
    ctx.topo = &topo;
    ctx.router = &router;
    ctx.trees = &trees;
    ctx.lease_interval = lease_interval;
    for (NodeId n = 0; n < topo.num_nodes(); ++n) {
      R2c2Stack::Callbacks cb;
      cb.send_control = [this](NodeId next, std::vector<std::uint8_t> bytes) {
        wire.emplace_back(next, std::move(bytes));
      };
      stacks.push_back(std::make_unique<R2c2Stack>(n, ctx, std::move(cb)));
    }
  }

  // Drains the wire; `mangle` may drop (return false) or corrupt packets.
  template <typename F>
  void pump(F&& mangle) {
    while (!wire.empty()) {
      auto [node, bytes] = std::move(wire.front());
      wire.pop_front();
      if (!mangle(bytes)) continue;
      stacks[node]->on_control_packet(bytes);
    }
  }
  void pump() {
    pump([](std::vector<std::uint8_t>&) { return true; });
  }
  void tick_all(TimeNs now) {
    for (auto& s : stacks) s->tick(now);
  }
  std::size_t distinct_views() const {
    std::vector<std::uint64_t> hashes;
    for (const auto& s : stacks) hashes.push_back(s->view().view_hash());
    return sim::distinct_view_hashes(hashes);
  }
};

TEST(StackLease, LostFinishGhostIsCollectedEverywhere) {
  StackRack rack;
  const FlowId f = rack.stacks[0]->open_flow(10);
  rack.pump();
  for (const auto& s : rack.stacks) ASSERT_EQ(s->view().size(), 1u);

  // The finish broadcast is entirely lost: every other node keeps a ghost.
  rack.stacks[0]->close_flow(f);
  rack.wire.clear();
  ASSERT_EQ(rack.stacks[1]->view().size(), 1u);

  // Lease ticks advance; no refreshes arrive for the dead flow, so every
  // node's GC collects the ghost independently.
  for (TimeNs t = 50 * kNsPerUs; t <= 400 * kNsPerUs; t += 50 * kNsPerUs) {
    rack.tick_all(t);
    rack.pump();
  }
  std::uint64_t ghosts = 0;
  for (const auto& s : rack.stacks) {
    EXPECT_EQ(s->view().size(), 0u) << "node " << s->self();
    ghosts += s->ghosts_expired();
  }
  EXPECT_EQ(ghosts, rack.stacks.size() - 1);  // everyone but the closer
  EXPECT_EQ(rack.distinct_views(), 1u);
}

TEST(StackLease, LostStartIsResurrectedByRefresh) {
  StackRack rack;
  // The start broadcast is entirely lost.
  const FlowId f = rack.stacks[2]->open_flow(9);
  rack.wire.clear();
  for (NodeId n = 0; n < 16; ++n) {
    if (n != 2) {
      ASSERT_EQ(rack.stacks[n]->view().size(), 0u);
    }
  }
  // The first lease refresh re-advertises it; demand updates insert.
  rack.tick_all(50 * kNsPerUs);
  rack.pump();
  for (const auto& s : rack.stacks) EXPECT_EQ(s->view().size(), 1u);
  EXPECT_EQ(rack.distinct_views(), 1u);
  rack.stacks[2]->close_flow(f);
  rack.pump();
  EXPECT_EQ(rack.distinct_views(), 1u);
}

TEST(StackChaos, ViewsReconvergeAfterEveryLossyWave) {
  StackRack rack;
  Rng rng(2024);
  std::vector<std::pair<NodeId, FlowId>> open;
  TimeNs now = 0;
  const TimeNs step = 50 * kNsPerUs;

  for (int wave = 0; wave < 6; ++wave) {
    // Churn: open a few flows, close a few, while the wire is lossy and
    // corrupting (deterministically, from the seeded PRNG).
    for (int i = 0; i < 4; ++i) {
      const NodeId src = static_cast<NodeId>(rng.uniform_int(16));
      NodeId dst;
      do {
        dst = static_cast<NodeId>(rng.uniform_int(16));
      } while (dst == src);
      open.emplace_back(src, rack.stacks[src]->open_flow(dst));
    }
    for (int i = 0; i < 2 && !open.empty(); ++i) {
      const std::size_t pick = rng.uniform_int(open.size());
      const auto [node, flow] = open[pick];
      open.erase(open.begin() + static_cast<std::ptrdiff_t>(pick));
      rack.stacks[node]->close_flow(flow);
    }
    rack.pump([&rng](std::vector<std::uint8_t>& bytes) {
      if (rng.bernoulli(0.15)) return false;  // dropped
      if (rng.bernoulli(0.05)) {              // corrupted: parse rejects
        bytes[rng.uniform_int(bytes.size())] ^= 0xff;
      }
      return true;
    });

    // Healing phase: enough clean lease cycles to refresh live flows and
    // GC any ghosts the wave created, then the invariants must hold.
    for (int cycle = 0; cycle < 6; ++cycle) {
      now += step;
      rack.tick_all(now);
      rack.pump();
    }
    EXPECT_EQ(rack.distinct_views(), 1u) << "wave " << wave;
    for (const auto& s : rack.stacks) {
      EXPECT_EQ(s->view().size(), open.size()) << "wave " << wave << " node " << s->self();
    }
  }

  // Drain everything and confirm the rack ends empty and agreed.
  for (const auto& [node, flow] : open) rack.stacks[node]->close_flow(flow);
  rack.pump();
  for (int cycle = 0; cycle < 6; ++cycle) {
    now += step;
    rack.tick_all(now);
    rack.pump();
  }
  for (const auto& s : rack.stacks) EXPECT_EQ(s->view().size(), 0u);
  EXPECT_EQ(rack.distinct_views(), 1u);
}

}  // namespace
}  // namespace r2c2
