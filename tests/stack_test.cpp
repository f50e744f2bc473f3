#include <gtest/gtest.h>

#include <deque>
#include <memory>
#include <vector>

#include "r2c2/stack.h"

namespace r2c2 {
namespace {

// An in-memory rack: every node runs a real R2c2Stack; control packets are
// carried through a message queue (pump() drains it), modeling instant,
// loss-free links. This exercises the full control plane — wire formats,
// broadcast fan-out over the FIBs, flow tables, rate computation — without
// a data plane.
class TestRack {
 public:
  explicit TestRack(std::vector<int> dims)
      : topo_(make_torus(dims, 10 * kGbps, 100)), router_(topo_), trees_(topo_, 2) {
    ctx_.topo = &topo_;
    ctx_.router = &router_;
    ctx_.trees = &trees_;
    for (NodeId n = 0; n < topo_.num_nodes(); ++n) {
      R2c2Stack::Callbacks cb;
      cb.send_control = [this](NodeId next, std::vector<std::uint8_t> bytes) {
        queue_.emplace_back(next, std::move(bytes));
      };
      cb.set_rate = [this, n](FlowId flow, Bps rate) { rates_[n][flow] = rate; };
      rates_.emplace_back();
      stacks_.push_back(std::make_unique<R2c2Stack>(n, ctx_, std::move(cb), 100 + n));
    }
  }

  // Delivers queued control packets until quiescent; returns deliveries.
  int pump() {
    int delivered = 0;
    while (!queue_.empty()) {
      auto [node, bytes] = std::move(queue_.front());
      queue_.pop_front();
      stacks_[node]->on_control_packet(bytes);
      ++delivered;
    }
    return delivered;
  }

  void recompute_all() {
    for (auto& s : stacks_) s->recompute();
  }

  R2c2Stack& stack(NodeId n) { return *stacks_[n]; }
  Bps rate(NodeId n, FlowId f) const { return rates_[n].count(f) ? rates_[n].at(f) : -1.0; }
  const Topology& topo() const { return topo_; }
  Router& router() { return router_; }

 private:
  Topology topo_;
  Router router_;
  BroadcastTrees trees_;
  RackContext ctx_;
  std::vector<std::unique_ptr<R2c2Stack>> stacks_;
  std::vector<std::unordered_map<FlowId, Bps>> rates_;
  std::deque<std::pair<NodeId, std::vector<std::uint8_t>>> queue_;
};

TEST(Stack, FlowStartReachesEveryNode) {
  TestRack rack({4, 4});
  rack.stack(0).open_flow(5);
  // One broadcast = n-1 deliveries over the spanning tree.
  EXPECT_EQ(rack.pump(), 15);
  for (NodeId n = 0; n < 16; ++n) {
    EXPECT_EQ(rack.stack(n).view().size(), 1u) << "node " << n;
  }
}

TEST(Stack, FlowFinishClearsEverywhere) {
  TestRack rack({4, 4});
  const FlowId id = rack.stack(0).open_flow(5);
  rack.pump();
  rack.stack(0).close_flow(id);
  rack.pump();
  for (NodeId n = 0; n < 16; ++n) {
    EXPECT_EQ(rack.stack(n).view().size(), 0u) << "node " << n;
  }
}

TEST(Stack, SenderGetsRateImmediately) {
  TestRack rack({4, 4});
  const FlowId id = rack.stack(0).open_flow(5);
  // Before any pump: the sender already programmed a limiter.
  EXPECT_GT(rack.rate(0, id), 0.0);
}

TEST(Stack, ViewsConvergeToSameHash) {
  TestRack rack({4, 4});
  rack.stack(0).open_flow(5);
  rack.stack(3).open_flow(9);
  rack.stack(12).open_flow(1);
  rack.pump();
  const std::uint64_t h = rack.stack(0).view().view_hash();
  for (NodeId n = 1; n < 16; ++n) {
    EXPECT_EQ(rack.stack(n).view().view_hash(), h) << "node " << n;
  }
}

TEST(Stack, CompetingFlowsGetFairRates) {
  TestRack rack({8});  // ring
  const FlowId a = rack.stack(0).open_flow(2, {.alg = RouteAlg::kDor});
  const FlowId b = rack.stack(1).open_flow(3, {.alg = RouteAlg::kDor});  // shares 1->2... 2->3
  rack.pump();
  rack.recompute_all();
  // Both flows share link 1->2 (DOR forward); fair share with 5% headroom.
  EXPECT_NEAR(rack.rate(0, a), 4.75e9, 1e7);
  EXPECT_NEAR(rack.rate(1, b), 4.75e9, 1e7);
}

TEST(Stack, WeightChangesAllocation) {
  TestRack rack({8});
  const FlowId a = rack.stack(0).open_flow(2, {.alg = RouteAlg::kDor, .weight = 3.0});
  const FlowId b = rack.stack(1).open_flow(3, {.alg = RouteAlg::kDor, .weight = 1.0});
  rack.pump();
  rack.recompute_all();
  EXPECT_NEAR(rack.rate(0, a) / rack.rate(1, b), 3.0, 0.05);
}

TEST(Stack, PriorityStarvesBackground) {
  TestRack rack({8});
  const FlowId bg = rack.stack(0).open_flow(2, {.alg = RouteAlg::kDor, .priority = 1});
  const FlowId fg = rack.stack(1).open_flow(3, {.alg = RouteAlg::kDor, .priority = 0});
  rack.pump();
  rack.recompute_all();
  EXPECT_NEAR(rack.rate(1, fg), 9.5e9, 1e7);
  EXPECT_NEAR(rack.rate(0, bg), 0.0, 1.0);
}

TEST(Stack, DemandUpdateFreesBandwidthForOthers) {
  TestRack rack({8});
  const FlowId a = rack.stack(0).open_flow(2, {.alg = RouteAlg::kDor});
  const FlowId b = rack.stack(1).open_flow(3, {.alg = RouteAlg::kDor});
  rack.pump();
  rack.recompute_all();
  // Flow a turns host-limited: it only achieves 1 Gbps with no backlog.
  for (int i = 0; i < 12; ++i) rack.stack(0).note_backlog(a, 0, 1e9);
  rack.pump();
  rack.recompute_all();
  EXPECT_LT(rack.rate(0, a), 2e9);
  EXPECT_GT(rack.rate(1, b), 8e9);
}

TEST(Stack, PickRouteIsValidSourceRoute) {
  TestRack rack({4, 4});
  const FlowId id = rack.stack(0).open_flow(10, {.alg = RouteAlg::kRps});
  for (int i = 0; i < 50; ++i) {
    const RouteCode route = rack.stack(0).pick_route(id);
    NodeId at = 0;
    for (int h = 0; h < route.length(); ++h) {
      at = rack.topo().link(rack.topo().out_link_by_port(at, route.port_at(h))).to;
    }
    EXPECT_EQ(at, 10);
  }
}

TEST(Stack, RouteSelectionBroadcastsAndApplies) {
  TestRack rack({4, 4});
  // Saturate: many flows, all RPS.
  std::vector<FlowId> ids;
  for (NodeId n = 0; n < 8; ++n) {
    ids.push_back(rack.stack(n).open_flow(static_cast<NodeId>(15 - n)));
  }
  rack.pump();
  SelectionConfig cfg;
  cfg.population = 20;
  cfg.max_generations = 6;
  rack.stack(0).run_route_selection(cfg);
  rack.pump();
  // All views still agree after the route-update broadcast.
  const std::uint64_t h = rack.stack(0).view().view_hash();
  for (NodeId n = 1; n < 16; ++n) EXPECT_EQ(rack.stack(n).view().view_hash(), h);
}

TEST(Stack, CorruptedControlPacketIsDropped) {
  TestRack rack({4, 4});
  std::vector<std::uint8_t> garbage(16, 0xab);
  garbage[0] = static_cast<std::uint8_t>(PacketType::kFlowStart);
  rack.stack(3).on_control_packet(garbage);  // bad checksum
  EXPECT_EQ(rack.stack(3).view().size(), 0u);
  EXPECT_EQ(rack.pump(), 0);  // nothing forwarded
}

TEST(Stack, FlowIdsEncodeNodeAndFseq) {
  TestRack rack({4, 4});
  const FlowId id = rack.stack(3).open_flow(7);
  EXPECT_EQ(id >> 16, 3u);
  rack.stack(3).close_flow(id);
  // Ids rotate through fseq values; a second flow gets a fresh id.
  const FlowId id2 = rack.stack(3).open_flow(7);
  EXPECT_NE(id, id2);
}

TEST(Stack, OpenFlowValidation) {
  TestRack rack({4, 4});
  EXPECT_THROW(rack.stack(2).open_flow(2), std::invalid_argument);  // to self
  EXPECT_THROW(rack.stack(2).close_flow(12345), std::out_of_range);
}

TEST(Stack, BroadcastCounterTracksEvents) {
  TestRack rack({4, 4});
  const FlowId id = rack.stack(0).open_flow(5);
  rack.stack(0).close_flow(id);
  EXPECT_EQ(rack.stack(0).broadcasts_sent(), 2u);
}

}  // namespace
}  // namespace r2c2
