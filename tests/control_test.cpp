#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/rng.h"
#include "control/control_traffic.h"
#include "control/flow_table.h"
#include "control/route_selection.h"
#include "topology/topology.h"
#include "workload/patterns.h"

namespace r2c2 {
namespace {

BroadcastMsg start_msg(NodeId src, NodeId dst, std::uint8_t fseq, RouteAlg rp = RouteAlg::kRps) {
  BroadcastMsg m;
  m.type = PacketType::kFlowStart;
  m.src = src;
  m.dst = dst;
  m.fseq = fseq;
  m.weight = 1;
  m.rp = rp;
  return m;
}

// --- FlowTable ---

TEST(FlowTable, StartAddsFinishRemoves) {
  FlowTable table;
  table.apply(start_msg(1, 2, 0));
  EXPECT_EQ(table.size(), 1u);
  const auto spec = table.find(1, 0);
  ASSERT_TRUE(spec.has_value());
  EXPECT_EQ(spec->src, 1);
  EXPECT_EQ(spec->dst, 2);
  EXPECT_EQ(spec->id, (1u << 16) | 0u);

  BroadcastMsg fin = start_msg(1, 2, 0);
  fin.type = PacketType::kFlowFinish;
  table.apply(fin);
  EXPECT_TRUE(table.empty());
}

TEST(FlowTable, AnnounceRoundTripsThroughApply) {
  FlowSpec spec;
  spec.id = (3u << 16) | 7u;
  spec.src = 3;
  spec.dst = 9;
  spec.alg = RouteAlg::kVlb;
  spec.weight = 1.6;
  spec.priority = 2;
  spec.demand = 2.5 * kGbps + 1234.0;
  FlowTable table;
  table.apply(FlowTable::announce(PacketType::kFlowStart, spec, 7));
  const auto got = table.find(3, 7);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->id, spec.id);
  EXPECT_EQ(got->dst, 9);
  EXPECT_EQ(got->alg, RouteAlg::kVlb);
  EXPECT_EQ(got->weight, 2.0);  // rounded to the 8-bit wire weight, not truncated
  EXPECT_EQ(got->priority, 2);
  EXPECT_EQ(got->demand, 2'500'001 * kKbps);  // kbps precision

  spec.demand = kUnlimitedDemand;
  table.apply(FlowTable::announce(PacketType::kDemandUpdate, spec, 7));
  EXPECT_TRUE(std::isinf(table.find(3, 7)->demand));

  const BroadcastMsg fin = FlowTable::announce(PacketType::kFlowFinish, spec, 7);
  EXPECT_EQ(fin.weight, 1);
  EXPECT_EQ(fin.priority, 0);
  EXPECT_EQ(fin.demand_kbps, 0u);
  table.apply(fin);
  EXPECT_TRUE(table.empty());
}

TEST(FlowTable, FinishOfUnknownFlowIsNoop) {
  FlowTable table;
  BroadcastMsg fin = start_msg(9, 2, 3);
  fin.type = PacketType::kFlowFinish;
  table.apply(fin);
  EXPECT_TRUE(table.empty());
}

TEST(FlowTable, DistinctFseqKeepsConcurrentFlows) {
  FlowTable table;
  table.apply(start_msg(1, 2, 0));
  table.apply(start_msg(1, 2, 1));
  table.apply(start_msg(1, 3, 2));
  EXPECT_EQ(table.size(), 3u);
}

TEST(FlowTable, DemandUpdateChangesDemand) {
  FlowTable table;
  table.apply(start_msg(1, 2, 0));
  EXPECT_TRUE(std::isinf(table.find(1, 0)->demand));

  BroadcastMsg upd = start_msg(1, 2, 0);
  upd.type = PacketType::kDemandUpdate;
  upd.demand_kbps = 1'000'000;  // 1 Gbps
  table.apply(upd);
  EXPECT_NEAR(table.find(1, 0)->demand, 1 * kGbps, 1.0);

  upd.demand_kbps = 0;  // back to unlimited
  table.apply(upd);
  EXPECT_TRUE(std::isinf(table.find(1, 0)->demand));
}

TEST(FlowTable, DemandUpdateForUnknownFlowResurrectsEntry) {
  // Demand updates double as lease refreshes: a refresh for a flow whose
  // start broadcast was lost (corruption, failed link) re-inserts the
  // entry instead of being dropped, so views self-heal.
  FlowTable table;
  BroadcastMsg upd = start_msg(4, 2, 0);
  upd.type = PacketType::kDemandUpdate;
  upd.demand_kbps = 5;
  table.apply(upd, /*now=*/100);
  ASSERT_EQ(table.size(), 1u);
  const auto spec = table.find(4, 0);
  ASSERT_TRUE(spec.has_value());
  EXPECT_EQ(spec->src, 4);
  EXPECT_EQ(spec->dst, 2);
  EXPECT_NEAR(spec->demand, 5 * kKbps, 1.0);
  EXPECT_EQ(table.lease_of(4, 0), 100);
}

TEST(FlowTable, ResurrectedEntryMatchesDirectInsertHash) {
  // A view that learned the flow via a late refresh must agree (view_hash)
  // with one that saw the original start, or reconvergence checks would
  // flag healed views as divergent forever.
  FlowTable via_start, via_refresh;
  BroadcastMsg start = start_msg(4, 2, 0);
  start.demand_kbps = 5;
  via_start.apply(start);
  BroadcastMsg upd = start;
  upd.type = PacketType::kDemandUpdate;
  via_refresh.apply(upd, /*now=*/777);  // lease stamps must not affect the hash
  EXPECT_EQ(via_start.view_hash(), via_refresh.view_hash());
}

TEST(FlowTable, RefreshUpdatesLeaseWithoutBumpingVersion) {
  FlowTable table;
  table.apply(start_msg(1, 2, 0), /*now=*/10);
  const auto version = table.version();
  const auto hash = table.view_hash();
  BroadcastMsg upd = start_msg(1, 2, 0);
  upd.type = PacketType::kDemandUpdate;
  upd.demand_kbps = 0;  // identical spec: a pure refresh
  table.apply(upd, /*now=*/500);
  EXPECT_EQ(table.lease_of(1, 0), 500);
  EXPECT_EQ(table.version(), version) << "pure refresh must not invalidate cached problems";
  EXPECT_EQ(table.view_hash(), hash);
}

TEST(FlowTable, LeaseNeverMovesBackwards) {
  FlowTable table;
  table.apply(start_msg(1, 2, 0), /*now=*/900);
  BroadcastMsg upd = start_msg(1, 2, 0);
  upd.type = PacketType::kDemandUpdate;
  table.apply(upd, /*now=*/400);  // reordered refresh from the past
  EXPECT_EQ(table.lease_of(1, 0), 900);
}

TEST(FlowTable, ExpireStaleCollectsOnlyExpiredAndNonImmune) {
  FlowTable table;
  table.apply(start_msg(1, 2, 0), /*now=*/0);    // stale ghost
  table.apply(start_msg(3, 4, 1), /*now=*/950);  // fresh
  table.apply(start_msg(5, 6, 2), /*now=*/0);    // stale but src-immune
  std::vector<FlowSpec> removed;
  const std::size_t n = table.expire_stale(/*now=*/1000, /*ttl=*/500, /*immune_src=*/5, &removed);
  EXPECT_EQ(n, 1u);
  ASSERT_EQ(removed.size(), 1u);
  EXPECT_EQ(removed[0].src, 1);
  EXPECT_FALSE(table.find(1, 0).has_value());
  EXPECT_TRUE(table.find(3, 1).has_value());
  EXPECT_TRUE(table.find(5, 2).has_value());
  EXPECT_EQ(table.ghosts_expired(), 1u);
}

TEST(FlowTable, ExpireRestoresEmptyViewHash) {
  FlowTable a;
  const std::uint64_t empty_hash = a.view_hash();
  a.apply(start_msg(1, 2, 0), /*now=*/0);
  a.expire_stale(/*now=*/1000, /*ttl=*/10);
  EXPECT_TRUE(a.empty());
  EXPECT_EQ(a.view_hash(), empty_hash);
}

TEST(FlowTable, FseqWraparoundReusesKeysWithoutCollision) {
  // Cycle far more than 256 flows through one (src, dst) pair — the wire
  // fseq is 8 bits, so keys are reused mod 256. Start/finish in lockstep
  // must never leave stale entries behind or collide on a reused key.
  FlowTable table;
  const std::uint64_t empty_hash = table.view_hash();
  for (int cycle = 0; cycle < 700; ++cycle) {
    const auto fseq = static_cast<std::uint8_t>(cycle & 0xff);
    table.apply(start_msg(7, 9, fseq), /*now=*/cycle);
    ASSERT_EQ(table.size(), 1u) << "cycle " << cycle;
    const auto spec = table.find(7, fseq);
    ASSERT_TRUE(spec.has_value());
    EXPECT_EQ(spec->id, (7u << 16) | fseq);
    BroadcastMsg fin = start_msg(7, 9, fseq);
    fin.type = PacketType::kFlowFinish;
    table.apply(fin);
    ASSERT_TRUE(table.empty()) << "cycle " << cycle;
  }
  EXPECT_EQ(table.view_hash(), empty_hash);
}

TEST(FlowTable, GhostOnReusedFseqIsReplacedByNewStart) {
  // A lost finish leaves a ghost on (src, fseq); when the fseq wraps around
  // and is reused by a *new* flow, the fresh start must overwrite the ghost
  // (same key, new dst) rather than duplicate or keep stale fields.
  FlowTable table;
  table.apply(start_msg(7, 9, 42), /*now=*/0);  // ghost: finish never arrives
  table.apply(start_msg(7, 11, 42), /*now=*/900);
  EXPECT_EQ(table.size(), 1u);
  const auto spec = table.find(7, 42);
  ASSERT_TRUE(spec.has_value());
  EXPECT_EQ(spec->dst, 11);
  EXPECT_EQ(table.lease_of(7, 42), 900);
  // And the replacement refreshed the lease, so GC keeps the live flow.
  table.expire_stale(/*now=*/1000, /*ttl=*/500);
  EXPECT_TRUE(table.find(7, 42).has_value());
}

TEST(FlowTable, RouteUpdateChangesProtocol) {
  FlowTable table;
  table.apply(start_msg(1, 2, 0, RouteAlg::kRps));
  RouteUpdatePacket pkt;
  pkt.entries.push_back({1, 0, RouteAlg::kVlb});
  table.apply(pkt);
  EXPECT_EQ(table.find(1, 0)->alg, RouteAlg::kVlb);
}

TEST(FlowTable, ViewHashIsOrderIndependent) {
  FlowTable a, b;
  a.apply(start_msg(1, 2, 0));
  a.apply(start_msg(3, 4, 1));
  b.apply(start_msg(3, 4, 1));
  b.apply(start_msg(1, 2, 0));
  EXPECT_EQ(a.view_hash(), b.view_hash());
}

TEST(FlowTable, ViewHashReturnsAfterAddRemove) {
  FlowTable table;
  const std::uint64_t empty_hash = table.view_hash();
  table.apply(start_msg(1, 2, 0));
  EXPECT_NE(table.view_hash(), empty_hash);
  BroadcastMsg fin = start_msg(1, 2, 0);
  fin.type = PacketType::kFlowFinish;
  table.apply(fin);
  EXPECT_EQ(table.view_hash(), empty_hash);
}

TEST(FlowTable, ViewHashTracksFieldChanges) {
  FlowTable a, b;
  a.apply(start_msg(1, 2, 0, RouteAlg::kRps));
  b.apply(start_msg(1, 2, 0, RouteAlg::kVlb));
  EXPECT_NE(a.view_hash(), b.view_hash());
}

TEST(FlowTable, VersionMonotone) {
  FlowTable table;
  const auto v0 = table.version();
  table.apply(start_msg(1, 2, 0));
  EXPECT_GT(table.version(), v0);
}

TEST(FlowTable, SnapshotContainsAllFlows) {
  FlowTable table;
  for (std::uint8_t i = 0; i < 10; ++i) table.apply(start_msg(1, 2, i));
  EXPECT_EQ(table.snapshot().size(), 10u);
}

// --- Route selection ---

class RouteSelectionTest : public ::testing::Test {
 protected:
  RouteSelectionTest() : topo_(make_torus({4, 4}, 10 * kGbps, 100)), router_(topo_) {}

  std::vector<FlowSpec> permutation_flows(double load, std::uint64_t seed) {
    Rng rng(seed);
    std::vector<FlowSpec> flows;
    FlowId id = 1;
    for (const auto& [s, d] : partial_permutation_pairs(topo_, load, rng)) {
      flows.push_back({id++, s, d, RouteAlg::kRps, 1.0, 0, kUnlimitedDemand});
    }
    return flows;
  }

  Topology topo_;
  Router router_;
};

TEST_F(RouteSelectionTest, GaNeverWorseThanStartingAssignment) {
  const auto flows = permutation_flows(0.5, 3);
  SelectionConfig cfg;
  cfg.population = 20;
  cfg.max_generations = 10;
  std::vector<RouteAlg> current(flows.size(), RouteAlg::kRps);
  const double base = route_assignment_utility(router_, flows, current, cfg.utility, cfg.alloc);
  const auto result = select_routes_ga(router_, flows, cfg);
  EXPECT_GE(result.utility, base - 1.0);
}

TEST_F(RouteSelectionTest, GaFindsExhaustiveOptimumOnTinyInstance) {
  const auto flows = permutation_flows(0.25, 5);  // 4 flows -> 16 assignments
  ASSERT_LE(flows.size(), 6u);
  SelectionConfig cfg;
  cfg.population = 30;
  cfg.max_generations = 20;
  const auto best = select_routes_exhaustive(router_, flows, cfg);
  const auto ga = select_routes_ga(router_, flows, cfg);
  EXPECT_NEAR(ga.utility, best.utility, best.utility * 1e-9);
}

TEST_F(RouteSelectionTest, GaBeatsOrMatchesSingleProtocols) {
  // The core Fig. 18 property: mixing protocols per flow is at least as
  // good as the best single-protocol assignment.
  for (const double load : {0.25, 0.75}) {
    const auto flows = permutation_flows(load, 11);
    SelectionConfig cfg;
    cfg.population = 40;
    cfg.max_generations = 15;
    cfg.seed = 7;
    const auto ga = select_routes_ga(router_, flows, cfg);
    const auto rps = uniform_assignment(router_, flows, RouteAlg::kRps, cfg);
    const auto vlb = uniform_assignment(router_, flows, RouteAlg::kVlb, cfg);
    EXPECT_GE(ga.utility, rps.utility * 0.999) << "load " << load;
    EXPECT_GE(ga.utility, vlb.utility * 0.999) << "load " << load;
  }
}

TEST_F(RouteSelectionTest, HillClimbImprovesOrEqualsBase) {
  const auto flows = permutation_flows(0.5, 13);
  SelectionConfig cfg;
  cfg.eval_budget = 200;
  std::vector<RouteAlg> current(flows.size(), RouteAlg::kRps);
  const double base = route_assignment_utility(router_, flows, current, cfg.utility, cfg.alloc);
  const auto hc = select_routes_hill_climb(router_, flows, cfg);
  EXPECT_GE(hc.utility, base - 1.0);
}

TEST_F(RouteSelectionTest, RandomSearchRespectsBudget) {
  const auto flows = permutation_flows(0.5, 17);
  SelectionConfig cfg;
  cfg.eval_budget = 10;
  const auto result = select_routes_random(router_, flows, cfg);
  EXPECT_LE(result.evaluations, 10);
  EXPECT_GT(result.utility, 0.0);
}

TEST_F(RouteSelectionTest, MinThroughputUtility) {
  const auto flows = permutation_flows(0.5, 19);
  SelectionConfig cfg;
  cfg.utility = UtilityKind::kMinThroughput;
  cfg.population = 20;
  cfg.max_generations = 8;
  const auto ga = select_routes_ga(router_, flows, cfg);
  const auto rps = uniform_assignment(router_, flows, RouteAlg::kRps, cfg);
  EXPECT_GE(ga.utility, rps.utility * 0.999);
}

TEST_F(RouteSelectionTest, AnnealFindsExhaustiveOptimumOnTinyInstance) {
  const auto flows = permutation_flows(0.25, 5);  // 4 flows -> 16 assignments
  ASSERT_LE(flows.size(), 6u);
  SelectionConfig cfg;
  cfg.eval_budget = 200;
  const auto best = select_routes_exhaustive(router_, flows, cfg);
  const auto sa = select_routes_anneal(router_, flows, cfg);
  EXPECT_NEAR(sa.utility, best.utility, best.utility * 1e-9);
  EXPECT_LE(sa.evaluations, cfg.eval_budget);
}

TEST_F(RouteSelectionTest, AnnealNeverWorseThanSingleProtocols) {
  // The walk starts from the best of the current and the uniform
  // single-protocol assignments, so this holds by construction.
  const auto flows = permutation_flows(0.75, 11);
  SelectionConfig cfg;
  cfg.eval_budget = 300;
  const auto sa = select_routes_anneal(router_, flows, cfg);
  const auto rps = uniform_assignment(router_, flows, RouteAlg::kRps, cfg);
  const auto vlb = uniform_assignment(router_, flows, RouteAlg::kVlb, cfg);
  EXPECT_GE(sa.utility, rps.utility * 0.999999);
  EXPECT_GE(sa.utility, vlb.utility * 0.999999);
}

TEST_F(RouteSelectionTest, HybridFindsExhaustiveOptimumOnTinyInstance) {
  const auto flows = permutation_flows(0.25, 5);
  ASSERT_LE(flows.size(), 6u);
  SelectionConfig cfg;
  cfg.population = 20;
  cfg.max_generations = 10;
  cfg.eval_budget = 400;
  const auto best = select_routes_exhaustive(router_, flows, cfg);
  const auto hybrid = select_routes_hybrid(router_, flows, cfg);
  EXPECT_NEAR(hybrid.utility, best.utility, best.utility * 1e-9);
}

TEST_F(RouteSelectionTest, HybridNeverWorseThanStartingAssignment) {
  const auto flows = permutation_flows(0.5, 13);
  SelectionConfig cfg;
  cfg.population = 20;
  cfg.max_generations = 8;
  cfg.eval_budget = 500;
  std::vector<RouteAlg> current(flows.size(), RouteAlg::kRps);
  const double base = route_assignment_utility(router_, flows, current, cfg.utility, cfg.alloc);
  const auto hybrid = select_routes_hybrid(router_, flows, cfg);
  EXPECT_GE(hybrid.utility, base - 1.0);
}

TEST_F(RouteSelectionTest, BlendedWeightEndpointsMatchSingleObjectives) {
  const auto flows = permutation_flows(0.5, 19);
  std::vector<RouteAlg> assign(flows.size(), RouteAlg::kRps);
  assign[0] = RouteAlg::kVlb;
  const double agg = route_assignment_utility(router_, flows, assign,
                                              UtilityKind::kAggregateThroughput);
  const double mn =
      route_assignment_utility(router_, flows, assign, UtilityKind::kMinThroughput);
  // w = 0: pure aggregate; w = 1: n * min (both bitwise, not approximate).
  EXPECT_EQ(route_assignment_utility(router_, flows, assign, UtilityKind::kBlended, {}, 0.0),
            agg);
  EXPECT_EQ(route_assignment_utility(router_, flows, assign, UtilityKind::kBlended, {}, 1.0),
            static_cast<double>(flows.size()) * mn);
}

TEST_F(RouteSelectionTest, BlendedSearchLiftsMinThroughput) {
  // The point of the scalarization: versus a pure-aggregate search, the
  // blended optimum's worst flow does at least as well. Exhaustive optima
  // on a tiny instance make this exact (no search noise).
  const auto flows = permutation_flows(0.3, 7);
  ASSERT_GE(flows.size(), 3u);
  ASSERT_LE(flows.size(), 8u);
  SelectionConfig cfg;
  cfg.utility = UtilityKind::kAggregateThroughput;
  const auto agg_opt = select_routes_exhaustive(router_, flows, cfg);
  cfg.utility = UtilityKind::kBlended;
  cfg.blend_min_weight = 0.9;
  const auto blend_opt = select_routes_exhaustive(router_, flows, cfg);

  const double min_agg = route_assignment_utility(router_, flows, agg_opt.assignment,
                                                  UtilityKind::kMinThroughput);
  const double min_blend = route_assignment_utility(router_, flows, blend_opt.assignment,
                                                    UtilityKind::kMinThroughput);
  EXPECT_GE(min_blend, min_agg * (1.0 - 1e-9));
}

TEST_F(RouteSelectionTest, InvalidBlendWeightRejected) {
  SelectionConfig cfg;
  cfg.utility = UtilityKind::kBlended;
  cfg.blend_min_weight = 1.5;
  EXPECT_THROW(select_routes_ga(router_, {}, cfg), std::invalid_argument);
}

TEST_F(RouteSelectionTest, EmptyChoicesRejected) {
  SelectionConfig cfg;
  cfg.choices.clear();
  EXPECT_THROW(select_routes_ga(router_, {}, cfg), std::invalid_argument);
}

TEST_F(RouteSelectionTest, ExhaustiveRejectsHugeSpace) {
  const auto flows = permutation_flows(1.0, 23);
  SelectionConfig cfg;
  cfg.choices = {RouteAlg::kRps, RouteAlg::kVlb, RouteAlg::kWlb};  // 3^15+ states
  ASSERT_GT(flows.size(), 12u);
  EXPECT_THROW(select_routes_exhaustive(router_, flows, cfg), std::length_error);
}

TEST_F(RouteSelectionTest, AssignmentSizeMismatchRejected) {
  const auto flows = permutation_flows(0.5, 29);
  std::vector<RouteAlg> wrong(flows.size() + 1, RouteAlg::kRps);
  EXPECT_THROW(
      route_assignment_utility(router_, flows, wrong, UtilityKind::kAggregateThroughput),
      std::invalid_argument);
}

// --- Control traffic model (Fig. 19) ---

TEST(ControlTraffic, DecentralizedIndependentOfFlowCount) {
  const Topology topo = make_torus({8, 8, 8}, 10 * kGbps, 100);
  const BroadcastTrees trees(topo, 1);
  EXPECT_EQ(decentralized_event_bytes(trees), 511u * 16);
}

TEST(ControlTraffic, CentralizedGrowsWithFlows) {
  const Topology topo = make_torus({8, 8, 8}, 10 * kGbps, 100);
  const CentralizedModel model;
  const auto few = centralized_event_bytes(topo, model, 100, 512, 1.0);
  const auto many = centralized_event_bytes(topo, model, 100, 512, 10.0);
  EXPECT_GT(many, few);
  EXPECT_GT(static_cast<double>(many) / static_cast<double>(few), 2.0);
}

TEST(ControlTraffic, CentralizedCheaperWithVeryFewSenders) {
  // With a handful of senders, unicasts beat an all-rack broadcast.
  const Topology topo = make_torus({8, 8, 8}, 10 * kGbps, 100);
  const BroadcastTrees trees(topo, 1);
  const CentralizedModel model;
  EXPECT_LT(centralized_event_bytes(topo, model, 100, 4, 1.0), decentralized_event_bytes(trees));
  EXPECT_GT(centralized_event_bytes(topo, model, 100, 512, 1.0), decentralized_event_bytes(trees));
}

}  // namespace
}  // namespace r2c2
