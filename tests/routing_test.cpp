#include <gtest/gtest.h>

#include <map>
#include <numeric>

#include "common/rng.h"
#include "routing/routing.h"
#include "topology/topology.h"

namespace r2c2 {
namespace {

bool path_follows_links(const Topology& t, const Path& p) {
  for (std::size_t i = 0; i + 1 < p.size(); ++i) {
    if (t.find_link(p[i], p[i + 1]) == kInvalidLink) return false;
  }
  return true;
}

// Flow conservation: at every node except src/dst, inbound fraction equals
// outbound fraction; fractions out of src sum to 1; into dst sum to 1.
void expect_conserved(const Topology& t, const LinkWeights& w, NodeId src, NodeId dst) {
  std::map<NodeId, double> net;  // out minus in
  for (const LinkFraction& lf : w) {
    const Link& l = t.link(lf.link);
    EXPECT_GT(lf.fraction, 0.0);
    // A fraction is an *expected traversal count*: VLB packets can cross a
    // link once per phase, so the bound is 2, not 1.
    EXPECT_LE(lf.fraction, 2.0 + 1e-9);
    net[l.from] += lf.fraction;
    net[l.to] -= lf.fraction;
  }
  // Net flux: +1 at the source, -1 at the destination, 0 elsewhere. (Gross
  // out-of-source can exceed 1 for VLB, whose phase-2 paths may pass back
  // through the source.)
  EXPECT_NEAR(net[src], 1.0, 1e-9);
  EXPECT_NEAR(net[dst], -1.0, 1e-9);
  for (const auto& [node, flux] : net) {
    if (node != src && node != dst) {
      EXPECT_NEAR(flux, 0.0, 1e-9) << "node " << node;
    }
  }
}

class RoutingOnTorus : public ::testing::TestWithParam<RouteAlg> {
 protected:
  RoutingOnTorus() : topo_(make_torus({4, 4, 4}, 10 * kGbps, 100)), router_(topo_) {}
  Topology topo_;
  Router router_;
};

TEST_P(RoutingOnTorus, PathsAreValid) {
  Rng rng(1);
  for (int trial = 0; trial < 200; ++trial) {
    const NodeId s = static_cast<NodeId>(rng.uniform_int(topo_.num_nodes()));
    NodeId d;
    do {
      d = static_cast<NodeId>(rng.uniform_int(topo_.num_nodes()));
    } while (d == s);
    const Path p = router_.pick_path(GetParam(), s, d, rng, 42);
    ASSERT_GE(p.size(), 2u);
    EXPECT_EQ(p.front(), s);
    EXPECT_EQ(p.back(), d);
    EXPECT_TRUE(path_follows_links(topo_, p));
  }
}

TEST_P(RoutingOnTorus, WeightsConserveFlow) {
  Rng rng(2);
  for (int trial = 0; trial < 50; ++trial) {
    const NodeId s = static_cast<NodeId>(rng.uniform_int(topo_.num_nodes()));
    NodeId d;
    do {
      d = static_cast<NodeId>(rng.uniform_int(topo_.num_nodes()));
    } while (d == s);
    expect_conserved(topo_, router_.link_weights(GetParam(), s, d, 7), s, d);
  }
}

TEST_P(RoutingOnTorus, ExpectedHopsAtLeastShortest) {
  Rng rng(3);
  for (int trial = 0; trial < 50; ++trial) {
    const NodeId s = static_cast<NodeId>(rng.uniform_int(topo_.num_nodes()));
    NodeId d;
    do {
      d = static_cast<NodeId>(rng.uniform_int(topo_.num_nodes()));
    } while (d == s);
    EXPECT_GE(router_.expected_hops(GetParam(), s, d, 7),
              static_cast<double>(topo_.distance(s, d)) - 1e-9);
  }
}

TEST_P(RoutingOnTorus, SelfFlowHasNoWeights) {
  EXPECT_TRUE(router_.link_weights(GetParam(), 5, 5).empty());
  Rng rng(4);
  EXPECT_EQ(router_.pick_path(GetParam(), 5, 5, rng), Path{5});
}

INSTANTIATE_TEST_SUITE_P(AllAlgs, RoutingOnTorus,
                         ::testing::Values(RouteAlg::kRps, RouteAlg::kDor, RouteAlg::kVlb,
                                           RouteAlg::kWlb, RouteAlg::kEcmp),
                         [](const auto& info) { return std::string(to_string(info.param)); });

// --- Minimality ---

TEST(Routing, MinimalAlgsUseShortestPaths) {
  const Topology t = make_torus({4, 4, 4}, kGbps, 100);
  const Router router(t);
  Rng rng(5);
  for (int trial = 0; trial < 100; ++trial) {
    const NodeId s = static_cast<NodeId>(rng.uniform_int(t.num_nodes()));
    NodeId d;
    do {
      d = static_cast<NodeId>(rng.uniform_int(t.num_nodes()));
    } while (d == s);
    const std::size_t min_len = static_cast<std::size_t>(t.distance(s, d)) + 1;
    EXPECT_EQ(router.pick_path(RouteAlg::kRps, s, d, rng).size(), min_len);
    EXPECT_EQ(router.pick_path(RouteAlg::kDor, s, d, rng).size(), min_len);
    EXPECT_EQ(router.pick_path(RouteAlg::kEcmp, s, d, rng, 3).size(), min_len);
  }
}

TEST(Routing, DorIsDeterministic) {
  const Topology t = make_torus({8, 8}, kGbps, 100);
  const Router router(t);
  Rng a(1), b(999);
  EXPECT_EQ(router.pick_path(RouteAlg::kDor, 3, 60, a), router.pick_path(RouteAlg::kDor, 3, 60, b));
}

TEST(Routing, DorCorrectsDimensionsInOrder) {
  const Topology t = make_torus({4, 4}, kGbps, 100);
  const Router router(t);
  Rng rng(1);
  // From (0,0) to (2,2): the x coordinate is fully corrected before y
  // moves (either way around each ring — 2 == k/2 is a tie).
  const Path p = router.pick_path(RouteAlg::kDor, t.node_at(std::vector<int>{0, 0}),
                                  t.node_at(std::vector<int>{2, 2}), rng);
  ASSERT_EQ(p.size(), 5u);
  EXPECT_EQ(t.coords_of(p[1])[1], 0);  // still moving in x
  EXPECT_EQ(t.coords_of(p[2]), (std::vector<int>{2, 0}));  // x done
  EXPECT_EQ(t.coords_of(p[3])[0], 2);  // now moving in y
}

TEST(Routing, DorTakesShorterWayAround) {
  const Topology t = make_torus({8}, kGbps, 100);
  const Router router(t);
  Rng rng(1);
  // 0 -> 6 is 2 hops backwards around the ring, not 6 forwards.
  EXPECT_EQ(router.pick_path(RouteAlg::kDor, 0, 6, rng).size(), 3u);
}

TEST(Routing, EcmpIsPerFlowStable) {
  const Topology t = make_torus({4, 4, 4}, kGbps, 100);
  const Router router(t);
  Rng rng(1);
  const Path p1 = router.pick_path(RouteAlg::kEcmp, 0, 42, rng, /*flow=*/9);
  const Path p2 = router.pick_path(RouteAlg::kEcmp, 0, 42, rng, /*flow=*/9);
  EXPECT_EQ(p1, p2);
  // Different flows between the same endpoints spread over paths.
  bool differs = false;
  for (FlowId f = 0; f < 32 && !differs; ++f) {
    differs = router.pick_path(RouteAlg::kEcmp, 0, 42, rng, f) != p1;
  }
  EXPECT_TRUE(differs);
}

TEST(Routing, RpsSplitsEquallyOnTwoPathMesh) {
  // Fig. 3: a 2x2 mesh flow from corner to corner splits 50/50 over the two
  // two-hop paths, so each of the four links carries exactly half.
  const Topology t = make_mesh({2, 2}, kGbps, 100);
  const Router router(t);
  const LinkWeights w = router.link_weights(RouteAlg::kRps, 0, 3);
  ASSERT_EQ(w.size(), 4u);
  for (const LinkFraction& lf : w) EXPECT_NEAR(lf.fraction, 0.5, 1e-12);
}

TEST(Routing, RpsWeightsMatchEmpiricalPathSampling) {
  const Topology t = make_torus({4, 4}, kGbps, 100);
  const Router router(t);
  const NodeId s = 0, d = 5;  // (0,0) -> (1,1): two shortest paths
  std::map<LinkId, double> counts;
  Rng rng(17);
  const int kTrials = 20000;
  for (int i = 0; i < kTrials; ++i) {
    const Path p = router.pick_path(RouteAlg::kRps, s, d, rng);
    for (std::size_t j = 0; j + 1 < p.size(); ++j) counts[t.find_link(p[j], p[j + 1])] += 1.0;
  }
  for (const LinkFraction& lf : router.link_weights(RouteAlg::kRps, s, d)) {
    EXPECT_NEAR(counts[lf.link] / kTrials, lf.fraction, 0.02);
  }
}

TEST(Routing, VlbWeightsMatchEmpiricalPathSampling) {
  const Topology t = make_torus({4, 4}, kGbps, 100);
  const Router router(t);
  const NodeId s = 0, d = 1;
  std::map<LinkId, double> counts;
  Rng rng(19);
  const int kTrials = 40000;
  for (int i = 0; i < kTrials; ++i) {
    const Path p = router.pick_path(RouteAlg::kVlb, s, d, rng);
    for (std::size_t j = 0; j + 1 < p.size(); ++j) counts[t.find_link(p[j], p[j + 1])] += 1.0;
  }
  for (const LinkFraction& lf : router.link_weights(RouteAlg::kVlb, s, d)) {
    EXPECT_NEAR(counts[lf.link] / kTrials, lf.fraction, 0.03) << "link " << lf.link;
  }
}

TEST(Routing, WlbWeightsMatchEmpiricalPathSampling) {
  const Topology t = make_torus({8, 8}, kGbps, 100);
  const Router router(t);
  const NodeId s = 0, d = 2;
  std::map<LinkId, double> counts;
  Rng rng(23);
  const int kTrials = 40000;
  for (int i = 0; i < kTrials; ++i) {
    const Path p = router.pick_path(RouteAlg::kWlb, s, d, rng);
    for (std::size_t j = 0; j + 1 < p.size(); ++j) counts[t.find_link(p[j], p[j + 1])] += 1.0;
  }
  for (const LinkFraction& lf : router.link_weights(RouteAlg::kWlb, s, d)) {
    EXPECT_NEAR(counts[lf.link] / kTrials, lf.fraction, 0.03) << "link " << lf.link;
  }
}

TEST(Routing, WlbPrefersShortWayAround) {
  // 0 -> 2 on an 8-ring: forward (2 hops) should carry 6/8 of the traffic,
  // backward (6 hops) 2/8.
  const Topology t = make_torus({8}, kGbps, 100);
  const Router router(t);
  Rng rng(29);
  int fwd = 0;
  const int kTrials = 20000;
  for (int i = 0; i < kTrials; ++i) {
    const Path p = router.pick_path(RouteAlg::kWlb, 0, 2, rng);
    if (p.size() == 3) ++fwd;
  }
  EXPECT_NEAR(static_cast<double>(fwd) / kTrials, 0.75, 0.02);
}

TEST(Routing, VlbExpectedHopsApproxTwiceAverage) {
  // VLB doubles the average path length (two minimal phases via a random
  // waypoint).
  const Topology t = make_torus({4, 4, 4}, kGbps, 100);
  const Router router(t);
  const double mean = t.mean_shortest_path_hops();
  double total = 0.0;
  int pairs = 0;
  Rng rng(31);
  for (int i = 0; i < 30; ++i) {
    const NodeId s = static_cast<NodeId>(rng.uniform_int(t.num_nodes()));
    NodeId d;
    do {
      d = static_cast<NodeId>(rng.uniform_int(t.num_nodes()));
    } while (d == s);
    total += router.expected_hops(RouteAlg::kVlb, s, d);
    ++pairs;
  }
  EXPECT_NEAR(total / pairs, 2.0 * mean, 0.75);
}

TEST(Routing, CachedWeightsAreStableReferences) {
  // A reference lives until the thread's next query, but the entry behind
  // it never changes: the same links with bit-identical fractions after
  // many other entries were derived, and after its tile was evicted (a
  // one-byte budget keeps only the most recently touched 2x2 tile).
  const Topology t = make_torus({4, 4}, kGbps, 100);
  const Router router(t);
  const Router evicting(t, Router::TileConfig{.tile_shape = 2, .max_resident_bytes = 1});
  const LinkWeights a = router.link_weights(RouteAlg::kRps, 0, 5);
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(evicting.link_weights(RouteAlg::kRps, 0, 5), a);
  for (NodeId d = 1; d < t.num_nodes(); ++d) {
    router.link_weights(RouteAlg::kRps, 0, d);
    evicting.link_weights(RouteAlg::kRps, 0, d);
  }
  EXPECT_EQ(router.link_weights(RouteAlg::kRps, 0, 5), a);
  EXPECT_EQ(evicting.link_weights(RouteAlg::kRps, 0, 5), a);
  EXPECT_GT(evicting.tile_stats().evictions, 0u);
}

TEST(Routing, GeneralGraphFallbacks) {
  // DOR/VLB/WLB must work (minimally / generically) on a non-grid topology.
  const Topology t = make_folded_clos({.servers_per_leaf = 2,
                                       .num_leaves = 4,
                                       .num_spines = 2,
                                       .bandwidth = kGbps,
                                       .latency = 100});
  const Router router(t);
  Rng rng(37);
  for (const RouteAlg alg : {RouteAlg::kRps, RouteAlg::kDor, RouteAlg::kVlb, RouteAlg::kWlb}) {
    const Path p = router.pick_path(alg, 0, 7, rng);
    EXPECT_TRUE(path_follows_links(t, p)) << to_string(alg);
    EXPECT_EQ(p.back(), 7) << to_string(alg);
    expect_conserved(t, router.link_weights(alg, 0, 7), 0, 7);
  }
}

}  // namespace
}  // namespace r2c2
