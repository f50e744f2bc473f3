#include <gtest/gtest.h>

#include <functional>
#include <numeric>
#include <vector>

#include "topology/topology.h"

namespace r2c2 {
namespace {

TEST(Topology, TorusNodeAndLinkCount) {
  // k-ary n-cube: k^n nodes, 2n directed links per node (k > 2).
  const Topology t = make_torus({4, 4, 4}, 10 * kGbps, 100);
  EXPECT_EQ(t.num_nodes(), 64u);
  EXPECT_EQ(t.num_links(), 64u * 6);
  EXPECT_EQ(t.max_degree(), 6);
}

TEST(Topology, MeshHasFewerLinks) {
  const Topology t = make_mesh({4, 4}, 10 * kGbps, 100);
  EXPECT_EQ(t.num_nodes(), 16u);
  // 2 * (3*4 + 3*4) duplex cables = 48 directed links.
  EXPECT_EQ(t.num_links(), 48u);
}

TEST(Topology, DimensionOfSizeTwoGetsSingleCable) {
  // No double links between the two nodes of a k=2 ring.
  const Topology t = make_torus({2, 2}, kGbps, 100);
  EXPECT_EQ(t.num_nodes(), 4u);
  EXPECT_EQ(t.num_links(), 8u);  // each node: 2 out-links
  EXPECT_EQ(t.max_degree(), 2);
}

TEST(Topology, DimensionOfSizeOneIgnored) {
  const Topology t = make_torus({4, 1}, kGbps, 100);
  EXPECT_EQ(t.num_nodes(), 4u);
  EXPECT_EQ(t.num_links(), 8u);  // a 4-ring
}

TEST(Topology, EveryLinkHasReverse) {
  const Topology t = make_torus({3, 3, 3}, kGbps, 100);
  for (LinkId l = 0; l < t.num_links(); ++l) {
    const LinkId rev = t.reverse(l);
    ASSERT_NE(rev, kInvalidLink);
    EXPECT_EQ(t.link(rev).from, t.link(l).to);
    EXPECT_EQ(t.link(rev).to, t.link(l).from);
    EXPECT_EQ(t.reverse(rev), l);
  }
  // A one-way edge has no reverse.
  Topology one_way;
  const NodeId a = one_way.add_node();
  const NodeId b = one_way.add_node();
  const LinkId ab = one_way.add_link(a, b, kGbps, 100);
  one_way.add_link(b, a, kGbps, 100);
  const NodeId c = one_way.add_node();
  const LinkId bc = one_way.add_link(b, c, kGbps, 100);
  one_way.add_link(c, a, kGbps, 100);
  one_way.finalize();
  EXPECT_NE(one_way.reverse(ab), kInvalidLink);
  EXPECT_EQ(one_way.reverse(bc), kInvalidLink);
}

TEST(Topology, CoordsRoundTrip) {
  const Topology t = make_torus({4, 3, 5}, kGbps, 100);
  for (NodeId n = 0; n < t.num_nodes(); ++n) {
    EXPECT_EQ(t.node_at(t.coords_of(n)), n);
  }
}

TEST(Topology, SelfDistanceZero) {
  const Topology t = make_torus({4, 4}, kGbps, 100);
  for (NodeId n = 0; n < t.num_nodes(); ++n) EXPECT_EQ(t.distance(n, n), 0);
}

TEST(Topology, TorusDistanceIsManhattanWithWrap) {
  const Topology t = make_torus({8, 8}, kGbps, 100);
  for (NodeId a = 0; a < t.num_nodes(); ++a) {
    for (NodeId b = 0; b < t.num_nodes(); ++b) {
      const auto ca = t.coords_of(a), cb = t.coords_of(b);
      int expect = 0;
      for (int i = 0; i < 2; ++i) {
        const int d = std::abs(ca[i] - cb[i]);
        expect += std::min(d, 8 - d);
      }
      EXPECT_EQ(t.distance(a, b), expect);
    }
  }
}

TEST(Topology, MeshDistanceIsManhattan) {
  const Topology t = make_mesh({5, 5}, kGbps, 100);
  for (NodeId a = 0; a < t.num_nodes(); ++a) {
    for (NodeId b = 0; b < t.num_nodes(); ++b) {
      const auto ca = t.coords_of(a), cb = t.coords_of(b);
      EXPECT_EQ(t.distance(a, b), std::abs(ca[0] - cb[0]) + std::abs(ca[1] - cb[1]));
    }
  }
}

TEST(Topology, TorusDiameter) {
  EXPECT_EQ(make_torus({8, 8}, kGbps, 100).diameter(), 8);      // 4 + 4
  EXPECT_EQ(make_torus({4, 4, 4}, kGbps, 100).diameter(), 6);   // 2 * 3
  EXPECT_EQ(make_mesh({8, 8}, kGbps, 100).diameter(), 14);      // 7 + 7
}

TEST(Topology, Paper512NodeTorusMeanHops) {
  // Section 3.2: "The average path length for a flow in a 512-node 3D torus
  // is 6 hops".
  const Topology t = make_torus({8, 8, 8}, 10 * kGbps, 100);
  EXPECT_EQ(t.num_nodes(), 512u);
  EXPECT_NEAR(t.mean_shortest_path_hops(), 6.0, 0.02);
}

TEST(Topology, MinNextHopsReduceDistance) {
  const Topology t = make_torus({4, 4, 4}, kGbps, 100);
  for (NodeId a = 0; a < 16; ++a) {
    for (NodeId b = 48; b < 64; ++b) {
      if (a == b) continue;
      const auto hops = t.min_next_hops(a, b);
      ASSERT_FALSE(hops.empty());
      for (const NodeId h : hops) {
        EXPECT_EQ(t.distance(h, b), t.distance(a, b) - 1);
        EXPECT_NE(t.find_link(a, h), kInvalidLink);
      }
    }
  }
}

TEST(Topology, PortsAreStableAndInvertible) {
  const Topology t = make_torus({4, 4}, kGbps, 100);
  for (NodeId n = 0; n < t.num_nodes(); ++n) {
    const auto out = t.out_links(n);
    for (std::size_t p = 0; p < out.size(); ++p) {
      EXPECT_EQ(t.port_of(out[p]), static_cast<int>(p));
      EXPECT_EQ(t.out_link_by_port(n, static_cast<int>(p)), out[p]);
    }
  }
}

TEST(Topology, BisectionOf8Ary2Cube) {
  // 8x8 torus cut in half: 8 rows x 2 crossing cables x 2 directions = 32
  // directed channels.
  const Topology t = make_torus({8, 8}, kGbps, 100);
  EXPECT_DOUBLE_EQ(t.bisection_capacity(), 32 * kGbps);
}

TEST(Topology, BisectionOf512Torus) {
  // 8x8x8 torus: 8*8 columns x 2 cables x 2 directions = 256 channels.
  const Topology t = make_torus({8, 8, 8}, 10 * kGbps, 100);
  EXPECT_DOUBLE_EQ(t.bisection_capacity(), 256 * 10 * kGbps);
}

TEST(Topology, FoldedClosShape) {
  // Section 6's example: 512 servers under 32 leaves and 16 spines.
  const Topology t = make_folded_clos({.servers_per_leaf = 16,
                                       .num_leaves = 32,
                                       .num_spines = 16,
                                       .bandwidth = 10 * kGbps,
                                       .latency = 100});
  EXPECT_EQ(t.num_nodes(), 512u + 32 + 16);
  // Directed links: 512 server cables + 32*16 leaf-spine cables, x2.
  EXPECT_EQ(t.num_links(), 2u * (512 + 32 * 16));
  // Server to server across leaves: 4 hops; same leaf: 2 hops.
  EXPECT_EQ(t.distance(0, 1), 2);
  EXPECT_EQ(t.distance(0, 16), 4);
}

// --- Folded Clos, small instance verified against hand-computed values ---
// 2 servers/leaf x 3 leaves x 2 spines: servers 0..5, leaves 6..8, spines
// 9..10. Small enough that every distance, the bisection bound and the
// shortest-path counts can be worked out on paper.

Topology small_clos() {
  return make_folded_clos({.servers_per_leaf = 2,
                           .num_leaves = 3,
                           .num_spines = 2,
                           .bandwidth = 10 * kGbps,
                           .latency = 100});
}

TEST(Topology, FoldedClosHopCountMatrix) {
  const Topology t = small_clos();
  ASSERT_EQ(t.num_nodes(), 6u + 3 + 2);
  const auto leaf_of = [](NodeId server) { return static_cast<NodeId>(6 + server / 2); };
  const auto is_server = [](NodeId n) { return n < 6; };
  const auto is_leaf = [](NodeId n) { return n >= 6 && n < 9; };
  // Closed form for every pair; compare the full matrix.
  const auto expected = [&](NodeId a, NodeId b) -> int {
    if (a == b) return 0;
    if (is_server(a) && is_server(b)) return leaf_of(a) == leaf_of(b) ? 2 : 4;
    if (is_server(a) && is_leaf(b)) return leaf_of(a) == b ? 1 : 3;
    if (is_leaf(a) && is_server(b)) return leaf_of(b) == a ? 1 : 3;
    if (is_server(a) || is_server(b)) return 2;  // server <-> spine
    if (is_leaf(a) && is_leaf(b)) return 2;      // leaf -> spine -> leaf
    if (is_leaf(a) != is_leaf(b)) return 1;      // leaf <-> spine
    return 2;                                    // spine -> leaf -> spine
  };
  for (NodeId a = 0; a < t.num_nodes(); ++a) {
    for (NodeId b = 0; b < t.num_nodes(); ++b) {
      EXPECT_EQ(t.distance(a, b), expected(a, b)) << a << " -> " << b;
    }
  }
  EXPECT_EQ(t.diameter(), 4);
}

TEST(Topology, FoldedClosBisectionCapacity) {
  // No grid metadata, so the degree-based fallback applies: half the summed
  // directed bandwidth. Cables: 6 server-leaf + 3x2 leaf-spine = 12, so 24
  // directed links at 10 Gbps each -> 120 Gbps.
  const Topology t = small_clos();
  ASSERT_EQ(t.num_links(), 24u);
  EXPECT_DOUBLE_EQ(t.bisection_capacity(), 12 * 10 * kGbps);
}

TEST(Topology, FoldedClosPathEnumeration) {
  const Topology t = small_clos();
  // Count distinct shortest paths by walking min_next_hops recursively.
  const std::function<int(NodeId, NodeId)> count_paths = [&](NodeId at, NodeId to) -> int {
    if (at == to) return 1;
    int total = 0;
    for (const NodeId next : t.min_next_hops(at, to)) total += count_paths(next, to);
    return total;
  };
  // Same-leaf pair: the single server->leaf->server path.
  EXPECT_EQ(count_paths(0, 1), 1);
  ASSERT_EQ(t.min_next_hops(0, 1), std::vector<NodeId>{6});
  // Cross-leaf pair: exactly one path per spine.
  EXPECT_EQ(count_paths(0, 2), 2);
  ASSERT_EQ(t.min_next_hops(0, 2), std::vector<NodeId>{6});
  // At the leaf, both spines lie on a shortest path toward leaf 7's server.
  const std::vector<NodeId> fan = t.min_next_hops(6, 2);
  EXPECT_EQ(fan, (std::vector<NodeId>{9, 10}));
  // Leaf to leaf: again one path per spine.
  EXPECT_EQ(count_paths(6, 8), 2);
  // Every server pair crossing leaves sees exactly num_spines paths.
  for (NodeId a = 0; a < 6; ++a) {
    for (NodeId b = 0; b < 6; ++b) {
      if (a / 2 == b / 2) continue;
      EXPECT_EQ(count_paths(a, b), 2) << a << " -> " << b;
    }
  }
}

TEST(Topology, BuildErrors) {
  Topology t;
  const NodeId a = t.add_node();
  const NodeId b = t.add_node();
  EXPECT_THROW(t.add_link(a, a, kGbps, 1), std::invalid_argument);
  EXPECT_THROW(t.add_link(a, 5, kGbps, 1), std::out_of_range);
  t.add_duplex_link(a, b, kGbps, 1);
  t.finalize();
  EXPECT_THROW(t.add_node(), std::logic_error);
}

TEST(Topology, DisconnectedGraphRejected) {
  Topology t;
  t.add_node();
  t.add_node();
  EXPECT_THROW(t.finalize(), std::logic_error);
}

// Parameterized invariants across a family of grids.
class GridInvariants : public ::testing::TestWithParam<std::tuple<std::vector<int>, bool>> {};

TEST_P(GridInvariants, DegreesDistancesAndSymmetry) {
  const auto& [dims, wraps] = GetParam();
  const Topology t = wraps ? make_torus(dims, kGbps, 100) : make_mesh(dims, kGbps, 100);
  std::size_t n = 1;
  for (int k : dims) n *= static_cast<std::size_t>(k);
  ASSERT_EQ(t.num_nodes(), n);
  // Distance symmetry (duplex links) and triangle inequality spot check.
  for (NodeId a = 0; a < std::min<std::size_t>(n, 32); ++a) {
    for (NodeId b = 0; b < std::min<std::size_t>(n, 32); ++b) {
      EXPECT_EQ(t.distance(a, b), t.distance(b, a));
      const NodeId c = static_cast<NodeId>((a + b) % n);
      EXPECT_LE(t.distance(a, b), t.distance(a, c) + t.distance(c, b));
    }
  }
  // Every node's degree is at most 2 * rank (and at most 8, the route
  // encoding limit for the built-in grids).
  for (NodeId v = 0; v < n; ++v) {
    EXPECT_LE(t.out_degree(v), static_cast<int>(2 * dims.size()));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grids, GridInvariants,
    ::testing::Values(std::tuple{std::vector<int>{4, 4}, true},
                      std::tuple{std::vector<int>{8, 8}, true},
                      std::tuple{std::vector<int>{3, 5}, true},
                      std::tuple{std::vector<int>{4, 4, 4}, true},
                      std::tuple{std::vector<int>{2, 3, 4}, true},
                      std::tuple{std::vector<int>{4, 4}, false},
                      std::tuple{std::vector<int>{5, 3}, false},
                      std::tuple{std::vector<int>{3, 3, 3}, false},
                      std::tuple{std::vector<int>{16}, true},
                      std::tuple{std::vector<int>{9}, false}));

}  // namespace
}  // namespace r2c2
