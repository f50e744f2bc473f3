#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "alloc_counter.h"
#include "broadcast/broadcast.h"
#include "topology/topology.h"

namespace r2c2 {
namespace {

// Walks tree <src, t> from the root and returns each reached node's depth.
std::map<NodeId, int> walk_tree(const BroadcastTrees& trees, NodeId src, int t) {
  std::map<NodeId, int> depth{{src, 0}};
  std::vector<NodeId> stack{src};
  while (!stack.empty()) {
    const NodeId at = stack.back();
    stack.pop_back();
    for (const NodeId child : trees.children(at, src, t)) {
      EXPECT_TRUE(depth.emplace(child, depth[at] + 1).second) << "node visited twice: not a tree";
      stack.push_back(child);
    }
  }
  return depth;
}

// One topology under test; test names carry its printed name.
struct TopoCase {
  std::string name;
  std::function<Topology()> build;
};
void PrintTo(const TopoCase& c, std::ostream* os) { *os << c.name; }

TopoCase torus(std::vector<int> dims) {
  return {::testing::PrintToString(dims), [dims] { return make_torus(dims, 10 * kGbps, 100); }};
}

// Section 6's 512-server folded Clos: leaves and spines have degree 32, so
// every FIB entry spans four bytes.
Topology clos512() {
  return make_folded_clos({.servers_per_leaf = 16,
                           .num_leaves = 32,
                           .num_spines = 16,
                           .bandwidth = 10 * kGbps,
                           .latency = 100});
}

// A six-node ring with a second cable between nodes 0 and 1 and a chord
// 0-3. Node 0's ports lead to 5, 1, 1, 3: port order is not neighbour-id
// order, and with three trees, tree 2 reaches node 1 first through the
// second (port 2) cable.
Topology ring_with_parallel_cable() {
  Topology topo;
  for (int i = 0; i < 6; ++i) topo.add_node();
  topo.add_duplex_link(0, 5, 10 * kGbps, 100);
  topo.add_duplex_link(0, 1, 10 * kGbps, 100);
  topo.add_duplex_link(0, 1, 10 * kGbps, 100);
  topo.add_duplex_link(0, 3, 10 * kGbps, 100);
  for (NodeId i = 1; i < 5; ++i) {
    topo.add_duplex_link(i, static_cast<NodeId>(i + 1), 10 * kGbps, 100);
  }
  topo.finalize();
  return topo;
}

class BroadcastOnTopo : public ::testing::TestWithParam<TopoCase> {
 protected:
  BroadcastOnTopo() : topo_(GetParam().build()), trees_(topo_, 3) {}
  Topology topo_;
  BroadcastTrees trees_;
};

TEST_P(BroadcastOnTopo, TreesSpanAllNodes) {
  for (NodeId src = 0; src < topo_.num_nodes(); ++src) {
    for (int t = 0; t < trees_.trees_per_source(); ++t) {
      EXPECT_EQ(walk_tree(trees_, src, t).size(), topo_.num_nodes())
          << "src " << src << " tree " << t;
    }
  }
}

TEST_P(BroadcastOnTopo, TreesAreShortestPath) {
  // Every node sits at its BFS distance from the source: the broadcast
  // time (tree height) is minimal (Section 3.2's optimization goal).
  for (NodeId src = 0; src < topo_.num_nodes(); ++src) {
    for (int t = 0; t < trees_.trees_per_source(); ++t) {
      int height = 0;
      for (const auto& [node, depth] : walk_tree(trees_, src, t)) {
        EXPECT_EQ(depth, topo_.distance(src, node)) << "src " << src << " tree " << t;
        height = std::max(height, depth);
      }
      EXPECT_EQ(trees_.height(src, t), height);
    }
  }
}

TEST_P(BroadcastOnTopo, ChildrenAreNeighbors) {
  for (NodeId src = 0; src < topo_.num_nodes(); ++src) {
    for (int t = 0; t < trees_.trees_per_source(); ++t) {
      for (NodeId v = 0; v < topo_.num_nodes(); ++v) {
        for (const NodeId child : trees_.children(v, src, t)) {
          EXPECT_NE(topo_.find_link(v, child), kInvalidLink);
        }
      }
    }
  }
}

TEST_P(BroadcastOnTopo, ChildLinksAreFindLinksInAscendingChildOrder) {
  // child_links() is children() as links: the i-th link leads to the i-th
  // child, and where parallel links join the pair it is the lowest-port
  // one (Topology::find_link's), whichever cable the BFS reached it by.
  for (NodeId src = 0; src < topo_.num_nodes(); ++src) {
    for (int t = 0; t < trees_.trees_per_source(); ++t) {
      for (NodeId v = 0; v < topo_.num_nodes(); ++v) {
        const auto c = trees_.children(v, src, t);
        const auto l = trees_.child_links(v, src, t);
        const std::vector<NodeId> kids(c.begin(), c.end());
        const std::vector<LinkId> links(l.begin(), l.end());
        ASSERT_EQ(kids.size(), links.size());
        for (std::size_t i = 0; i < kids.size(); ++i) {
          if (i > 0) {
            EXPECT_LT(kids[i - 1], kids[i]) << "src " << src << " tree " << t;
          }
          EXPECT_EQ(links[i], topo_.find_link(v, kids[i])) << "src " << src << " tree " << t;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Tori, BroadcastOnTopo,
                         ::testing::Values(torus({4, 4}), torus({3, 3, 3}), torus({8, 8}),
                                           torus({4, 4, 4})));
INSTANTIATE_TEST_SUITE_P(Graphs, BroadcastOnTopo,
                         ::testing::Values(TopoCase{"clos 512 servers", clos512},
                                           TopoCase{"ring with parallel cable",
                                                    ring_with_parallel_cable}));

TEST(Broadcast, RackScaleFibTakesOneBytePerSourceAndNode) {
  // The 16x16x16 torus has degree 6, so one tree's FIB is n^2 one-byte
  // port masks (16 MiB) plus O(links) of rank tables and BFS scratch.
  const Topology topo = make_torus({16, 16, 16}, 10 * kGbps, 500);
  const test::AllocDelta allocs;
  auto trees = std::make_unique<BroadcastTrees>(topo, 1);
  EXPECT_LE(allocs.bytes(), std::uint64_t{17} << 20);
  EXPECT_EQ(trees->height(0, 0), 24);
}

TEST(Broadcast, MultipleTreesDiffer) {
  // Rotated BFS neighbor order must produce distinct trees so broadcast
  // load can be balanced across links.
  const Topology topo = make_torus({4, 4, 4}, 10 * kGbps, 100);
  const BroadcastTrees trees(topo, 4);
  int differing_nodes = 0;
  for (NodeId v = 0; v < topo.num_nodes(); ++v) {
    const auto c0 = trees.children(v, 0, 0);
    const auto c1 = trees.children(v, 0, 1);
    if (std::vector<NodeId>(c0.begin(), c0.end()) != std::vector<NodeId>(c1.begin(), c1.end())) {
      ++differing_nodes;
    }
  }
  EXPECT_GT(differing_nodes, 5);
}

TEST(Broadcast, Paper512NodeBroadcastIs8KB) {
  // Section 3.2: "with a 512-node rack, each broadcast results in
  // 511 * 16 ~= 8 KB on the wire".
  const Topology topo = make_torus({8, 8, 8}, 10 * kGbps, 100);
  const BroadcastTrees trees(topo, 1);
  EXPECT_EQ(trees.bytes_per_broadcast(), 511u * 16);
  EXPECT_NEAR(static_cast<double>(trees.bytes_per_broadcast()) / 1024.0, 8.0, 0.02);
}

TEST(Broadcast, CloserNodesReceiveEarlierThanHeight) {
  const Topology topo = make_torus({8, 8, 8}, 10 * kGbps, 100);
  const BroadcastTrees trees(topo, 1);
  // A 512-node 3D torus has diameter 12: every node hears a broadcast
  // within 12 hops.
  EXPECT_EQ(trees.height(0, 0), 12);
}

TEST(Broadcast, SwitchedClosBroadcastCost) {
  // Section 6: a 512-server two-level folded Clos broadcast costs ~8.7 KB
  // (the tree also spans switch nodes).
  const Topology topo = make_folded_clos({.servers_per_leaf = 16,
                                          .num_leaves = 32,
                                          .num_spines = 16,
                                          .bandwidth = 10 * kGbps,
                                          .latency = 100});
  const BroadcastTrees trees(topo, 1);
  const double kb = static_cast<double>(trees.bytes_per_broadcast()) / 1024.0;
  EXPECT_NEAR(kb, 8.7, 0.3);
}

TEST(Broadcast, RejectsBadArguments) {
  const Topology topo = make_torus({4, 4}, kGbps, 100);
  EXPECT_THROW(BroadcastTrees(topo, 0), std::invalid_argument);
  Topology unfinalized;
  unfinalized.add_node();
  EXPECT_THROW(BroadcastTrees(unfinalized, 1), std::logic_error);
}

}  // namespace
}  // namespace r2c2
