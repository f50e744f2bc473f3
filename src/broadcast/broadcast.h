// Low-overhead rack broadcast (Section 3.2).
//
// R2C2 broadcasts flow start/finish events so every node learns the global
// traffic matrix. Broadcast packets travel along per-source shortest-path
// trees: a spanning tree rooted at the source in which every node sits at
// its BFS distance from the source, minimizing the maximum number of hops
// within which all nodes receive a copy (broadcast time).
//
// Multiple trees are built per source (neighbor order is rotated per tree
// id) so senders can load-balance broadcast traffic and route around
// failures. Forwarding state is a FIB indexed by <src-address, tree-id>
// that yields the set of next hops (the node's children in that tree).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/types.h"
#include "topology/topology.h"

namespace r2c2 {

// Size of the fixed broadcast packet on the wire (Section 3.2 / Fig. 6).
inline constexpr std::size_t kBroadcastPacketBytes = 16;

class BroadcastTrees {
 public:
  // Builds `trees_per_source` shortest-path trees for every source.
  BroadcastTrees(const Topology& topo, int trees_per_source = 1);

  const Topology& topology() const { return topo_; }
  int trees_per_source() const { return trees_per_source_; }

  // FIB lookup: children of `at` in the tree <src, tree>. A broadcast
  // packet arriving at `at` is forwarded to each returned node.
  std::span<const NodeId> children(NodeId at, NodeId src, int tree) const;

  // Tree height: the broadcast time in hops. Every node sits at its BFS
  // distance from the source (Topology::distance).
  int height(NodeId src, int tree) const;

  // Total traffic of one broadcast: (n - 1) tree edges, each carrying one
  // 16-byte packet ("with a 512-node rack, each broadcast results in 8 KB
  // of total traffic, aggregated across all rack links").
  std::size_t bytes_per_broadcast() const {
    return (topo_.num_nodes() - 1) * kBroadcastPacketBytes;
  }

 private:
  struct Tree {
    // CSR of children lists, indexed by node.
    std::vector<NodeId> child_nodes;
    std::vector<std::uint32_t> child_offset;
    int height = 0;
  };

  const Tree& tree(NodeId src, int t) const {
    return trees_[static_cast<std::size_t>(src) * static_cast<std::size_t>(trees_per_source_) +
                  static_cast<std::size_t>(t)];
  }

  const Topology& topo_;
  int trees_per_source_;
  std::vector<Tree> trees_;
};

}  // namespace r2c2
