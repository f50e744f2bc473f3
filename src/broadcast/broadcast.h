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
// A next hop is a port (Section 4.2), so each FIB entry is a port mask.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <vector>

#include "common/types.h"
#include "packet/packet.h"
#include "topology/topology.h"

namespace r2c2 {

// Size of the fixed broadcast packet on the wire (Section 3.2 / Fig. 6).
inline constexpr std::size_t kBroadcastPacketBytes = BroadcastMsg::kWireSize;

class BroadcastTrees {
 public:
  // The next hops of one FIB entry, in ascending child id: the children's
  // node ids (Id = NodeId) or the links to them (Id = LinkId). A forward
  // range that is its own iterator: begin() is a copy at the first hop,
  // end() a copy past the last.
  template <typename Id>
  class Hops {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = Id;
    using difference_type = std::ptrdiff_t;
    using pointer = void;
    using reference = Id;

    Hops begin() const { return *this; }
    Hops end() const {
      Hops past = *this;
      past.rank_ = degree_;
      return past;
    }
    Id operator*() const { return ranked_[rank_]; }
    Hops& operator++() {
      rank_ = next(rank_ + 1);
      return *this;
    }
    Hops operator++(int) {
      Hops before = *this;
      ++*this;
      return before;
    }
    bool operator==(const Hops& o) const { return rank_ == o.rank_; }

   private:
    friend class BroadcastTrees;
    Hops(const std::uint8_t* mask, const Id* ranked, std::uint32_t degree)
        : mask_(mask), ranked_(ranked), degree_(degree), rank_(next(0)) {}
    // The first rank at or after r whose bit is set, or degree_.
    std::uint32_t next(std::uint32_t r) const {
      for (; r < degree_; r = (r | 7u) + 1) {
        const unsigned bits = mask_[r >> 3] >> (r & 7u);
        if (bits != 0) return r + static_cast<std::uint32_t>(std::countr_zero(bits));
      }
      return degree_;
    }
    const std::uint8_t* mask_;
    const Id* ranked_;  // the node's out-links or neighbours, in rank order
    std::uint32_t degree_;
    std::uint32_t rank_;
  };

  // Builds `trees_per_source` shortest-path trees for every source.
  BroadcastTrees(const Topology& topo, int trees_per_source = 1);

  const Topology& topology() const { return topo_; }
  int trees_per_source() const { return trees_per_source_; }

  // FIB lookup: children of `at` in the tree <src, tree>, in ascending id.
  // A broadcast packet arriving at `at` is forwarded to each returned node.
  Hops<NodeId> children(NodeId at, NodeId src, int tree) const {
    return {entry(at, src, tree), ranked_to_.data() + rank_offset_[at], degree(at)};
  }
  // The links to those children, in the same order. Where parallel links
  // join `at` to a child, the lowest-port one (Topology::find_link's).
  Hops<LinkId> child_links(NodeId at, NodeId src, int tree) const {
    return {entry(at, src, tree), ranked_.data() + rank_offset_[at], degree(at)};
  }

  // Tree height: the broadcast time in hops. Every node sits at its BFS
  // distance from the source (Topology::distance).
  int height(NodeId src, int tree) const { return height_[tree_index(src, tree)]; }

  // Total traffic of one broadcast: (n - 1) tree edges, each carrying one
  // 16-byte packet ("with a 512-node rack, each broadcast results in 8 KB
  // of total traffic, aggregated across all rack links").
  std::size_t bytes_per_broadcast() const {
    return (topo_.num_nodes() - 1) * kBroadcastPacketBytes;
  }

 private:
  std::size_t tree_index(NodeId src, int tree) const {
    return static_cast<std::size_t>(src) * static_cast<std::size_t>(trees_per_source_) +
           static_cast<std::size_t>(tree);
  }
  const std::uint8_t* entry(NodeId at, NodeId src, int tree) const {
    return masks_.data() + (tree_index(src, tree) * topo_.num_nodes() + at) * entry_bytes_;
  }
  std::uint32_t degree(NodeId at) const { return rank_offset_[at + 1] - rank_offset_[at]; }

  const Topology& topo_;
  int trees_per_source_;
  // The FIB: one port mask of entry_bytes_ = ceil(max_degree / 8) bytes per
  // (source, tree, node), entry ((src * trees + tree) * n + node). Bit r
  // marks the node's r-th out-link in ranked_.
  std::size_t entry_bytes_;
  std::vector<std::uint8_t> masks_;
  // Each node's out-links in rank order (ascending neighbour id, ties in
  // port order) and the neighbours they lead to; node u's start at
  // rank_offset_[u].
  std::vector<LinkId> ranked_;
  std::vector<NodeId> ranked_to_;
  std::vector<std::uint32_t> rank_offset_;
  std::vector<std::uint16_t> height_;  // per (source, tree)
};

}  // namespace r2c2
