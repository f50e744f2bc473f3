#include "broadcast/broadcast.h"

#include <algorithm>
#include <stdexcept>

namespace r2c2 {

BroadcastTrees::BroadcastTrees(const Topology& topo, int trees_per_source)
    : topo_(topo), trees_per_source_(trees_per_source) {
  if (!topo.finalized()) throw std::logic_error("topology must be finalized");
  if (trees_per_source < 1) throw std::invalid_argument("need at least one tree per source");
  const std::size_t n = topo.num_nodes();
  trees_.resize(n * static_cast<std::size_t>(trees_per_source));

  // One BFS scratch serves every tree: depth (kUnreached until reached),
  // parent, a flat FIFO queue (each node enters it at most once) and the
  // CSR fill cursors.
  constexpr std::uint16_t kUnreached = 0xffff;
  std::vector<std::uint16_t> depth(n);
  std::vector<NodeId> parent(n);
  std::vector<NodeId> queue(n);
  std::vector<std::uint32_t> cursor(n);
  for (NodeId src = 0; src < n; ++src) {
    for (int t = 0; t < trees_per_source; ++t) {
      Tree& tree = trees_[static_cast<std::size_t>(src) * trees_per_source_ + t];
      std::fill(depth.begin(), depth.end(), kUnreached);
      std::fill(parent.begin(), parent.end(), kInvalidNode);
      // BFS with neighbor order rotated by the tree id: different trees
      // attach nodes through different parents, spreading forwarding load.
      queue[0] = src;
      depth[src] = 0;
      std::size_t tail = 1;
      for (std::size_t head = 0; head < tail; ++head) {
        const NodeId u = queue[head];
        const auto out = topo.out_links(u);
        const std::size_t deg = out.size();
        for (std::size_t i = 0; i < deg; ++i) {
          const std::size_t j = (i + static_cast<std::size_t>(t)) % deg;
          const NodeId v = topo.link(out[j]).to;
          if (depth[v] == kUnreached) {
            depth[v] = static_cast<std::uint16_t>(depth[u] + 1);
            parent[v] = u;
            queue[tail++] = v;
          }
        }
      }
      // BFS reaches nodes in depth order, so the last one is the deepest.
      // Unreachable nodes (possible when the topology carries failed,
      // isolated nodes) never enter the queue and do not count.
      tree.height = depth[queue[tail - 1]];
      // Build CSR children lists from the parent array.
      tree.child_offset.assign(n + 1, 0);
      for (NodeId v = 0; v < n; ++v) {
        if (parent[v] != kInvalidNode) ++tree.child_offset[parent[v] + 1];
      }
      for (std::size_t i = 0; i < n; ++i) tree.child_offset[i + 1] += tree.child_offset[i];
      tree.child_nodes.assign(tree.child_offset[n], kInvalidNode);
      std::copy(tree.child_offset.begin(), tree.child_offset.end() - 1, cursor.begin());
      for (NodeId v = 0; v < n; ++v) {
        if (parent[v] != kInvalidNode) tree.child_nodes[cursor[parent[v]]++] = v;
      }
    }
  }
}

std::span<const NodeId> BroadcastTrees::children(NodeId at, NodeId src, int t) const {
  const Tree& tr = tree(src, t);
  return {tr.child_nodes.data() + tr.child_offset[at], tr.child_offset[at + 1] - tr.child_offset[at]};
}

int BroadcastTrees::height(NodeId src, int t) const { return tree(src, t).height; }

}  // namespace r2c2
