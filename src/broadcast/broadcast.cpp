#include "broadcast/broadcast.h"

#include <stdexcept>

namespace r2c2 {

BroadcastTrees::BroadcastTrees(const Topology& topo, int trees_per_source)
    : topo_(topo), trees_per_source_(trees_per_source) {
  if (!topo.finalized()) throw std::logic_error("topology must be finalized");
  if (trees_per_source < 1) throw std::invalid_argument("need at least one tree per source");
  const std::size_t n = topo.num_nodes();
  entry_bytes_ = (static_cast<std::size_t>(topo.max_degree()) + 7) / 8;

  // Rank each node's out-links by neighbour id, ties by port. A hop to
  // neighbour v sets the bit of the lowest-ranked (lowest-port) link to v,
  // whose rank is the number of out-links to lower ids, so parallel links
  // share one bit. hop[] lists each node's out-links in port order as
  // (neighbour, bit), indexed like ranked_.
  struct Hop {
    NodeId to;
    std::uint32_t bit;
  };
  std::vector<Hop> hop(topo.num_links());
  ranked_.resize(topo.num_links());
  ranked_to_.resize(topo.num_links());
  rank_offset_.assign(n + 1, 0);
  for (NodeId u = 0; u < n; ++u) {
    const auto out = topo.out_links(u);
    const std::uint32_t first = rank_offset_[u];
    rank_offset_[u + 1] = first + static_cast<std::uint32_t>(out.size());
    for (std::uint32_t p = 0; p < out.size(); ++p) {
      const NodeId v = topo.link(out[p]).to;
      std::uint32_t lower = 0, ties = 0;  // links to lower ids; to v on lower ports
      for (std::uint32_t q = 0; q < out.size(); ++q) {
        const NodeId w = topo.link(out[q]).to;
        lower += w < v;
        ties += w == v && q < p;
      }
      ranked_[first + lower + ties] = out[p];
      ranked_to_[first + lower + ties] = v;
      hop[first + p] = {v, lower};
    }
  }

  // One BFS per tree over a flat FIFO queue (each node enters it at most
  // once); seen[v] holds the index + 1 of the last tree that reached v.
  masks_.assign(n * n * static_cast<std::size_t>(trees_per_source) * entry_bytes_, 0);
  height_.resize(n * static_cast<std::size_t>(trees_per_source));
  std::vector<std::uint32_t> seen(n, 0);
  std::vector<NodeId> queue(n);
  for (NodeId src = 0; src < n; ++src) {
    for (int t = 0; t < trees_per_source; ++t) {
      const std::size_t index = tree_index(src, t);
      const auto stamp = static_cast<std::uint32_t>(index + 1);
      std::uint8_t* fib = masks_.data() + index * n * entry_bytes_;
      queue[0] = src;
      seen[src] = stamp;
      std::size_t tail = 1;
      for (std::size_t head = 0; head < tail; ++head) {
        const NodeId u = queue[head];
        const Hop* hops = hop.data() + rank_offset_[u];
        const std::size_t deg = rank_offset_[u + 1] - rank_offset_[u];
        if (deg == 0) continue;
        // Neighbour order rotated by the tree id: different trees attach
        // nodes through different parents, spreading forwarding load.
        std::uint8_t* entry = fib + u * entry_bytes_;
        std::size_t j = static_cast<std::size_t>(t) % deg;
        for (std::size_t i = 0; i < deg; ++i) {
          const Hop h = hops[j];
          if (seen[h.to] != stamp) {
            seen[h.to] = stamp;
            entry[h.bit >> 3] |= static_cast<std::uint8_t>(1u << (h.bit & 7));
            queue[tail++] = h.to;
          }
          if (++j == deg) j = 0;
        }
      }
      // BFS reaches nodes in distance order, so the last one is the
      // deepest. Unreachable nodes (possible when the topology carries
      // failed, isolated nodes) never enter the queue and do not count.
      height_[index] = static_cast<std::uint16_t>(topo.distance(src, queue[tail - 1]));
    }
  }
}

}  // namespace r2c2
