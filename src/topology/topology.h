// Rack network topology: a directed graph of micro-servers connected by
// point-to-point links ("distributed switch" architecture, Section 2.1).
//
// Every physical cable appears as two directed links, one per direction.
// The graph is finalized once after construction; finalize() computes the
// adjacency index and all-pairs hop distances (the rack's topology is
// static, Section 3.3, so eager all-pairs BFS is cheap and done once).
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/types.h"

namespace r2c2 {

struct Link {
  NodeId from = kInvalidNode;
  NodeId to = kInvalidNode;
  Bps bandwidth = 0.0;
  TimeNs latency = 0;  // propagation delay per hop (100-500 ns, Section 2.1)
};

class Topology {
 public:
  Topology() = default;

  // --- Construction (before finalize) ---
  NodeId add_node();
  // Adds a directed link and returns its id. Port order (the 3-bit link
  // selector in the data-packet route field) is the order of insertion.
  LinkId add_link(NodeId from, NodeId to, Bps bandwidth, TimeNs latency);
  // Adds both directions of a cable.
  void add_duplex_link(NodeId a, NodeId b, Bps bandwidth, TimeNs latency);
  // Builds adjacency indices and all-pairs distances. Must be called once
  // after all links are added; accessors below require it.
  void finalize();
  // Variant for degraded topologies with failed nodes: the listed nodes are
  // allowed (required, in fact) to be link-less and unreachable; all other
  // pairs must remain strongly connected or finalize throws. Distances to
  // or from a failed node read as unreachable (0xffff).
  void finalize(std::span<const NodeId> failed_nodes);

  // --- Size ---
  std::size_t num_nodes() const { return num_nodes_; }
  std::size_t num_links() const { return links_.size(); }
  bool finalized() const { return finalized_; }

  // --- Links & adjacency ---
  const Link& link(LinkId id) const { return links_[id]; }
  // Out-links of `n`, in port order. The position of a link in this span is
  // its port number, which the source-routing header encodes in 3 bits.
  std::span<const LinkId> out_links(NodeId n) const;
  int out_degree(NodeId n) const { return static_cast<int>(out_links(n).size()); }
  // Port number of `id` at its source node.
  int port_of(LinkId id) const { return port_of_[id]; }
  LinkId out_link_by_port(NodeId n, int port) const { return out_links(n)[static_cast<std::size_t>(port)]; }
  // Directed link from -> to, or kInvalidLink.
  LinkId find_link(NodeId from, NodeId to) const;
  // The other direction of `id`'s cable, or kInvalidLink for a one-way edge.
  LinkId reverse(LinkId id) const { return find_link(links_[id].to, links_[id].from); }
  // Maximum out-degree across nodes; must be <= 8 for the 3-bit route
  // encoding (Section 4.2).
  int max_degree() const { return max_degree_; }

  // --- Distances (hops) ---
  int distance(NodeId from, NodeId to) const {
    return dist_[static_cast<std::size_t>(from) * num_nodes_ + to];
  }
  std::span<const std::uint16_t> distances_from(NodeId from) const {
    return {dist_.data() + static_cast<std::size_t>(from) * num_nodes_, num_nodes_};
  }
  int diameter() const { return diameter_; }
  double mean_shortest_path_hops() const { return mean_dist_; }
  // Nodes declared failed at finalize time (empty for healthy topologies).
  std::span<const NodeId> failed_nodes() const { return failed_nodes_; }
  bool node_failed(NodeId n) const {
    return std::find(failed_nodes_.begin(), failed_nodes_.end(), n) != failed_nodes_.end();
  }
  // Neighbors of `at` that lie on some shortest path toward `to`
  // (dist(next, to) == dist(at, to) - 1). Empty if at == to.
  void min_next_hops(NodeId at, NodeId to, std::vector<NodeId>& out) const;
  std::vector<NodeId> min_next_hops(NodeId at, NodeId to) const;

  // --- Grid metadata (set by torus/mesh builders) ---
  struct GridMeta {
    std::vector<int> dims;  // e.g. {8, 8, 8} for an 8-ary 3-cube
    bool wraps = false;     // torus (true) vs mesh (false)
  };
  const std::optional<GridMeta>& grid() const { return grid_; }
  void set_grid(GridMeta meta) { grid_ = std::move(meta); }
  std::vector<int> coords_of(NodeId n) const;
  // Allocation-free variant for hot paths: resizes `out` to the grid's
  // dimensionality (no-op once warmed) and fills it in place.
  void coords_into(NodeId n, std::vector<int>& out) const;
  NodeId node_at(std::span<const int> coords) const;

  // Human-readable description ("torus 8x8x8", "mesh 4x4", ...).
  const std::string& name() const { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }

  // Bisection capacity in bps: total bandwidth of directed links crossing
  // the worst-case balanced cut. For grids this cuts the largest dimension
  // in half; for other graphs it falls back to a degree-based bound.
  double bisection_capacity() const;

 private:
  std::size_t num_nodes_ = 0;
  std::vector<Link> links_;
  // CSR-style adjacency over out-links.
  std::vector<LinkId> adj_links_;
  std::vector<std::uint32_t> adj_offset_;
  std::vector<int> port_of_;
  std::vector<std::uint16_t> dist_;
  int diameter_ = 0;
  double mean_dist_ = 0.0;
  int max_degree_ = 0;
  bool finalized_ = false;
  std::vector<NodeId> failed_nodes_;
  std::optional<GridMeta> grid_;
  std::string name_ = "custom";
};

// --- Builders ---

// k-ary n-cube (torus): dims[i] nodes along dimension i, wraparound links.
// A dimension of size 2 gets a single duplex cable (not two parallel ones);
// a dimension of size 1 gets none.
Topology make_torus(std::span<const int> dims, Bps bandwidth, TimeNs latency);
Topology make_torus(std::initializer_list<int> dims, Bps bandwidth, TimeNs latency);

// Mesh: same grid without wraparound.
Topology make_mesh(std::span<const int> dims, Bps bandwidth, TimeNs latency);
Topology make_mesh(std::initializer_list<int> dims, Bps bandwidth, TimeNs latency);

// Two-level folded Clos ("leaf-spine") used by the Section 6 discussion of
// R2C2 atop switched topologies. Nodes [0, servers) are servers; then
// leaves; then spines. Servers attach to one leaf; every leaf attaches to
// every spine.
struct ClosSpec {
  int servers_per_leaf = 16;
  int num_leaves = 32;
  int num_spines = 16;
  Bps bandwidth = 10 * kGbps;
  TimeNs latency = 100;
};
Topology make_folded_clos(const ClosSpec& spec);

// Failure handling (Section 3.2): a copy of `topo` with the given cables
// removed (both directions of each listed link). Node ids are preserved;
// link ids and port numbers are re-assigned. Grid metadata is dropped —
// dimension-order walks cannot assume a complete grid — so the routing
// protocols fall back to their general-graph variants, and broadcast trees
// rebuilt on the result route around the failure. Throws if the removal
// disconnects the rack.
Topology make_degraded(const Topology& topo, std::span<const LinkId> failed_links);

// Generalized degradation: removes the listed cables plus every link
// incident to a failed node. Failed nodes remain in the graph (ids are
// preserved) but are isolated; the surviving nodes must stay strongly
// connected or this throws std::logic_error.
Topology make_degraded(const Topology& topo, std::span<const LinkId> failed_links,
                       std::span<const NodeId> failed_nodes);

// A whole micro-server dies: all of its incident links fail at once
// (Section 3.2 treats node failure exactly this way). Throws if the
// remaining nodes are disconnected by the removal.
Topology fail_node(const Topology& topo, NodeId node);

// The cable between two nodes picked uniformly at random; convenience for
// failure-injection tests and benches.
LinkId random_link(const Topology& topo, Rng& rng);

}  // namespace r2c2
