#include "topology/topology.h"

#include <algorithm>
#include <numeric>
#include <sstream>
#include <stdexcept>

namespace r2c2 {

NodeId Topology::add_node() {
  if (finalized_) throw std::logic_error("add_node after finalize");
  if (num_nodes_ >= kInvalidNode) throw std::length_error("too many nodes");
  return static_cast<NodeId>(num_nodes_++);
}

LinkId Topology::add_link(NodeId from, NodeId to, Bps bandwidth, TimeNs latency) {
  if (finalized_) throw std::logic_error("add_link after finalize");
  if (from >= num_nodes_ || to >= num_nodes_) throw std::out_of_range("link endpoint out of range");
  if (from == to) throw std::invalid_argument("self-link not allowed");
  links_.push_back({from, to, bandwidth, latency});
  return static_cast<LinkId>(links_.size() - 1);
}

void Topology::add_duplex_link(NodeId a, NodeId b, Bps bandwidth, TimeNs latency) {
  add_link(a, b, bandwidth, latency);
  add_link(b, a, bandwidth, latency);
}

void Topology::finalize() { finalize(std::span<const NodeId>{}); }

void Topology::finalize(std::span<const NodeId> failed_nodes) {
  if (finalized_) return;
  failed_nodes_.assign(failed_nodes.begin(), failed_nodes.end());
  std::vector<char> dead(num_nodes_, 0);
  for (const NodeId n : failed_nodes_) {
    if (n >= num_nodes_) throw std::out_of_range("failed node out of range");
    dead[n] = 1;
  }
  for (const Link& l : links_) {
    if (dead[l.from] || dead[l.to]) {
      throw std::logic_error("failed node still has incident links");
    }
  }
  // Build CSR adjacency in insertion (port) order.
  adj_offset_.assign(num_nodes_ + 1, 0);
  for (const Link& l : links_) ++adj_offset_[l.from + 1];
  for (std::size_t n = 0; n < num_nodes_; ++n) adj_offset_[n + 1] += adj_offset_[n];
  adj_links_.assign(links_.size(), kInvalidLink);
  port_of_.assign(links_.size(), 0);
  {
    std::vector<std::uint32_t> cursor(adj_offset_.begin(), adj_offset_.end() - 1);
    for (LinkId id = 0; id < links_.size(); ++id) {
      const NodeId from = links_[id].from;
      const std::uint32_t slot = cursor[from]++;
      adj_links_[slot] = id;
      port_of_[id] = static_cast<int>(slot - adj_offset_[from]);
    }
  }
  max_degree_ = 0;
  for (std::size_t n = 0; n < num_nodes_; ++n) {
    max_degree_ = std::max(max_degree_, static_cast<int>(adj_offset_[n + 1] - adj_offset_[n]));
  }

  // All-pairs BFS hop distances over a flat FIFO queue (each node enters it
  // at most once per source) and each port's neighbour id.
  constexpr std::uint16_t kUnreach = 0xffff;
  dist_.assign(num_nodes_ * num_nodes_, kUnreach);
  std::vector<NodeId> neighbour(adj_links_.size());
  for (std::size_t i = 0; i < adj_links_.size(); ++i) neighbour[i] = links_[adj_links_[i]].to;
  std::vector<NodeId> queue(num_nodes_);
  for (NodeId s = 0; s < num_nodes_; ++s) {
    auto row = dist_.data() + static_cast<std::size_t>(s) * num_nodes_;
    row[s] = 0;
    queue[0] = s;
    std::size_t tail = 1;
    for (std::size_t head = 0; head < tail; ++head) {
      const NodeId u = queue[head];
      const auto du = static_cast<std::uint16_t>(row[u] + 1);
      for (std::uint32_t i = adj_offset_[u]; i < adj_offset_[u + 1]; ++i) {
        const NodeId v = neighbour[i];
        if (row[v] == kUnreach) {
          row[v] = du;
          queue[tail++] = v;
        }
      }
    }
  }
  // Diameter and mean shortest-path length over reachable ordered pairs
  // of live nodes; pairs involving a failed node are expected-unreachable.
  std::uint64_t sum = 0, pairs = 0;
  int diam = 0;
  for (std::size_t i = 0; i < dist_.size(); ++i) {
    const std::uint16_t d = dist_[i];
    if (d == kUnreach) {
      const NodeId from = static_cast<NodeId>(i / num_nodes_);
      const NodeId to = static_cast<NodeId>(i % num_nodes_);
      if (dead[from] || dead[to]) continue;
      throw std::logic_error("topology is not strongly connected");
    }
    if (d > 0) {
      sum += d;
      ++pairs;
      diam = std::max(diam, static_cast<int>(d));
    }
  }
  diameter_ = diam;
  mean_dist_ = pairs ? static_cast<double>(sum) / static_cast<double>(pairs) : 0.0;
  finalized_ = true;
}

std::span<const LinkId> Topology::out_links(NodeId n) const {
  assert(finalized_);
  return {adj_links_.data() + adj_offset_[n], adj_offset_[n + 1] - adj_offset_[n]};
}

LinkId Topology::find_link(NodeId from, NodeId to) const {
  for (LinkId id : out_links(from)) {
    if (links_[id].to == to) return id;
  }
  return kInvalidLink;
}

void Topology::min_next_hops(NodeId at, NodeId to, std::vector<NodeId>& out) const {
  out.clear();
  if (at == to) return;
  const int d = distance(at, to);
  for (LinkId id : out_links(at)) {
    const NodeId v = links_[id].to;
    if (distance(v, to) == d - 1) out.push_back(v);
  }
}

std::vector<NodeId> Topology::min_next_hops(NodeId at, NodeId to) const {
  std::vector<NodeId> out;
  min_next_hops(at, to, out);
  return out;
}

std::vector<int> Topology::coords_of(NodeId n) const {
  std::vector<int> coords;
  coords_into(n, coords);
  return coords;
}

void Topology::coords_into(NodeId n, std::vector<int>& out) const {
  if (!grid_) throw std::logic_error("coords_of on non-grid topology");
  out.resize(grid_->dims.size());
  std::uint32_t rem = n;
  for (std::size_t i = 0; i < grid_->dims.size(); ++i) {
    out[i] = static_cast<int>(rem % static_cast<std::uint32_t>(grid_->dims[i]));
    rem /= static_cast<std::uint32_t>(grid_->dims[i]);
  }
}

NodeId Topology::node_at(std::span<const int> coords) const {
  if (!grid_) throw std::logic_error("node_at on non-grid topology");
  if (coords.size() != grid_->dims.size()) throw std::invalid_argument("coords dimensionality");
  std::uint32_t id = 0;
  for (std::size_t i = coords.size(); i-- > 0;) {
    const int k = grid_->dims[i];
    if (coords[i] < 0 || coords[i] >= k) throw std::out_of_range("coordinate out of range");
    id = id * static_cast<std::uint32_t>(k) + static_cast<std::uint32_t>(coords[i]);
  }
  return static_cast<NodeId>(id);
}

double Topology::bisection_capacity() const {
  if (grid_) {
    // Cut the largest dimension in half; count directed links crossing.
    std::size_t cut_dim = 0;
    for (std::size_t i = 1; i < grid_->dims.size(); ++i) {
      if (grid_->dims[i] > grid_->dims[cut_dim]) cut_dim = i;
    }
    const int k = grid_->dims[cut_dim];
    const int half = k / 2;
    double capacity = 0.0;
    for (const Link& l : links_) {
      const int a = coords_of(l.from)[cut_dim];
      const int b = coords_of(l.to)[cut_dim];
      const bool a_low = a < half, b_low = b < half;
      if (a_low != b_low) capacity += l.bandwidth;
    }
    return capacity;
  }
  // Generic fallback: sum of bandwidth of the min-degree side (upper bound).
  double total = 0.0;
  for (const Link& l : links_) total += l.bandwidth;
  return total / 2.0;
}

namespace {

// Shared grid builder for torus and mesh.
Topology make_grid(std::span<const int> dims, Bps bandwidth, TimeNs latency, bool wrap) {
  if (dims.empty()) throw std::invalid_argument("grid needs at least one dimension");
  std::size_t n = 1;
  for (int k : dims) {
    if (k < 1) throw std::invalid_argument("dimension size must be >= 1");
    n *= static_cast<std::size_t>(k);
  }
  Topology topo;
  for (std::size_t i = 0; i < n; ++i) topo.add_node();
  topo.set_grid({std::vector<int>(dims.begin(), dims.end()), wrap});

  // Strides for converting coords to node ids without the helper (grid meta
  // is already set, but node_at needs finalize-independent data only).
  std::vector<std::size_t> stride(dims.size(), 1);
  for (std::size_t i = 1; i < dims.size(); ++i) {
    stride[i] = stride[i - 1] * static_cast<std::size_t>(dims[i - 1]);
  }

  std::vector<int> coords(dims.size(), 0);
  for (std::size_t id = 0; id < n; ++id) {
    // Decode coords of id.
    std::size_t rem = id;
    for (std::size_t i = 0; i < dims.size(); ++i) {
      coords[i] = static_cast<int>(rem % static_cast<std::size_t>(dims[i]));
      rem /= static_cast<std::size_t>(dims[i]);
    }
    for (std::size_t i = 0; i < dims.size(); ++i) {
      const int k = dims[i];
      if (k == 1) continue;
      // +1 neighbor in dimension i. Each duplex cable is added once, by the
      // lower-coordinate endpoint, so iterate "+1" only.
      if (coords[i] + 1 < k) {
        const NodeId nb = static_cast<NodeId>(id + stride[i]);
        topo.add_duplex_link(static_cast<NodeId>(id), nb, bandwidth, latency);
      } else if (wrap && k > 2) {
        // Wraparound cable, added by the highest-coordinate node. k == 2 is
        // excluded: the "+1" link already connects the only two nodes.
        const NodeId nb = static_cast<NodeId>(id - (static_cast<std::size_t>(k) - 1) * stride[i]);
        topo.add_duplex_link(static_cast<NodeId>(id), nb, bandwidth, latency);
      }
    }
  }
  std::ostringstream name;
  name << (wrap ? "torus" : "mesh") << ' ';
  for (std::size_t i = 0; i < dims.size(); ++i) {
    if (i) name << 'x';
    name << dims[i];
  }
  topo.set_name(name.str());
  topo.finalize();
  return topo;
}

}  // namespace

Topology make_torus(std::span<const int> dims, Bps bandwidth, TimeNs latency) {
  return make_grid(dims, bandwidth, latency, /*wrap=*/true);
}
Topology make_torus(std::initializer_list<int> dims, Bps bandwidth, TimeNs latency) {
  return make_torus(std::span<const int>(dims.begin(), dims.size()), bandwidth, latency);
}

Topology make_mesh(std::span<const int> dims, Bps bandwidth, TimeNs latency) {
  return make_grid(dims, bandwidth, latency, /*wrap=*/false);
}
Topology make_mesh(std::initializer_list<int> dims, Bps bandwidth, TimeNs latency) {
  return make_mesh(std::span<const int>(dims.begin(), dims.size()), bandwidth, latency);
}

Topology make_folded_clos(const ClosSpec& spec) {
  if (spec.servers_per_leaf < 1 || spec.num_leaves < 1 || spec.num_spines < 1) {
    throw std::invalid_argument("clos spec must be positive");
  }
  Topology topo;
  const int servers = spec.servers_per_leaf * spec.num_leaves;
  for (int i = 0; i < servers + spec.num_leaves + spec.num_spines; ++i) topo.add_node();
  const auto leaf_id = [&](int l) { return static_cast<NodeId>(servers + l); };
  const auto spine_id = [&](int s) { return static_cast<NodeId>(servers + spec.num_leaves + s); };
  for (int l = 0; l < spec.num_leaves; ++l) {
    for (int s = 0; s < spec.servers_per_leaf; ++s) {
      topo.add_duplex_link(static_cast<NodeId>(l * spec.servers_per_leaf + s), leaf_id(l),
                           spec.bandwidth, spec.latency);
    }
    for (int s = 0; s < spec.num_spines; ++s) {
      topo.add_duplex_link(leaf_id(l), spine_id(s), spec.bandwidth, spec.latency);
    }
  }
  std::ostringstream name;
  name << "clos " << servers << "s/" << spec.num_leaves << "l/" << spec.num_spines << "sp";
  topo.set_name(name.str());
  topo.finalize();
  return topo;
}

Topology make_degraded(const Topology& topo, std::span<const LinkId> failed_links) {
  return make_degraded(topo, failed_links, std::span<const NodeId>{});
}

Topology make_degraded(const Topology& topo, std::span<const LinkId> failed_links,
                       std::span<const NodeId> failed_nodes) {
  if (!topo.finalized()) throw std::logic_error("topology must be finalized");
  // Collect the failed cables as unordered node pairs (both directions go).
  std::vector<std::pair<NodeId, NodeId>> failed;
  failed.reserve(failed_links.size());
  for (const LinkId id : failed_links) {
    const Link& l = topo.link(id);
    failed.emplace_back(std::min(l.from, l.to), std::max(l.from, l.to));
  }
  const auto is_failed = [&](NodeId a, NodeId b) {
    const auto key = std::make_pair(std::min(a, b), std::max(a, b));
    return std::find(failed.begin(), failed.end(), key) != failed.end();
  };
  std::vector<char> dead(topo.num_nodes(), 0);
  for (const NodeId n : failed_nodes) {
    if (n >= topo.num_nodes()) throw std::out_of_range("failed node out of range");
    dead[n] = 1;
  }

  Topology degraded;
  for (NodeId n = 0; n < topo.num_nodes(); ++n) degraded.add_node();
  for (LinkId id = 0; id < topo.num_links(); ++id) {
    const Link& l = topo.link(id);
    if (dead[l.from] || dead[l.to]) continue;
    if (is_failed(l.from, l.to)) continue;
    degraded.add_link(l.from, l.to, l.bandwidth, l.latency);
  }
  std::ostringstream name;
  name << topo.name() << " (degraded";
  if (!failed.empty()) name << ", -" << failed.size() << " cables";
  if (!failed_nodes.empty()) name << ", -" << failed_nodes.size() << " nodes";
  name << ')';
  degraded.set_name(name.str());
  degraded.finalize(failed_nodes);  // throws if the survivors are disconnected
  return degraded;
}

Topology fail_node(const Topology& topo, NodeId node) {
  return make_degraded(topo, std::span<const LinkId>{}, std::span<const NodeId>(&node, 1));
}

LinkId random_link(const Topology& topo, Rng& rng) {
  return static_cast<LinkId>(rng.uniform_int(topo.num_links()));
}

}  // namespace r2c2
