#include "routing/routing.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <unordered_map>

#include "common/thread_pool.h"

namespace r2c2 {

std::string_view to_string(RouteAlg alg) {
  switch (alg) {
    case RouteAlg::kRps: return "RPS";
    case RouteAlg::kDor: return "DOR";
    case RouteAlg::kVlb: return "VLB";
    case RouteAlg::kWlb: return "WLB";
    case RouteAlg::kEcmp: return "ECMP";
  }
  return "?";
}

namespace {

// Per-thread scratch for the path walkers: next-hop candidates and grid
// coordinates. Thread-local so pick_path_into allocates nothing once each
// calling thread is warm, with no sharing between threads.
thread_local std::vector<NodeId> t_next;
thread_local std::vector<int> t_from;
thread_local std::vector<int> t_to;
thread_local std::vector<int> t_dir;

std::uint64_t ecmp_seed(NodeId src, NodeId dst, FlowId flow) {
  // The path is a pure hash of (flow, src, dst): TCP needs all packets of a
  // flow on one path, and different flows between the same endpoints should
  // spread over different shortest paths (Section 5.2).
  return (static_cast<std::uint64_t>(flow) << 32) | (static_cast<std::uint64_t>(src) << 16) | dst;
}

std::uint64_t entry_bytes_of(const LinkWeights& w) {
  return sizeof(LinkWeights) + w.capacity() * sizeof(LinkFraction);
}

}  // namespace

// A fixed-shape block of the (src, dst) weight matrix for one algorithm.
// Each slot is CAS-published once; the tile's byte account (slot array +
// published entries) is maintained under the Router's tile mutex so the
// global LRU budget stays exact.
struct Router::Tile {
  explicit Tile(std::size_t slots_) : slots(slots_) {}
  ~Tile() {
    for (auto& slot : slots) delete slot.load(std::memory_order_relaxed);
  }
  std::vector<std::atomic<const LinkWeights*>> slots;
  std::uint64_t bytes = 0;  // guarded by Router::tile_mu_
  std::list<std::uint64_t>::iterator lru_it;
};

Router::Router(const Topology& topo) : Router(topo, TileConfig{}) {}

Router::Router(const Topology& topo, TileConfig tiles) : topo_(topo), tile_config_(tiles) {
  if (tile_config_.tile_shape == 0) tile_config_.tile_shape = 1;
}

Path Router::pick_path(RouteAlg alg, NodeId src, NodeId dst, Rng& rng, FlowId flow) const {
  Path out;
  pick_path_into(alg, src, dst, rng, out, flow);
  return out;
}

void Router::pick_path_into(RouteAlg alg, NodeId src, NodeId dst, Rng& rng, Path& out,
                            FlowId flow, const SprayBias& bias) const {
  out.clear();
  out.push_back(src);
  if (src == dst) return;
  switch (alg) {
    case RouteAlg::kRps:
      rps_walk(out, dst, rng, bias);
      return;
    case RouteAlg::kDor:
      dor_walk(out, dst);
      return;
    case RouteAlg::kVlb: {
      // Valiant: minimal route to a uniformly random waypoint, then minimal
      // to the destination. Each phase sprays across the shortest-path DAG
      // (like RPS) so the load spreads over all of a node's ports rather
      // than concentrating on the first dimension as DOR phases would.
      const NodeId mid = static_cast<NodeId>(rng.uniform_int(topo_.num_nodes()));
      if (mid != src) rps_walk(out, mid, rng, bias);
      if (mid != dst) rps_walk(out, dst, rng, bias);
      return;
    }
    case RouteAlg::kWlb:
      // WLB's per-dimension direction choice has no per-link alternative to
      // reweight (each combo is a fixed staircase); non-grid fallback sprays.
      if (topo_.grid()) {
        wlb_walk(out, dst, rng);
      } else {
        rps_walk(out, dst, rng, bias);
      }
      return;
    case RouteAlg::kEcmp: {
      std::uint64_t seed = ecmp_seed(src, dst, flow);
      Rng path_rng(splitmix64(seed));
      rps_walk(out, dst, path_rng, {});  // path is a pure flow hash; never biased
      return;
    }
  }
  throw std::invalid_argument("unknown routing algorithm");
}

const LinkWeights& Router::link_weights(RouteAlg alg, NodeId src, NodeId dst, FlowId flow) const {
  static thread_local LinkWeights weights;
  switch (alg) {
    case RouteAlg::kRps:
    case RouteAlg::kVlb:
    case RouteAlg::kWlb: {
      // Tiles are evictable, so the entry is copied out while its tile is
      // pinned.
      const std::uint64_t key = tile_key(alg, src, dst);
      const TilePtr tile = acquire_tile(key);
      ReadCounts counts;
      weights = read_slot(tile, key, alg, src, dst, counts);
      count(counts);
      return weights;
    }
    case RouteAlg::kDor:
    case RouteAlg::kEcmp: {
      // One path per flow: walk it (no rng draws) and give each hop the
      // whole rate. No lock, no steady-state allocation.
      static thread_local Path path;
      Rng unused;
      pick_path_into(alg, src, dst, unused, path, flow);
      weights.clear();
      for (std::size_t i = 0; i + 1 < path.size(); ++i) {
        const LinkId link = topo_.find_link(path[i], path[i + 1]);
        assert(link != kInvalidLink);
        weights.push_back({link, 1.0});
      }
      return weights;
    }
  }
  throw std::invalid_argument("unknown routing algorithm");
}

// --- Weight cache ---

// Tile directory key: algorithm in the top bits, then the tile's row and
// column in the (src, dst) grid (24 bits each bound n <= 16M nodes).
std::uint64_t Router::tile_key(RouteAlg alg, NodeId src, NodeId dst) const {
  const std::uint64_t shape = tile_config_.tile_shape;
  return (static_cast<std::uint64_t>(alg) << 48) | (src / shape << 24) | dst / shape;
}

Router::TilePtr Router::acquire_tile(std::uint64_t key) const {
  const std::size_t shape = tile_config_.tile_shape;
  std::lock_guard<std::mutex> lock(tile_mu_);
  auto it = tiles_.find(key);
  if (it != tiles_.end()) {
    tile_lru_.splice(tile_lru_.begin(), tile_lru_, it->second->lru_it);
    return it->second;
  }
  auto tile = std::make_shared<Tile>(shape * shape);
  tile->bytes = shape * shape * sizeof(std::atomic<const LinkWeights*>);
  tile_lru_.push_front(key);
  tile->lru_it = tile_lru_.begin();
  tiles_.emplace(key, tile);
  tile_bytes_ += tile->bytes;
  evict_over_budget_locked();
  return tile;
}

// Drops least-recently-used tiles until the byte budget holds, never the
// most recently used one, which the caller has just touched (the budget
// floor is one tile). Readers that pinned a dropped tile finish safely on
// their shared ownership; the tile's entries die with the last reference.
void Router::evict_over_budget_locked() const {
  while (tile_bytes_ > tile_config_.max_resident_bytes && tile_lru_.size() > 1) {
    auto it = tiles_.find(tile_lru_.back());
    assert(it != tiles_.end());
    tile_bytes_ -= it->second->bytes;
    tiles_.erase(it);
    tile_lru_.pop_back();
    ++tile_evictions_;
  }
}

const LinkWeights& Router::read_slot(const TilePtr& tile, std::uint64_t key, RouteAlg alg,
                                     NodeId src, NodeId dst, ReadCounts& counts) const {
  const std::size_t shape = tile_config_.tile_shape;
  auto& slot = tile->slots[(static_cast<std::size_t>(src) % shape) * shape +
                           static_cast<std::size_t>(dst) % shape];
  if (const LinkWeights* w = slot.load(std::memory_order_acquire)) {
    ++counts.hits;
    return *w;
  }
  ++counts.misses;
  // First touch: derive outside the lock (kVlb recurses into kRps tiles)
  // and CAS-publish. A racing thread derives the identical entry; exactly
  // one wins, the loser's copy is dropped.
  auto* fresh = new LinkWeights(compute_weights(alg, src, dst));
  const LinkWeights* expected = nullptr;
  if (!slot.compare_exchange_strong(expected, fresh, std::memory_order_release,
                                    std::memory_order_acquire)) {
    delete fresh;
    return *expected;
  }
  std::lock_guard<std::mutex> lock(tile_mu_);
  // Account the entry only while its tile is still resident: if the LRU
  // dropped the tile during the derivation, the entry dies with the last
  // pin and must not leak into the global byte count. A kVlb derivation
  // touched other tiles meanwhile, so the tile moves to the front again.
  auto it = tiles_.find(key);
  if (it != tiles_.end() && it->second == tile) {
    tile_lru_.splice(tile_lru_.begin(), tile_lru_, tile->lru_it);
    tile->bytes += entry_bytes_of(*fresh);
    tile_bytes_ += entry_bytes_of(*fresh);
    evict_over_budget_locked();
  }
  return *fresh;
}

void Router::count(const ReadCounts& counts) const {
  tile_hits_.fetch_add(counts.hits, std::memory_order_relaxed);
  tile_misses_.fetch_add(counts.misses, std::memory_order_relaxed);
}

Router::TileStats Router::tile_stats() const {
  TileStats s;
  {
    std::lock_guard<std::mutex> lock(tile_mu_);
    s.resident_bytes = tile_bytes_;
    s.resident_tiles = tiles_.size();
    s.evictions = tile_evictions_;
  }
  s.hits = tile_hits_.load(std::memory_order_relaxed);
  s.misses = tile_misses_.load(std::memory_order_relaxed);
  return s;
}

double Router::expected_hops(RouteAlg alg, NodeId src, NodeId dst, FlowId flow) const {
  double hops = 0.0;
  for (const LinkFraction& lf : link_weights(alg, src, dst, flow)) hops += lf.fraction;
  return hops;
}

void Router::precompute(RouteAlg alg, ThreadPool* pool) const {
  if (alg == RouteAlg::kDor || alg == RouteAlg::kEcmp) return;  // walked per call
  // Tile-major warm: fill each tile completely before touching the next,
  // so a warm larger than the LRU budget streams through the cache instead
  // of thrashing partially-filled tiles.
  const std::size_t n = topo_.num_nodes();
  const std::size_t shape = tile_config_.tile_shape;
  const std::size_t tiles_per_side = (n + shape - 1) / shape;
  const auto fill_tile = [&](std::size_t tile_idx) {
    const std::size_t row = (tile_idx / tiles_per_side) * shape;
    const std::size_t col = (tile_idx % tiles_per_side) * shape;
    for (std::size_t src = row; src < std::min(row + shape, n); ++src) {
      for (std::size_t dst = col; dst < std::min(col + shape, n); ++dst) {
        link_weights(alg, static_cast<NodeId>(src), static_cast<NodeId>(dst));
      }
    }
  };
  const std::size_t total = tiles_per_side * tiles_per_side;
  if (pool != nullptr && pool->workers() > 0) {
    pool->parallel_for(total, [&](std::size_t t, int) { fill_tile(t); });
  } else {
    for (std::size_t t = 0; t < total; ++t) fill_tile(t);
  }
}

LinkWeights Router::compute_weights(RouteAlg alg, NodeId src, NodeId dst) const {
  if (src == dst) return {};
  if (alg == RouteAlg::kRps) return rps_weights(src, dst);
  if (alg == RouteAlg::kVlb) return vlb_weights(src, dst);
  assert(alg == RouteAlg::kWlb);  // kDor and kEcmp are walked per call
  return wlb_weights(src, dst);
}

// --- Paths ---

void Router::rps_walk(Path& path, NodeId to, Rng& rng, const SprayBias& bias) const {
  thread_local std::vector<double> t_weight;
  NodeId at = path.back();
  while (at != to) {
    topo_.min_next_hops(at, to, t_next);
    assert(!t_next.empty());
    double total = 0.0;
    bool biased = false;
    if (!bias.empty()) {
      t_weight.resize(t_next.size());
      for (std::size_t i = 0; i < t_next.size(); ++i) {
        const LinkId link = topo_.find_link(at, t_next[i]);
        const double b = link < bias.size() ? bias[link] : 0.0;
        biased = biased || b > 0.0;
        t_weight[i] = 1.0 / (1.0 + b);
        total += t_weight[i];
      }
    }
    if (!biased) {
      // The uniform draw: bias-free hops (and whole unbiased runs) stay
      // bit-identical to the base data plane.
      at = t_next[rng.uniform_int(t_next.size())];
    } else {
      double u = rng.uniform() * total;
      std::size_t pick = t_next.size() - 1;
      for (std::size_t i = 0; i < t_next.size(); ++i) {
        u -= t_weight[i];
        if (u < 0.0) {
          pick = i;
          break;
        }
      }
      at = t_next[pick];
    }
    path.push_back(at);
  }
}

int Router::minimal_direction(int a, int b, int k, bool wraps, NodeId src, NodeId dst,
                              int dim) const {
  if (!wraps) return b > a ? 1 : -1;
  const int fwd = ((b - a) % k + k) % k;  // hops going +1
  const int bwd = k - fwd;                // hops going -1
  if (fwd != bwd) return fwd < bwd ? 1 : -1;
  // Exact tie: stable per (src, dst, dim), balanced across pairs.
  std::uint64_t seed = (static_cast<std::uint64_t>(src) << 32) |
                       (static_cast<std::uint64_t>(dst) << 8) | static_cast<std::uint64_t>(dim);
  return (splitmix64(seed) & 1) ? 1 : -1;
}

void Router::walk_dims(Path& path, std::span<const int> from_coords, std::span<const int> to_coords,
                       std::span<const int> dir) const {
  const auto& grid = *topo_.grid();
  // Own cursor (callers pass spans over t_from/t_to; don't alias them).
  thread_local std::vector<int> at;
  at.assign(from_coords.begin(), from_coords.end());
  for (std::size_t i = 0; i < grid.dims.size(); ++i) {
    const int k = grid.dims[i];
    while (at[i] != to_coords[i]) {
      at[i] = ((at[i] + dir[i]) % k + k) % k;
      path.push_back(topo_.node_at(at));
    }
  }
}

void Router::dor_walk(Path& path, NodeId to) const {
  const NodeId from = path.back();
  if (from == to) return;
  if (topo_.grid()) {
    const auto& grid = *topo_.grid();
    topo_.coords_into(from, t_from);
    topo_.coords_into(to, t_to);
    t_dir.assign(grid.dims.size(), 1);
    for (std::size_t i = 0; i < grid.dims.size(); ++i) {
      if (t_from[i] != t_to[i]) {
        t_dir[i] = minimal_direction(t_from[i], t_to[i], grid.dims[i], grid.wraps, from, to,
                                     static_cast<int>(i));
      }
    }
    // walk_dims mutates t_from as its cursor; it copies first, so passing
    // t_from as the from-coords is safe.
    walk_dims(path, t_from, t_to, t_dir);
    return;
  }
  // General graphs: deterministic minimal walk picking the lowest-id next
  // hop. Used for Clos and custom topologies.
  NodeId at = from;
  while (at != to) {
    topo_.min_next_hops(at, to, t_next);
    assert(!t_next.empty());
    at = *std::min_element(t_next.begin(), t_next.end());
    path.push_back(at);
  }
}

void Router::wlb_walk(Path& path, NodeId to, Rng& rng) const {
  const NodeId from = path.back();
  if (!topo_.grid()) {  // WLB is grid-specific
    rps_walk(path, to, rng, {});
    return;
  }
  const auto& grid = *topo_.grid();
  topo_.coords_into(from, t_from);
  topo_.coords_into(to, t_to);
  t_dir.assign(grid.dims.size(), 1);
  for (std::size_t i = 0; i < grid.dims.size(); ++i) {
    const int k = grid.dims[i];
    if (t_from[i] == t_to[i]) continue;
    if (!grid.wraps || k <= 2) {
      t_dir[i] = minimal_direction(t_from[i], t_to[i], k, grid.wraps, from, to,
                                   static_cast<int>(i));
      continue;
    }
    // Choose the direction with probability proportional to the *other*
    // direction's length: the short way around is picked (k - delta)/k of
    // the time [44]. This biases toward minimal paths in proportion to the
    // detour cost while still spreading load over non-minimal paths.
    const int fwd = ((t_to[i] - t_from[i]) % k + k) % k;
    const double p_fwd = static_cast<double>(k - fwd) / static_cast<double>(k);
    t_dir[i] = rng.bernoulli(p_fwd) ? 1 : -1;
  }
  walk_dims(path, t_from, t_to, t_dir);
}

// --- Flow-level link weights ---

LinkWeights Router::rps_weights(NodeId src, NodeId dst) const {
  // Probability mass propagation over the shortest-path DAG. At each node,
  // RPS picks uniformly among next hops, so a node's arrival probability
  // splits equally across its DAG out-edges — mirroring the data plane
  // exactly (cf. Fig. 3: the two 2-hop paths each carry half the flow).
  const int total = topo_.distance(src, dst);
  std::vector<std::vector<NodeId>> by_depth(static_cast<std::size_t>(total) + 1);
  std::vector<double> prob(topo_.num_nodes(), 0.0);
  std::vector<bool> queued(topo_.num_nodes(), false);
  by_depth[0].push_back(src);
  queued[src] = true;
  prob[src] = 1.0;

  std::unordered_map<LinkId, double> edge_mass;
  std::vector<NodeId> next;
  for (int depth = 0; depth < total; ++depth) {
    for (const NodeId u : by_depth[static_cast<std::size_t>(depth)]) {
      topo_.min_next_hops(u, dst, next);
      const double share = prob[u] / static_cast<double>(next.size());
      for (const NodeId v : next) {
        const LinkId link = topo_.find_link(u, v);
        edge_mass[link] += share;
        prob[v] += share;
        if (!queued[v]) {
          queued[v] = true;
          by_depth[static_cast<std::size_t>(depth) + 1].push_back(v);
        }
      }
    }
  }
  LinkWeights weights;
  weights.reserve(edge_mass.size());
  for (const auto& [link, mass] : edge_mass) weights.push_back({link, mass});
  return weights;
}

LinkWeights Router::vlb_weights(NodeId src, NodeId dst) const {
  // Uniform average over intermediate nodes of the two RPS-sprayed minimal
  // phases (mirrors the VLB path walk exactly). The 2n kRps phases are read
  // in place: per tile-wide block of waypoints, the two kRps tiles holding
  // (src, mid) and (mid, dst) are pinned once.
  const std::size_t n = topo_.num_nodes();
  const std::size_t shape = tile_config_.tile_shape;
  const double share = 1.0 / static_cast<double>(n);
  std::unordered_map<LinkId, double> edge_mass;
  ReadCounts counts;
  const auto add_phase = [&](const TilePtr& tile, std::uint64_t key, NodeId a, NodeId b) {
    if (a == b) return;
    for (const LinkFraction& lf : read_slot(tile, key, RouteAlg::kRps, a, b, counts)) {
      edge_mass[lf.link] += share * lf.fraction;
    }
  };
  for (std::size_t block = 0; block < n; block += shape) {
    const auto first = static_cast<NodeId>(block);
    const std::uint64_t out_key = tile_key(RouteAlg::kRps, src, first);
    const std::uint64_t in_key = tile_key(RouteAlg::kRps, first, dst);
    const TilePtr out = acquire_tile(out_key);
    const TilePtr in = acquire_tile(in_key);
    for (NodeId mid = first; mid < std::min(block + shape, n); ++mid) {
      add_phase(out, out_key, src, mid);
      add_phase(in, in_key, mid, dst);
    }
  }
  count(counts);
  LinkWeights weights;
  weights.reserve(edge_mass.size());
  for (const auto& [link, mass] : edge_mass) weights.push_back({link, mass});
  return weights;
}

LinkWeights Router::wlb_weights(NodeId src, NodeId dst) const {
  if (!topo_.grid()) return rps_weights(src, dst);
  const auto& grid = *topo_.grid();
  const auto from = topo_.coords_of(src);
  const auto to = topo_.coords_of(dst);
  const std::size_t ndims = grid.dims.size();

  // Per-dimension direction probabilities, then enumerate all direction
  // combinations (at most 2^ndims deterministic paths).
  std::vector<double> p_fwd(ndims, 1.0);
  std::vector<bool> free_dim(ndims, false);
  for (std::size_t i = 0; i < ndims; ++i) {
    const int k = grid.dims[i];
    if (from[i] == to[i]) continue;
    if (!grid.wraps || k <= 2) {
      p_fwd[i] = minimal_direction(from[i], to[i], k, grid.wraps, src, dst, static_cast<int>(i)) > 0 ? 1.0 : 0.0;
      continue;
    }
    const int fwd = ((to[i] - from[i]) % k + k) % k;
    p_fwd[i] = static_cast<double>(k - fwd) / static_cast<double>(k);
    free_dim[i] = true;
  }

  std::unordered_map<LinkId, double> edge_mass;
  std::vector<int> dir(ndims, 1);
  const std::size_t combos = std::size_t{1} << ndims;
  for (std::size_t mask = 0; mask < combos; ++mask) {
    double p = 1.0;
    bool valid = true;
    for (std::size_t i = 0; i < ndims; ++i) {
      const bool forward = !(mask & (std::size_t{1} << i));
      dir[i] = forward ? 1 : -1;
      const double pi = forward ? p_fwd[i] : 1.0 - p_fwd[i];
      if (!free_dim[i] && !forward && p_fwd[i] == 1.0) {
        valid = false;  // forced-forward dimension; skip the mirrored combo
        break;
      }
      if (!free_dim[i] && forward && p_fwd[i] == 0.0) {
        valid = false;
        break;
      }
      p *= pi;
    }
    if (!valid || p == 0.0) continue;
    Path path{src};
    walk_dims(path, from, to, dir);
    for (std::size_t i = 0; i + 1 < path.size(); ++i) {
      edge_mass[topo_.find_link(path[i], path[i + 1])] += p;
    }
  }
  LinkWeights weights;
  weights.reserve(edge_mass.size());
  for (const auto& [link, mass] : edge_mass) weights.push_back({link, mass});
  return weights;
}

}  // namespace r2c2
