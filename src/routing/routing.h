// Routing protocols for direct-connect rack topologies (Section 2.2.1).
//
// Every protocol has two duties:
//  1. Data plane: pick the path for one packet (pick_path). The sender
//     encodes this path into the packet header; intermediate nodes only
//     follow it (source routing, Section 3.5).
//  2. Control plane: report the flow-level split of traffic across links
//     (link_weights). R2C2's key insight (Section 3.3) is that the routing
//     protocol dictates a flow's relative rate across its paths, so rate
//     allocation can be done per-flow using these per-link fractions.
//
// Implemented protocols:
//  - kRps: randomized packet spraying [22] — per hop, uniformly pick one of
//    the shortest-path next hops.
//  - kDor: destination-tag / dimension-order routing [20] — deterministic
//    minimal path, dimensions corrected in a fixed order.
//  - kVlb: Valiant load balancing [45] — route minimally to a uniformly
//    random intermediate node, then minimally to the destination.
//  - kWlb: weighted load balancing [44] — per-dimension direction chosen
//    randomly, biased toward the shorter way in proportion to path length.
//  - kEcmp: single shortest path chosen by a hash of the flow id; used by
//    the TCP baseline (Section 5.2).
//
// Spray bias: a caller steers the randomized walks with one per-link bias
// (SprayBias); the Router knows no other rule for weighing candidates.
//
// Threading model: a Router is an immutable shared read structure; any
// number of threads may pick paths and read weights at once (the GA's
// evaluator lanes, the simulator's engine lanes, concurrent sweeps).
//
// One cache: the flow-id-independent sprayed algorithms (kRps, kVlb, kWlb)
// keep their weight entries in one tile cache (the ScaleStore caching
// idiom). An entry is derived on first touch and CAS-published into a
// fixed-shape (src, dst) tile; the tile directory and its LRU list live
// behind a mutex, and the resident tiles are bounded by a byte budget
// (TileConfig). Readers pin tiles with shared ownership, so eviction never
// invalidates an in-flight read, and an evicted entry re-derives to the
// identical value later (derivations are pure). kVlb entries average 2n
// kRps phases, which they read in place from pinned kRps tiles. kDor and
// kEcmp route a flow on a single path, so their weights are walked per
// call and need no cache: the Router allocates nothing of size n^2.
//
// Reference contract: every link_weights reference is a thread-local
// buffer, valid until the calling thread's next link_weights query (every
// in-repo caller consumes the weights immediately).
//
// The default budget (512 MiB) holds the paper's 512-node rack's full
// kRps table (about 350 MB) plus its kVlb working set: the GA over that
// rack reads every kRps entry while warming its kVlb choices, and a
// smaller budget would evict and re-derive kRps entries during set-up.
// Larger racks stay bounded by the same budget.
#pragma once

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <span>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "common/types.h"
#include "topology/topology.h"

namespace r2c2 {

class ThreadPool;

enum class RouteAlg : std::uint8_t {
  kRps = 0,
  kDor = 1,
  kVlb = 2,
  kWlb = 3,
  kEcmp = 4,
};
inline constexpr int kNumRouteAlgs = 5;

std::string_view to_string(RouteAlg alg);

// A path as a sequence of nodes, including source and destination.
using Path = std::vector<NodeId>;

// Fraction of a flow's total rate crossing a directed link. Fractions out
// of the source sum to 1 and are conserved at intermediate nodes; a
// fraction can exceed contributions of 1 only summed over multiple flows.
struct LinkFraction {
  LinkId link = kInvalidLink;
  double fraction = 0.0;
  // Fractions are positive and finite, so equal ones are bit-identical.
  bool operator==(const LinkFraction&) const = default;
};
using LinkWeights = std::vector<LinkFraction>;

// Per-link spray bias for the randomized walks (kRps, both kVlb phases,
// and kWlb's non-grid fallback), indexed by the router's own LinkId and
// owned by the caller (the Router never stores it, which keeps it an
// immutable shared read structure). A candidate next hop over link l is
// drawn with weight 1 / (1 + bias[l]) instead of uniformly; a link past
// the end of the span weighs 1. A biased link still carries traffic, just
// proportionally less. A hop where every candidate's bias is zero makes
// the same single uniform RNG draw as the unbiased walk, so an empty or
// all-zero bias is bit-identical to the base data plane.
using SprayBias = std::span<const double>;

class Router {
 public:
  // Budget for the weight cache. tile_shape is the tile edge in nodes (a
  // tile covers tile_shape x tile_shape (src, dst) pairs of one algorithm);
  // max_resident_bytes bounds the resident entries + slot arrays across
  // kRps, kVlb and kWlb. The most recently touched tile is never evicted,
  // so the effective floor is one tile.
  struct TileConfig {
    std::size_t tile_shape = 64;
    std::uint64_t max_resident_bytes = std::uint64_t{512} << 20;  // 512 MiB
  };
  struct TileStats {
    std::uint64_t resident_bytes = 0;  // slot arrays + published entries
    std::uint64_t resident_tiles = 0;
    std::uint64_t evictions = 0;  // tiles dropped by the LRU budget
    std::uint64_t hits = 0;       // cache reads served from a published slot
    std::uint64_t misses = 0;     // cache reads that derived the entry
  };

  explicit Router(const Topology& topo);
  Router(const Topology& topo, TileConfig tiles);

  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  const Topology& topology() const { return topo_; }

  // Picks the path for one packet. `flow` is only used by kEcmp (the path
  // is a pure function of the flow id). Thread-safe given a per-caller rng.
  Path pick_path(RouteAlg alg, NodeId src, NodeId dst, Rng& rng, FlowId flow = 0) const;
  // Allocation-free variant: writes the path into `out` (reusing its
  // capacity); per-hop working state lives in thread-local scratch. `bias`
  // steers the randomized walks (see SprayBias); the deterministic
  // algorithms (kDor, kEcmp) and kWlb's per-dimension direction choice on
  // grids ignore it.
  void pick_path_into(RouteAlg alg, NodeId src, NodeId dst, Rng& rng, Path& out,
                      FlowId flow = 0, const SprayBias& bias = {}) const;

  // Expected fraction of the flow's rate on each directed link it uses.
  // kRps/kVlb/kWlb entries come from the tile cache, kDor/kEcmp entries
  // from a per-call walk of their single path (kEcmp's is keyed by flow).
  // The reference is valid until the calling thread's next link_weights
  // query (see the header comment).
  const LinkWeights& link_weights(RouteAlg alg, NodeId src, NodeId dst, FlowId flow = 0) const;

  // Expected path length in hops = sum of all link fractions.
  double expected_hops(RouteAlg alg, NodeId src, NodeId dst, FlowId flow = 0) const;

  // Eagerly derives every (src, dst) weight entry of a cached algorithm —
  // across `pool` when given — so subsequent link_weights calls are cache
  // hits. No-op for kDor and kEcmp (walked per call) and for entries
  // already resident. The warm proceeds tile-major (each tile fills
  // completely before the next is touched) and stays subject to the LRU
  // budget: a full warm of a table larger than the budget leaves only the
  // most recent tiles resident.
  void precompute(RouteAlg alg, ThreadPool* pool = nullptr) const;

  // Live occupancy of the weight cache (thread-safe).
  TileStats tile_stats() const;

 private:
  // A fixed-shape block of one algorithm's (src, dst) weight matrix.
  // Tiles are shared-owned: a reader holding a Tile pointer keeps it valid
  // even if the LRU drops it from the directory mid-read.
  struct Tile;
  using TilePtr = std::shared_ptr<Tile>;
  // Cache reads of one query, added to the shared counters once.
  struct ReadCounts {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
  };

  std::uint64_t tile_key(RouteAlg alg, NodeId src, NodeId dst) const;
  TilePtr acquire_tile(std::uint64_t key) const;
  // The (src, dst) entry of the pinned tile `key`, derived and published
  // on first touch; valid while the caller holds `tile`.
  const LinkWeights& read_slot(const TilePtr& tile, std::uint64_t key, RouteAlg alg, NodeId src,
                               NodeId dst, ReadCounts& counts) const;
  void count(const ReadCounts& counts) const;
  void evict_over_budget_locked() const;

  LinkWeights compute_weights(RouteAlg alg, NodeId src, NodeId dst) const;
  LinkWeights rps_weights(NodeId src, NodeId dst) const;
  LinkWeights vlb_weights(NodeId src, NodeId dst) const;
  LinkWeights wlb_weights(NodeId src, NodeId dst) const;

  // Path builders append the walk from the last node already in `path`.
  // Spray: per hop, one of the shortest-path next hops, drawn uniformly or
  // per `bias` (see SprayBias).
  void rps_walk(Path& path, NodeId to, Rng& rng, const SprayBias& bias) const;
  void dor_walk(Path& path, NodeId to) const;
  void wlb_walk(Path& path, NodeId to, Rng& rng) const;

  // Appends the dimension-order walk from `at` to `dst` (grids only),
  // correcting dimensions in index order; `dir` gives the step direction
  // per dimension (+1/-1), pre-chosen by the caller.
  void walk_dims(Path& path, std::span<const int> from_coords, std::span<const int> to_coords,
                 std::span<const int> dir) const;
  // Direction of the shorter way around dimension `k` from a to b (+1/-1).
  // An exact tie (b is k/2 away) is broken by a deterministic hash of
  // (src, dst, dim): per-pair stable, balanced across pairs — matching the
  // balanced tie-breaking assumed by the classic throughput analyses [20].
  // For meshes the direction is forced.
  int minimal_direction(int a, int b, int k, bool wraps, NodeId src, NodeId dst, int dim) const;

  const Topology& topo_;
  TileConfig tile_config_;
  mutable std::mutex tile_mu_;  // guards the directory, LRU list and byte accounts
  mutable std::unordered_map<std::uint64_t, TilePtr> tiles_;
  mutable std::list<std::uint64_t> tile_lru_;  // front = most recently used
  mutable std::uint64_t tile_bytes_ = 0;       // resident slot arrays + entries
  mutable std::uint64_t tile_evictions_ = 0;
  mutable std::atomic<std::uint64_t> tile_hits_{0};
  mutable std::atomic<std::uint64_t> tile_misses_{0};
};

}  // namespace r2c2
