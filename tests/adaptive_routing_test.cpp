// Congestion-aware spraying and the Router's tiled weight cache.
//
// Covers the two router-level contracts the adaptive data plane rests on:
//  - SprayBias semantics on the folded-Clos path: an empty (or all-zero)
//    bias reproduces the unbiased rng stream draw for draw; a bias on one
//    uplink sheds spray from exactly that directed link, proportionally,
//    without removing it, also when the bias is a congestion mark the
//    simulator composed; two biased uplinks split the spray by their
//    weights 1/(1 + bias). (gray_failure_test covers how the simulator
//    composes the bias from gray suspicion and congestion marks.)
//  - The tiled weight cache (kRps, kVlb, kWlb): resident bytes stay within
//    the configured budget under LRU eviction, evicted entries re-derive to
//    identical weights, a kVlb working set makes resident only its own
//    tiles and the kRps tiles its phases read, steady-state reads on a warm
//    working set perform zero heap allocations, and a 4096-node Router
//    allocates no per-pair table and stays within its budget for every
//    algorithm (counted by alloc_counter.h).
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "alloc_counter.h"
#include "common/rng.h"
#include "routing/routing.h"
#include "sim/r2c2_sim.h"
#include "topology/topology.h"

namespace r2c2 {
namespace {

// servers 0..7 (two per leaf), leaves 8..11, spines 12..13.
Topology small_clos() {
  return make_folded_clos({.servers_per_leaf = 2,
                           .num_leaves = 4,
                           .num_spines = 2,
                           .bandwidth = kGbps,
                           .latency = 100});
}

// Fraction of kTrials sprays from src to dst whose path crosses the
// directed edge (from, to).
double edge_share(const Router& router, RouteAlg alg, NodeId src, NodeId dst, NodeId from,
                  NodeId to, const SprayBias& bias, int trials, std::uint64_t seed) {
  Rng rng(seed);
  Path path;
  int through = 0;
  for (int i = 0; i < trials; ++i) {
    router.pick_path_into(alg, src, dst, rng, path, 0, bias);
    for (std::size_t h = 0; h + 1 < path.size(); ++h) {
      if (path[h] == from && path[h + 1] == to) {
        ++through;
        break;
      }
    }
  }
  return static_cast<double>(through) / trials;
}

// --- SprayBias on the folded-Clos path --------------------------------------

TEST(ClosSprayBias, EmptyAndAllZeroBiasMatchBaseDrawForDraw) {
  const Topology topo = small_clos();
  const Router router(topo);
  const std::vector<double> zeros(topo.num_links(), 0.0);

  for (const RouteAlg alg : {RouteAlg::kRps, RouteAlg::kVlb}) {
    Rng base_rng(7), empty_rng(7), zero_rng(7);
    Path base, via_empty, via_zero;
    const SprayBias empty_bias;
    const SprayBias zero_bias(zeros);
    for (int i = 0; i < 300; ++i) {
      const NodeId src = static_cast<NodeId>(i % 8);
      const NodeId dst = static_cast<NodeId>((i * 5 + 2) % 8);
      if (src == dst) continue;
      router.pick_path_into(alg, src, dst, base_rng, base);
      router.pick_path_into(alg, src, dst, empty_rng, via_empty, 0, empty_bias);
      router.pick_path_into(alg, src, dst, zero_rng, via_zero, 0, zero_bias);
      // Bit-identical rng consumption: unbiased runs keep the exact
      // trajectory of the base data plane.
      EXPECT_EQ(base, via_empty) << to_string(alg) << " " << i;
      EXPECT_EQ(base, via_zero) << to_string(alg) << " " << i;
    }
  }
}

TEST(ClosSprayBias, DegradedUplinkShedsSprayAsymmetrically) {
  // The PR 7 gray scenario on the Clos path: one leaf->spine uplink is
  // suspected and demoted. Spray through that directed edge must drop to
  // roughly weight/(weight + 1) of the pair, the sibling spine picks up the
  // slack, and the *reverse* direction (spine->leaf, a different directed
  // link) stays untouched — the bias is asymmetric by construction.
  const Topology topo = small_clos();
  const Router router(topo);
  const NodeId leaf0 = 8, leaf1 = 9, spine0 = 12, spine1 = 13;

  std::vector<double> by_link(topo.num_links(), 0.0);
  by_link[topo.find_link(leaf0, spine0)] = 8.0;  // weight 1/9 vs 1
  const SprayBias bias(by_link);

  const int kTrials = 4000;
  // 0 lives under leaf0, 2 under leaf1: every path is 0,leaf0,spine,leaf1,2.
  const double up_bad = edge_share(router, RouteAlg::kRps, 0, 2, leaf0, spine0, bias, kTrials, 3);
  const double up_good = edge_share(router, RouteAlg::kRps, 0, 2, leaf0, spine1, bias, kTrials, 3);
  EXPECT_LT(up_bad, 0.20);  // fair share 0.5 -> ~0.1
  EXPECT_GT(up_bad, 0.0);   // demoted, not removed
  EXPECT_GT(up_good, 0.80);

  // Reverse flow 2 -> 0 climbs leaf1->spine and descends spine->leaf0; the
  // biased directed link (leaf0->spine0) is never on those paths, so the
  // spine choice stays an unbiased coin flip.
  const double rev_via_spine0 =
      edge_share(router, RouteAlg::kRps, 2, 0, leaf1, spine0, bias, kTrials, 5);
  EXPECT_NEAR(rev_via_spine0, 0.5, 0.05);
}

TEST(ClosSprayBias, CongestionMarkSteersSprayOffHotUplink) {
  // A saturated congestion mark on one uplink, composed by the simulator
  // into the Router's bias span: the walk must shed spray from that link.
  const Topology topo = small_clos();
  const Router router(topo);
  const NodeId leaf0 = 8, spine0 = 12, spine1 = 13;

  const std::vector<char> suspect(topo.num_links(), 0);
  std::vector<double> marks(topo.num_links(), 0.0);
  marks[topo.find_link(leaf0, spine0)] = 1.0;  // saturated EWMA mark
  std::vector<double> by_link;
  sim::compose_spray_bias({}, suspect, marks, 4.0, by_link);  // weight 1/(1+4) vs 1
  const SprayBias bias(by_link);

  const int kTrials = 4000;
  const double hot = edge_share(router, RouteAlg::kRps, 0, 2, leaf0, spine0, bias, kTrials, 9);
  const double cold = edge_share(router, RouteAlg::kRps, 0, 2, leaf0, spine1, bias, kTrials, 9);
  // Expected share 1/6 against the clean sibling's 5/6.
  EXPECT_LT(hot, 0.25);
  EXPECT_GT(hot, 0.05);
  EXPECT_GT(cold, 0.75);
}

TEST(ClosSprayBias, TwoBiasedUplinksSplitByTheirWeights) {
  // Both uplinks biased, unequally: the spray splits per the weights
  // 1/(1+8) vs 1/(1+3), so leaf0->spine0 carries 4/13 of it. Ignoring
  // either bias would read 0.1, 0.8 or 0.5 instead.
  const Topology topo = small_clos();
  const Router router(topo);
  const NodeId leaf0 = 8, spine0 = 12, spine1 = 13;

  std::vector<double> by_link(topo.num_links(), 0.0);
  by_link[topo.find_link(leaf0, spine0)] = 8.0;
  by_link[topo.find_link(leaf0, spine1)] = 3.0;
  const double via0 =
      edge_share(router, RouteAlg::kRps, 0, 2, leaf0, spine0, SprayBias(by_link), 4000, 13);
  EXPECT_NEAR(via0, 4.0 / 13.0, 0.05);
}

// --- Tiled weight cache ---------------------------------------------------

TEST(TiledWeightTable, ResidentBytesStayWithinBudgetAndEvictedEntriesRederive) {
  const Topology topo = make_torus({8, 8}, kGbps, 100);
  // A budget far below the full table: with 8x8 tiles over 64 nodes the
  // full kVlb table spans 64 tiles; 96 KiB holds only a handful.
  const std::uint64_t kBudget = 96 * 1024;
  const Router tiny(topo, Router::TileConfig{.tile_shape = 8, .max_resident_bytes = kBudget});
  const Router reference(topo);

  for (NodeId src = 0; src < topo.num_nodes(); ++src) {
    for (NodeId dst = 0; dst < topo.num_nodes(); ++dst) {
      if (src == dst) continue;
      const LinkWeights got = tiny.link_weights(RouteAlg::kVlb, src, dst);
      const LinkWeights& want = reference.link_weights(RouteAlg::kVlb, src, dst);
      ASSERT_EQ(got.size(), want.size()) << src << "->" << dst;
      for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].link, want[i].link);
        EXPECT_DOUBLE_EQ(got[i].fraction, want[i].fraction);
      }
      // The budget is an invariant, not an end-of-run property (one-tile
      // floor: the most recently touched tile is never evicted).
      const Router::TileStats st = tiny.tile_stats();
      EXPECT_LE(st.resident_bytes, kBudget) << src << "->" << dst;
    }
  }
  const Router::TileStats st = tiny.tile_stats();
  EXPECT_GT(st.evictions, 0u);
  EXPECT_GT(st.resident_tiles, 0u);
}

TEST(TiledWeightTable, WarmTilesTouchesOnlyRequestedTiles) {
  // Regression: precompute(kVlb) used to eagerly warm the *entire* kRps
  // table as a prerequisite. Reading a one-tile kVlb working set must make
  // resident exactly that tile plus the kRps tiles its two phases read:
  // the source's tile row and the destination's tile column.
  const Topology topo = make_torus({8, 8}, kGbps, 100);
  const Router router(topo, Router::TileConfig{.tile_shape = 8});

  for (NodeId src = 0; src < 8; ++src) {
    for (NodeId dst = 8; dst < 16; ++dst) router.link_weights(RouteAlg::kVlb, src, dst);
  }

  // 64 nodes in 8x8 tiles: kRps row 0 and column 1 share tile (0, 1).
  const Router::TileStats st = router.tile_stats();
  EXPECT_EQ(st.resident_tiles, 1u + 8u + 8u - 1u);
  EXPECT_GT(st.resident_bytes, 0u);
  EXPECT_EQ(st.evictions, 0u);
}

TEST(TiledWeightTable, SteadyStateReadsOnWarmWorkingSetDoNotAllocate) {
  const Topology topo = make_torus({8, 8}, kGbps, 100);
  const Router router(topo, Router::TileConfig{.tile_shape = 8});

  std::vector<std::pair<NodeId, NodeId>> working_set;
  for (NodeId src = 0; src < 8; ++src) {
    for (NodeId dst = 8; dst < 16; ++dst) {
      if (src != dst) working_set.push_back({src, dst});
    }
  }
  // One read per pair warms the working set and settles the thread-local
  // copy's capacity at the largest entry in the set.
  double sink = 0.0;
  for (const auto& [src, dst] : working_set) {
    for (const LinkFraction& lf : router.link_weights(RouteAlg::kVlb, src, dst)) {
      sink += lf.fraction;
    }
  }
  const Router::TileStats before = router.tile_stats();

  const test::AllocDelta allocs;
  for (int round = 0; round < 10; ++round) {
    for (const auto& [src, dst] : working_set) {
      for (const LinkFraction& lf : router.link_weights(RouteAlg::kVlb, src, dst)) {
        sink += lf.fraction;
      }
    }
  }
  EXPECT_EQ(allocs.calls(), 0u) << "tiled reads allocated in steady state";
  EXPECT_GT(sink, 0.0);
  const Router::TileStats after = router.tile_stats();
  EXPECT_EQ(after.misses, before.misses) << "warm working set should only hit";
  EXPECT_GT(after.hits, before.hits);
}

TEST(TiledWeightTable, StatsCountHitsAndMisses) {
  const Topology topo = make_torus({4, 4}, kGbps, 100);
  const Router router(topo, Router::TileConfig{.tile_shape = 4});
  EXPECT_EQ(router.tile_stats().resident_tiles, 0u);

  router.link_weights(RouteAlg::kRps, 0, 5);
  Router::TileStats st = router.tile_stats();
  EXPECT_EQ(st.misses, 1u);
  EXPECT_EQ(st.hits, 0u);

  router.link_weights(RouteAlg::kRps, 0, 5);
  st = router.tile_stats();
  EXPECT_EQ(st.misses, 1u);
  EXPECT_EQ(st.hits, 1u);

  // A kVlb miss also counts the kRps phases it reads: (0, mid) and
  // (mid, 5) for the 15 waypoints other than the endpoint, 30 reads of 29
  // distinct pairs, of which only (0, 5) is already resident.
  router.link_weights(RouteAlg::kVlb, 0, 5);
  st = router.tile_stats();
  EXPECT_EQ(st.misses, 1u + 1u + 28u);
  EXPECT_EQ(st.hits, 1u + 2u);
}

TEST(TiledWeightTable, RackScaleRouterStaysWithinBudgetForEveryAlgorithm) {
  // The advertised size: a 16x16x16 torus. Building the Router allocates
  // no per-pair table, and under an 8 MiB budget every algorithm's reads,
  // including two kVlb entries that each average 2n = 8192 kRps phases,
  // keep the cache within budget while matching the default-budget
  // Router's entries bit for bit.
  const Topology topo = make_torus({16, 16, 16}, 10 * kGbps, 500);
  const std::uint64_t kBudget = std::uint64_t{8} << 20;
  const test::AllocDelta allocs;
  auto small = std::make_unique<Router>(topo, Router::TileConfig{.max_resident_bytes = kBudget});
  EXPECT_LT(allocs.bytes(), std::uint64_t{1} << 20);
  const Router reference(topo);

  const auto check = [&](RouteAlg alg, NodeId src, NodeId dst, FlowId flow) {
    const LinkWeights got = small->link_weights(alg, src, dst, flow);
    EXPECT_FALSE(got.empty()) << to_string(alg) << " " << src << "->" << dst;
    EXPECT_EQ(got, reference.link_weights(alg, src, dst, flow))
        << to_string(alg) << " " << src << "->" << dst;
    EXPECT_LE(small->tile_stats().resident_bytes, kBudget)
        << to_string(alg) << " " << src << "->" << dst;
  };
  Rng pick(23);
  const auto n = static_cast<std::uint64_t>(topo.num_nodes());
  for (const RouteAlg alg : {RouteAlg::kRps, RouteAlg::kWlb, RouteAlg::kDor, RouteAlg::kEcmp}) {
    for (FlowId flow = 1; flow <= 64; ++flow) {
      const auto src = static_cast<NodeId>(pick.uniform_int(n));
      const auto dst = static_cast<NodeId>((src + 1 + pick.uniform_int(n - 1)) % n);
      check(alg, src, dst, flow);
    }
    if (alg == RouteAlg::kRps) {
      EXPECT_GT(small->tile_stats().resident_bytes, 0u);
    }
  }
  check(RouteAlg::kVlb, 0, 4095, 0);
  check(RouteAlg::kVlb, 1234, 77, 0);
  EXPECT_GT(small->tile_stats().evictions, 0u);
}

}  // namespace
}  // namespace r2c2
