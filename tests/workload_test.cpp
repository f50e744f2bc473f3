#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "common/stats.h"
#include "workload/generator.h"
#include "workload/patterns.h"

namespace r2c2 {
namespace {

// --- Patterns (Fig. 2 inputs) ---

TEST(Patterns, UniformIsAllOrderedPairs) {
  const Topology t = make_torus({4, 4}, kGbps, 100);
  const auto pairs = pattern_pairs(t, TrafficPattern::kUniform);
  EXPECT_EQ(pairs.size(), 16u * 15);
}

TEST(Patterns, NearestNeighborMatchesDegree) {
  const Topology t = make_torus({4, 4}, kGbps, 100);
  const auto pairs = pattern_pairs(t, TrafficPattern::kNearestNeighbor);
  EXPECT_EQ(pairs.size(), t.num_links());
  for (const auto& [s, d] : pairs) EXPECT_EQ(t.distance(s, d), 1);
}

TEST(Patterns, BitComplementIsInvolutionPermutation) {
  const Topology t = make_torus({8, 8}, kGbps, 100);
  const auto pairs = pattern_pairs(t, TrafficPattern::kBitComplement);
  EXPECT_EQ(pairs.size(), 64u);  // no fixed points for bit complement
  std::map<NodeId, NodeId> map;
  for (const auto& [s, d] : pairs) map[s] = d;
  for (const auto& [s, d] : map) EXPECT_EQ(map.at(d), s);  // self-inverse
}

TEST(Patterns, BitComplementNeedsPowerOfTwo) {
  const Topology t = make_torus({3, 3}, kGbps, 100);
  EXPECT_THROW(pattern_pairs(t, TrafficPattern::kBitComplement), std::invalid_argument);
}

TEST(Patterns, TransposeSwapsCoordinates) {
  const Topology t = make_torus({8, 8}, kGbps, 100);
  const auto pairs = pattern_pairs(t, TrafficPattern::kTranspose);
  EXPECT_EQ(pairs.size(), 64u - 8);  // diagonal idles
  for (const auto& [s, d] : pairs) {
    const auto cs = t.coords_of(s), cd = t.coords_of(d);
    EXPECT_EQ(cs[0], cd[1]);
    EXPECT_EQ(cs[1], cd[0]);
  }
}

TEST(Patterns, TransposeNeedsSquareGrid) {
  const Topology t = make_torus({4, 8}, kGbps, 100);
  EXPECT_THROW(pattern_pairs(t, TrafficPattern::kTranspose), std::invalid_argument);
}

TEST(Patterns, TornadoOffsetsHalfwayMinusOne) {
  const Topology t = make_torus({8, 8}, kGbps, 100);
  const auto pairs = pattern_pairs(t, TrafficPattern::kTornado);
  EXPECT_EQ(pairs.size(), 64u);
  for (const auto& [s, d] : pairs) {
    const auto cs = t.coords_of(s), cd = t.coords_of(d);
    EXPECT_EQ(cd[0], (cs[0] + 3) % 8);
    EXPECT_EQ(cd[1], (cs[1] + 3) % 8);
  }
}

TEST(Patterns, RandomPermutationIsPermutation) {
  const Topology t = make_torus({4, 4, 4}, kGbps, 100);
  Rng rng(5);
  const auto pairs = random_permutation_pairs(t, rng);
  std::set<NodeId> srcs, dsts;
  for (const auto& [s, d] : pairs) {
    EXPECT_NE(s, d);
    EXPECT_TRUE(srcs.insert(s).second);
    EXPECT_TRUE(dsts.insert(d).second);
  }
}

TEST(Patterns, PartialPermutationRespectsLoad) {
  const Topology t = make_torus({8, 8}, kGbps, 100);
  Rng rng(7);
  for (const double load : {0.125, 0.5, 1.0}) {
    const auto pairs = partial_permutation_pairs(t, load, rng);
    EXPECT_NEAR(static_cast<double>(pairs.size()), load * 64.0, 2.0) << load;
    std::set<NodeId> srcs, dsts;
    for (const auto& [s, d] : pairs) {
      EXPECT_NE(s, d);
      EXPECT_TRUE(srcs.insert(s).second) << "duplicate source";
      EXPECT_TRUE(dsts.insert(d).second) << "duplicate destination";
    }
  }
}

TEST(Patterns, PartialPermutationRejectsBadLoad) {
  const Topology t = make_torus({4, 4}, kGbps, 100);
  Rng rng(1);
  EXPECT_THROW(partial_permutation_pairs(t, -0.1, rng), std::invalid_argument);
  EXPECT_THROW(partial_permutation_pairs(t, 1.5, rng), std::invalid_argument);
}

// --- Poisson / Pareto generator (Section 5.2 workload) ---

TEST(Generator, ArrivalsSortedAndPoissonLike) {
  WorkloadConfig cfg;
  cfg.num_nodes = 64;
  cfg.num_flows = 20000;
  cfg.mean_interarrival = 1 * kNsPerUs;
  const auto flows = generate_poisson_uniform(cfg);
  ASSERT_EQ(flows.size(), cfg.num_flows);
  RunningStats gaps;
  for (std::size_t i = 1; i < flows.size(); ++i) {
    ASSERT_GE(flows[i].start, flows[i - 1].start);
    gaps.add(static_cast<double>(flows[i].start - flows[i - 1].start));
  }
  EXPECT_NEAR(gaps.mean(), 1000.0, 30.0);
  // Exponential inter-arrival: stddev ~ mean.
  EXPECT_NEAR(gaps.stddev(), 1000.0, 60.0);
}

TEST(Generator, EndpointsValidAndDistinct) {
  WorkloadConfig cfg;
  cfg.num_nodes = 16;
  cfg.num_flows = 5000;
  for (const auto& f : generate_poisson_uniform(cfg)) {
    EXPECT_LT(f.src, 16);
    EXPECT_LT(f.dst, 16);
    EXPECT_NE(f.src, f.dst);
  }
}

TEST(Generator, ParetoHeavyTailShape) {
  // "95% of the flows are less than 100 KB" (Section 5.2).
  WorkloadConfig cfg;
  cfg.num_nodes = 16;
  cfg.num_flows = 50000;
  cfg.max_bytes = 0;  // uncapped for the distribution check
  const auto flows = generate_poisson_uniform(cfg);
  std::size_t below = 0;
  for (const auto& f : flows) below += (f.bytes < 100 * 1024);
  EXPECT_GT(static_cast<double>(below) / static_cast<double>(flows.size()), 0.93);
}

TEST(Generator, SizeCapsApply) {
  WorkloadConfig cfg;
  cfg.num_nodes = 16;
  cfg.num_flows = 20000;
  cfg.max_bytes = 1 << 20;
  for (const auto& f : generate_poisson_uniform(cfg)) {
    EXPECT_GE(f.bytes, kMinFlowBytes);
    EXPECT_LE(f.bytes, 1u << 20);
  }
}

TEST(Generator, UncappedParetoExceedsDefaultCap) {
  // max_bytes = 0 disables the cap entirely: with enough draws the
  // Pareto(1.05) tail must produce flows past the default 30 MB ceiling,
  // and the floor still applies.
  WorkloadConfig cfg;
  cfg.num_nodes = 16;
  cfg.num_flows = 200000;
  cfg.max_bytes = 0;
  std::uint64_t largest = 0;
  for (const auto& f : generate_poisson_uniform(cfg)) {
    EXPECT_GE(f.bytes, kMinFlowBytes);
    largest = std::max(largest, f.bytes);
  }
  EXPECT_GT(largest, 30ull << 20);
}

TEST(Generator, MinAboveMeanStillHonored) {
  // A mean below the floor is unusual but legal: every Pareto draw below
  // the floor clamps up, so all sizes land in [kMinFlowBytes, max_bytes]
  // even though kMinFlowBytes > mean_bytes.
  WorkloadConfig cfg;
  cfg.num_nodes = 16;
  cfg.num_flows = 5000;
  cfg.mean_bytes = 16.0;
  cfg.max_bytes = 1 << 20;
  std::size_t at_floor = 0;
  for (const auto& f : generate_poisson_uniform(cfg)) {
    EXPECT_GE(f.bytes, kMinFlowBytes);
    EXPECT_LE(f.bytes, cfg.max_bytes);
    at_floor += (f.bytes == kMinFlowBytes);
  }
  // With the mean far below the floor, the overwhelming majority clamp.
  EXPECT_GT(static_cast<double>(at_floor) / 5000.0, 0.9);
}

TEST(Generator, Deterministic) {
  WorkloadConfig cfg;
  cfg.num_nodes = 16;
  cfg.num_flows = 100;
  const auto a = generate_poisson_uniform(cfg);
  const auto b = generate_poisson_uniform(cfg);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].start, b[i].start);
    EXPECT_EQ(a[i].src, b[i].src);
    EXPECT_EQ(a[i].bytes, b[i].bytes);
  }
}

TEST(Generator, ExactStreamDeterminism) {
  // Two identically-seeded generators must agree on *every* field of
  // *every* arrival — not just the spot-checked ones. Any hidden
  // nondeterminism (iteration order, uninitialized fields) breaks the
  // snapshot/replay machinery downstream.
  WorkloadConfig cfg;
  cfg.num_nodes = 32;
  cfg.num_flows = 10000;
  cfg.seed = 97;
  const auto a = generate_poisson_uniform(cfg);
  const auto b = generate_poisson_uniform(cfg);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].start, b[i].start) << i;
    EXPECT_EQ(a[i].src, b[i].src) << i;
    EXPECT_EQ(a[i].dst, b[i].dst) << i;
    EXPECT_EQ(a[i].bytes, b[i].bytes) << i;
    EXPECT_EQ(a[i].weight, b[i].weight) << i;
    EXPECT_EQ(a[i].priority, b[i].priority) << i;
    EXPECT_EQ(a[i].alg, b[i].alg) << i;
  }
  // A different seed must actually change the stream.
  cfg.seed = 98;
  const auto c = generate_poisson_uniform(cfg);
  bool differs = false;
  for (std::size_t i = 0; i < a.size() && !differs; ++i) {
    differs = a[i].start != c[i].start || a[i].bytes != c[i].bytes;
  }
  EXPECT_TRUE(differs);
}

TEST(Generator, RejectsTooFewNodes) {
  WorkloadConfig cfg;
  cfg.num_nodes = 1;
  EXPECT_THROW(generate_poisson_uniform(cfg), std::invalid_argument);
}

TEST(TwoClass, ByteFractionHonored) {
  // Fig. 9's knob: the fraction of bytes carried by small flows.
  for (const double frac : {0.05, 0.25, 0.5}) {
    TwoClassConfig cfg;
    cfg.num_nodes = 64;
    cfg.small_byte_fraction = frac;
    cfg.total_bytes = 4ull << 30;
    const auto flows = generate_two_class(cfg);
    std::uint64_t small = 0, total = 0;
    for (const auto& f : flows) {
      total += f.bytes;
      if (f.bytes == cfg.small_bytes) small += f.bytes;
    }
    EXPECT_NEAR(static_cast<double>(small) / static_cast<double>(total), frac, 0.02) << frac;
  }
}

TEST(TwoClass, SmallFlowsDominateCount) {
  // 5% of bytes in 10 KB flows still means the vast majority of *flows*
  // are small — the datacenter regime [25].
  TwoClassConfig cfg;
  cfg.num_nodes = 64;
  cfg.small_byte_fraction = 0.05;
  const auto flows = generate_two_class(cfg);
  std::size_t small = 0;
  for (const auto& f : flows) small += (f.bytes == cfg.small_bytes);
  EXPECT_GT(static_cast<double>(small) / static_cast<double>(flows.size()), 0.9);
}

TEST(TwoClass, RejectsBadFraction) {
  TwoClassConfig cfg;
  cfg.num_nodes = 4;
  cfg.small_byte_fraction = 1.2;
  EXPECT_THROW(generate_two_class(cfg), std::invalid_argument);
}

}  // namespace
}  // namespace r2c2
