// Differential testing of the CSR/scratch waterfill fast path against the
// straightforward reference implementation, plus the zero-allocation
// steady-state guarantee and the shared-problem contract (concurrent solves
// of one problem, one problem per GA search).
//
// The fast path reorganizes the computation (CSR rows, lazy residual
// materialization, event heap) but must produce the same rates: every
// scenario here runs both allocators and asserts the rate vectors match to
// 1e-6 relative tolerance.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <thread>
#include <vector>

#include "alloc_counter.h"
#include "common/rng.h"
#include "congestion/waterfill.h"
#include "control/route_selection.h"
#include "routing/routing.h"
#include "topology/topology.h"

namespace r2c2 {
namespace {

constexpr RouteAlg kAllAlgs[] = {RouteAlg::kRps, RouteAlg::kDor, RouteAlg::kVlb, RouteAlg::kWlb,
                                 RouteAlg::kEcmp};

// Randomized flow sets covering the allocator's whole input space: mixed
// priorities and weights, finite / infinite / zero demands, every routing
// protocol, and degenerate src == dst flows.
std::vector<FlowSpec> random_flows(const Topology& topo, Rng& rng, int n) {
  std::vector<FlowSpec> flows;
  flows.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    FlowSpec f;
    f.id = static_cast<FlowId>(i + 1);
    f.src = static_cast<NodeId>(rng.uniform_int(topo.num_nodes()));
    // ~5% degenerate src == dst flows (must get rate 0, not crash).
    f.dst = rng.bernoulli(0.05) ? f.src
                                : static_cast<NodeId>(rng.uniform_int(topo.num_nodes()));
    f.alg = kAllAlgs[rng.uniform_int(5)];
    f.weight = rng.bernoulli(0.03) ? 0.0 : rng.uniform(0.25, 4.0);
    f.priority = static_cast<std::uint8_t>(rng.uniform_int(3));
    if (rng.bernoulli(0.3)) {
      f.demand = rng.bernoulli(0.1) ? 0.0 : rng.uniform(0.1, 12.0) * kGbps;
    } else {
      f.demand = kUnlimitedDemand;
    }
    flows.push_back(f);
  }
  return flows;
}

void expect_rates_match(const std::vector<Bps>& fast, const std::vector<Bps>& ref,
                        const char* context) {
  ASSERT_EQ(fast.size(), ref.size()) << context;
  for (std::size_t i = 0; i < fast.size(); ++i) {
    // 1e-6 relative, with an absolute floor at the solver's saturation
    // band (kEps * bandwidth ~ 10 bps): rates are only defined to that
    // precision, and the reference's incremental residual charging vs the
    // fast path's lazy materialization round differently below it.
    const double tol = std::max(1e-6 * std::abs(ref[i]), 16.0);
    EXPECT_NEAR(fast[i], ref[i], tol) << context << " flow " << i;
  }
}

TEST(WaterfillDiff, RandomizedScenariosMatchReference) {
  const Topology topo = make_torus({4, 4, 4}, 10 * kGbps, 100);
  const Router router(topo);
  Rng rng(20260806);
  for (int round = 0; round < 30; ++round) {
    const int n = 1 + static_cast<int>(rng.uniform_int(120));
    const auto flows = random_flows(topo, rng, n);
    const AllocationConfig cfg{.headroom = rng.bernoulli(0.5) ? 0.05 : 0.0};
    const auto ref = waterfill_reference(router, flows, cfg);
    const auto fast = waterfill(router, flows, cfg);
    expect_rates_match(fast.rate, ref.rate,
                       ("round " + std::to_string(round)).c_str());
  }
}

TEST(WaterfillDiff, MeshAndTinyTopologiesMatchReference) {
  // Meshes (no wraparound) hit the forced-direction WLB/DOR paths; a
  // 2-node ring is the smallest multi-node case.
  Rng rng(99);
  for (const auto& topo : {make_mesh({3, 3}, 5 * kGbps, 100), make_torus({2}, kGbps, 100)}) {
    const Router router(topo);
    for (int round = 0; round < 10; ++round) {
      const auto flows = random_flows(topo, rng, 40);
      const auto ref = waterfill_reference(router, flows, {});
      const auto fast = waterfill(router, flows, {});
      expect_rates_match(fast.rate, ref.rate, "mesh/tiny");
    }
  }
}

TEST(WaterfillDiff, PriorityClassesAndDemandsMatchReference) {
  // Stress the per-class residual carryover: many priority levels, all
  // demand-limited high classes.
  const Topology topo = make_torus({4, 4}, 10 * kGbps, 100);
  const Router router(topo);
  Rng rng(7);
  std::vector<FlowSpec> flows;
  for (int i = 0; i < 64; ++i) {
    FlowSpec f;
    f.id = static_cast<FlowId>(i + 1);
    f.src = static_cast<NodeId>(rng.uniform_int(topo.num_nodes()));
    f.dst = static_cast<NodeId>(rng.uniform_int(topo.num_nodes()));
    f.alg = RouteAlg::kRps;
    f.weight = 0.5 + static_cast<double>(i % 4);
    f.priority = static_cast<std::uint8_t>(i % 6);
    f.demand = (i % 3 == 0) ? rng.uniform(0.05, 2.0) * kGbps : kUnlimitedDemand;
    flows.push_back(f);
  }
  const auto ref = waterfill_reference(router, flows, {.headroom = 0.05});
  const auto fast = waterfill(router, flows, {.headroom = 0.05});
  expect_rates_match(fast.rate, ref.rate, "priorities");
}

void expect_bit_identical(const std::vector<Bps>& got, const std::vector<Bps>& want,
                          const std::string& context) {
  ASSERT_EQ(got.size(), want.size()) << context;
  for (std::size_t j = 0; j < got.size(); ++j) {
    EXPECT_EQ(got[j], want[j]) << context << ", flow " << j;
  }
}

TEST(WaterfillDiff, ChoiceVariantsMatchPerFlowRebuild) {
  // A build_with_choices problem solved with per-flow choices must match
  // the reference on specs whose .alg was edited to the same assignment,
  // and equal that assignment built as a one-choice problem bit for bit.
  const Topology topo = make_torus({4, 4}, 10 * kGbps, 100);
  const Router router(topo);
  Rng rng(21);
  auto flows = random_flows(topo, rng, 50);
  const RouteAlg choices[] = {RouteAlg::kRps, RouteAlg::kVlb, RouteAlg::kDor};

  WaterfillProblem problem;
  problem.build_with_choices(router, flows, choices, {});
  WaterfillScratch scratch;
  RateAllocation out;
  std::vector<std::uint8_t> genes(flows.size());
  for (int round = 0; round < 8; ++round) {
    std::vector<FlowSpec> adjusted = flows;
    for (std::size_t i = 0; i < flows.size(); ++i) {
      genes[i] = static_cast<std::uint8_t>(rng.uniform_int(3));
      adjusted[i].alg = choices[genes[i]];
    }
    waterfill(problem, genes, scratch, out);
    const auto ref = waterfill_reference(router, adjusted, {});
    expect_rates_match(out.rate, ref.rate, "choices");
    expect_bit_identical(out.rate, waterfill(router, adjusted, {}).rate,
                         "round " + std::to_string(round));
  }
  // An empty choice span is choice 0 for every flow.
  for (FlowSpec& f : flows) f.alg = choices[0];
  waterfill(problem, {}, scratch, out);
  expect_bit_identical(out.rate, waterfill(router, flows, {}).rate, "empty choice span");
}

TEST(WaterfillDiff, ConcurrentSolvesOfOneProblemMatchSerial) {
  // One const problem, four threads, each solving its own genotypes at the
  // same time with its own scratch: a solve only reads the problem, so
  // every result equals its serial solve bit for bit.
  const Topology topo = make_torus({4, 4, 4}, 10 * kGbps, 100);
  const Router router(topo);
  Rng rng(31);
  const auto flows = random_flows(topo, rng, 120);
  const RouteAlg choices[] = {RouteAlg::kRps, RouteAlg::kVlb, RouteAlg::kDor};
  WaterfillProblem built;
  built.build_with_choices(router, flows, choices, {.headroom = 0.05});
  const WaterfillProblem& problem = built;

  constexpr int kThreads = 4;
  constexpr int kPerThread = 6;
  std::vector<std::vector<std::uint8_t>> genotypes(kThreads * kPerThread,
                                                   std::vector<std::uint8_t>(flows.size()));
  for (auto& g : genotypes) {
    for (auto& v : g) v = static_cast<std::uint8_t>(rng.uniform_int(3));
  }
  std::vector<std::vector<Bps>> serial(genotypes.size());
  {
    WaterfillScratch scratch;
    RateAllocation out;
    for (std::size_t i = 0; i < genotypes.size(); ++i) {
      waterfill(problem, genotypes[i], scratch, out);
      serial[i] = out.rate;
    }
  }

  std::vector<std::vector<Bps>> concurrent(genotypes.size());
  std::atomic<int> ready{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      WaterfillScratch scratch;
      RateAllocation out;
      ++ready;
      while (ready.load() < kThreads) std::this_thread::yield();
      for (int k = 0; k < kPerThread; ++k) {
        const std::size_t i = static_cast<std::size_t>(t * kPerThread + k);
        waterfill(problem, genotypes[i], scratch, out);
        concurrent[i] = out.rate;
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (std::size_t i = 0; i < genotypes.size(); ++i) {
    expect_bit_identical(concurrent[i], serial[i], "genotype " + std::to_string(i));
  }
}

TEST(WaterfillDiff, GaLanesShareOneProblem) {
  // Every GA lane solves the one problem its search built, so 4 lanes
  // allocate less than one more problem than 1 lane does: only a scratch
  // and a rate buffer per extra lane, plus the pool's threads.
  const Topology topo = make_torus({4, 4, 4}, 10 * kGbps, 100);
  const Router router(topo);
  Rng rng(41);
  const auto flows = random_flows(topo, rng, 200);
  SelectionConfig cfg;
  cfg.population = 16;
  cfg.max_generations = 3;
  WaterfillProblem problem;
  problem.build_with_choices(router, flows, cfg.choices, cfg.alloc);  // warms the router
  // One problem's footprint: the bytes an exact-size copy allocates.
  const std::uint64_t before_copy = test::alloc_bytes();
  const WaterfillProblem copy = problem;
  const std::uint64_t problem_bytes = test::alloc_bytes() - before_copy;
  ASSERT_EQ(copy.num_flows(), flows.size());

  const auto ga_bytes = [&](int threads) {
    cfg.threads = threads;
    const std::uint64_t before = test::alloc_bytes();
    const SelectionResult result = select_routes_ga(router, flows, cfg);
    EXPECT_GT(result.stats.solves, 0u);
    return test::alloc_bytes() - before;
  };
  const std::uint64_t one_lane = ga_bytes(1);
  const std::uint64_t four_lanes = ga_bytes(4);
  EXPECT_LT(four_lanes, one_lane + problem_bytes)
      << "1 lane: " << one_lane << " B, 4 lanes: " << four_lanes
      << " B, one problem: " << problem_bytes << " B";
}

TEST(WaterfillDiff, ScratchReuseIsDeterministic) {
  // Re-solving the same problem with the same (dirty) scratch must be
  // bit-identical, and a fresh scratch must agree too: the scratch carries
  // no problem state between calls.
  const Topology topo = make_torus({4, 4, 4}, 10 * kGbps, 100);
  const Router router(topo);
  Rng rng(5);
  const auto flows = random_flows(topo, rng, 80);
  WaterfillProblem problem;
  problem.build(router, flows, {.headroom = 0.05});

  WaterfillScratch reused;
  RateAllocation first;
  waterfill(problem, reused, first);
  for (int i = 0; i < 5; ++i) {
    RateAllocation again;
    waterfill(problem, reused, again);
    ASSERT_EQ(again.rate.size(), first.rate.size());
    for (std::size_t j = 0; j < first.rate.size(); ++j) {
      EXPECT_EQ(again.rate[j], first.rate[j]) << "reused scratch, flow " << j;
    }
  }
  WaterfillScratch fresh;
  RateAllocation other;
  waterfill(problem, fresh, other);
  for (std::size_t j = 0; j < first.rate.size(); ++j) {
    EXPECT_EQ(other.rate[j], first.rate[j]) << "fresh scratch, flow " << j;
  }
}

TEST(WaterfillDiff, SteadyStateAllocatesNothing) {
  const Topology topo = make_torus({8, 8, 8}, 10 * kGbps, 100);
  const Router router(topo);
  Rng rng(11);
  const auto flows = random_flows(topo, rng, 300);
  WaterfillProblem problem;
  problem.build(router, flows, {.headroom = 0.05});  // also warms the router cache
  WaterfillScratch scratch;
  RateAllocation out;
  waterfill(problem, scratch, out);  // warm-up sizes every scratch vector

  const std::uint64_t before = test::alloc_calls();
  for (int i = 0; i < 20; ++i) waterfill(problem, scratch, out);
  const std::uint64_t after = test::alloc_calls();
  EXPECT_EQ(after - before, 0u) << "waterfill allocated in steady state";

  // Rebuilding the same problem (the periodic-recompute path when the flow
  // set changed shape but not size) must also reuse capacity.
  const std::uint64_t before_rebuild = test::alloc_calls();
  for (int i = 0; i < 5; ++i) {
    problem.build(router, flows, {.headroom = 0.05});
    waterfill(problem, scratch, out);
  }
  const std::uint64_t after_rebuild = test::alloc_calls();
  EXPECT_EQ(after_rebuild - before_rebuild, 0u) << "problem rebuild allocated";
}

}  // namespace
}  // namespace r2c2
