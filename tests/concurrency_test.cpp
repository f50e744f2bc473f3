// Cross-cutting robustness: Router's weight cache under concurrent access
// (the Maze emulator queries it from every node thread; the GA and bench
// sweeps from every pool lane), simulator determinism, and R2C2 running
// atop a small switched Clos (Section 6).
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "common/thread_pool.h"
#include "routing/routing.h"
#include "sim/r2c2_sim.h"
#include "topology/topology.h"

namespace r2c2 {
namespace {

TEST(Concurrency, RouterCacheIsThreadSafe) {
  const Topology topo = make_torus({4, 4, 4}, 10 * kGbps, 100);
  const Router router(topo);
  std::atomic<bool> failed{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(static_cast<std::uint64_t>(t) + 1);
      for (int i = 0; i < 2000; ++i) {
        const NodeId s = static_cast<NodeId>(rng.uniform_int(topo.num_nodes()));
        NodeId d;
        do {
          d = static_cast<NodeId>(rng.uniform_int(topo.num_nodes()));
        } while (d == s);
        const auto alg = static_cast<RouteAlg>(rng.uniform_int(4));
        const LinkWeights& w = router.link_weights(alg, s, d);
        double total_out = 0.0;
        for (const LinkFraction& lf : w) {
          if (topo.link(lf.link).from == s) total_out += lf.fraction;
        }
        // Weights must always be complete and consistent, never a torn
        // half-computed entry.
        if (w.empty() || total_out <= 0.0) failed.store(true);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_FALSE(failed.load());
}

TEST(Concurrency, ConcurrentReadersSeeSameCachedEntry) {
  // Each thread reads through its own thread-local buffer, so the
  // references differ; the entry behind them does not: the same links with
  // bit-identical fractions on every thread.
  const Topology topo = make_torus({4, 4}, 10 * kGbps, 100);
  const Router router(topo);
  std::vector<LinkWeights> seen(8);
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] { seen[static_cast<std::size_t>(t)] =
                                      router.link_weights(RouteAlg::kRps, 1, 14); });
  }
  for (auto& th : threads) th.join();
  ASSERT_FALSE(seen[0].empty());
  for (int t = 1; t < 8; ++t) EXPECT_EQ(seen[static_cast<std::size_t>(t)], seen[0]);
}

TEST(Concurrency, WarmTablesServeStableReferences) {
  // After precompute, link_weights is a cache hit: the entry a thread saw
  // before the concurrent phase is, bit for bit, the entry every thread
  // sees during it (entries are published once, never replaced), while
  // kDor weights are walked per call.
  const Topology topo = make_torus({4, 4, 4}, 10 * kGbps, 100);
  const Router router(topo);
  ThreadPool pool(3);
  router.precompute(RouteAlg::kRps, &pool);
  router.precompute(RouteAlg::kDor, &pool);  // no-op: walked per call

  const LinkWeights before = router.link_weights(RouteAlg::kRps, 3, 60);
  const std::uint64_t misses = router.tile_stats().misses;
  std::atomic<bool> mismatch{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 4000; ++i) {
        if (router.link_weights(RouteAlg::kRps, 3, 60) != before) mismatch.store(true);
        const auto alg = (i % 2 == 0) ? RouteAlg::kRps : RouteAlg::kDor;
        const NodeId s = static_cast<NodeId>(i % topo.num_nodes());
        const NodeId d = static_cast<NodeId>((i * 7 + 1) % topo.num_nodes());
        const LinkWeights& w = router.link_weights(alg, s, d);
        if (s != d && w.empty()) mismatch.store(true);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_FALSE(mismatch.load());
  EXPECT_EQ(router.tile_stats().misses, misses) << "a warm table derived an entry again";
}

TEST(Concurrency, ReadersMatchReferenceWhileTheBudgetEvictsMidRead) {
  // 8 threads read kRps and kVlb through a cache far smaller than their
  // working set, so tiles are evicted under concurrent readers, including
  // the kRps tiles a kVlb derivation has pinned. Every entry must still
  // equal a reference Router's.
  const Topology topo = make_torus({4, 4, 4}, 10 * kGbps, 100);
  const Router tiny(topo, Router::TileConfig{.tile_shape = 4, .max_resident_bytes = 16 * 1024});
  const Router reference(topo);
  const std::size_t n = topo.num_nodes();
  std::vector<LinkWeights> want_rps(n * n), want_vlb(n * n);
  for (NodeId s = 0; s < n; ++s) {
    for (NodeId d = 0; d < n; ++d) {
      want_rps[s * n + d] = reference.link_weights(RouteAlg::kRps, s, d);
      want_vlb[s * n + d] = reference.link_weights(RouteAlg::kVlb, s, d);
    }
  }

  std::atomic<bool> mismatch{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(0x5eed0u + static_cast<std::uint64_t>(t));
      for (int i = 0; i < 200; ++i) {
        const auto s = static_cast<NodeId>(rng.uniform_int(n));
        const auto d = static_cast<NodeId>(rng.uniform_int(n));
        const bool vlb = rng.uniform_int(2) == 1;
        const LinkWeights& w = tiny.link_weights(vlb ? RouteAlg::kVlb : RouteAlg::kRps, s, d);
        if (w != (vlb ? want_vlb : want_rps)[s * n + d]) mismatch.store(true);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_FALSE(mismatch.load());
  const Router::TileStats st = tiny.tile_stats();
  EXPECT_GT(st.evictions, 0u);
  EXPECT_LE(st.resident_bytes, 16u * 1024u);
}

TEST(Concurrency, ConcurrentPathWalksAreSelfConsistent) {
  // pick_path_into from many threads at once (per-thread rng and output
  // buffer, thread-local walk scratch): every returned path must be a
  // valid src -> dst walk over existing links. Covers the kEcmp
  // thread-local weight buffer too.
  const Topology topo = make_torus({4, 4, 4}, 10 * kGbps, 100);
  const Router router(topo);
  std::atomic<bool> bad{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(0x9000u + static_cast<std::uint64_t>(t));
      Path path;
      for (int i = 0; i < 3000; ++i) {
        const NodeId s = static_cast<NodeId>(rng.uniform_int(topo.num_nodes()));
        NodeId d;
        do {
          d = static_cast<NodeId>(rng.uniform_int(topo.num_nodes()));
        } while (d == s);
        const auto alg = static_cast<RouteAlg>(rng.uniform_int(kNumRouteAlgs));
        router.pick_path_into(alg, s, d, rng, path, static_cast<FlowId>(i));
        if (path.front() != s || path.back() != d) bad.store(true);
        for (std::size_t h = 0; h + 1 < path.size(); ++h) {
          if (topo.find_link(path[h], path[h + 1]) == kInvalidLink) bad.store(true);
        }
        const LinkWeights& w = router.link_weights(RouteAlg::kEcmp, s, d, static_cast<FlowId>(i));
        if (w.empty()) bad.store(true);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_FALSE(bad.load());
}

TEST(Determinism, IdenticalSeedsGiveIdenticalRuns) {
  const Topology topo = make_torus({4, 4}, 10 * kGbps, 100);
  const Router router(topo);
  WorkloadConfig wl;
  wl.num_nodes = topo.num_nodes();
  wl.num_flows = 120;
  wl.mean_interarrival = 2 * kNsPerUs;
  const auto flows = generate_poisson_uniform(wl);
  const auto run = [&] {
    sim::R2c2Sim sim(topo, router, {});
    sim.add_flows(flows);
    return sim.run();
  };
  const auto a = run();
  const auto b = run();
  ASSERT_EQ(a.flows.size(), b.flows.size());
  for (std::size_t i = 0; i < a.flows.size(); ++i) {
    EXPECT_EQ(a.flows[i].completed, b.flows[i].completed) << i;
    EXPECT_EQ(a.flows[i].max_reorder_pkts, b.flows[i].max_reorder_pkts) << i;
  }
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.control_bytes_on_wire, b.control_bytes_on_wire);
}

TEST(SwitchedRack, R2c2RunsAtopSmallClos) {
  // Section 6: "it is the scale of rack-scale computers, not the topology,
  // that makes broadcasting efficient". A small folded Clos keeps every
  // switch degree within the 3-bit port encoding, so the full stack —
  // broadcast, rate computation, source routing — runs unchanged.
  const Topology topo = make_folded_clos({.servers_per_leaf = 4,
                                          .num_leaves = 4,
                                          .num_spines = 2,
                                          .bandwidth = 10 * kGbps,
                                          .latency = 100});
  ASSERT_LE(topo.max_degree(), 8);
  const Router router(topo);
  sim::R2c2Sim sim(topo, router, {});
  WorkloadConfig wl;
  wl.num_nodes = 16;  // servers only; switches do not source flows
  wl.num_flows = 60;
  wl.mean_interarrival = 5 * kNsPerUs;
  wl.max_bytes = 128 * 1024;
  sim.add_flows(generate_poisson_uniform(wl));
  const auto m = sim.run();
  for (const auto& f : m.flows) EXPECT_TRUE(f.finished()) << f.id;
  EXPECT_EQ(m.drops, 0u);
}

TEST(SwitchedRack, NoPathDiversityMeansNoReordering) {
  // A two-level Clos has a single path between servers under different
  // leaves through a given spine — spraying across the 2 spines is the
  // only diversity, and flows under the same leaf have exactly one path.
  const Topology topo = make_folded_clos({.servers_per_leaf = 4,
                                          .num_leaves = 4,
                                          .num_spines = 2,
                                          .bandwidth = 10 * kGbps,
                                          .latency = 100});
  const Router router(topo);
  sim::R2c2Sim sim(topo, router, {});
  FlowArrival f;
  f.src = 0;
  f.dst = 1;  // same leaf: one 2-hop path
  f.bytes = 1 << 20;
  sim.add_flows({f});
  const auto m = sim.run();
  ASSERT_TRUE(m.flows[0].finished());
  EXPECT_EQ(m.flows[0].max_reorder_pkts, 0u);
  EXPECT_LE(m.flows[0].throughput_bps(), 9.6e9);  // single path caps at line rate
}

}  // namespace
}  // namespace r2c2
