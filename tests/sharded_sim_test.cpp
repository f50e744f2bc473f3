// Full-stack determinism tests for the sharded parallel event engine.
//
// The contract under test: for a fixed shard count, the worker count is
// pure parallelism — digest trails, RunMetrics and snapshot archives are
// bit-identical at any worker count. The shard count itself is part of the
// trajectory and therefore of the config fingerprint.
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "routing/routing.h"
#include "sim/r2c2_sim.h"
#include "snapshot/archive.h"
#include "snapshot/replay.h"
#include "topology/topology.h"

namespace r2c2 {
namespace {

snapshot::ReplayConfig sharded_config(int shards, int workers) {
  snapshot::ReplayConfig rc;
  rc.scenario = "fault";  // chaos faults + corruption + reliable transport
  rc.engine_shards = shards;
  rc.engine_workers = workers;
  return rc;
}

TEST(ShardedSim, WorkerCountIsBitInvisible) {
  snapshot::Scenario base(sharded_config(4, 1));
  const snapshot::ReplayResult want = base.run();
  ASSERT_FALSE(want.digests.points.empty());
  for (const int workers : {2, 4}) {
    snapshot::Scenario sc(sharded_config(4, workers));
    const snapshot::ReplayResult got = sc.run();
    EXPECT_EQ(snapshot::divergence(want, got), "") << workers << " workers";
  }
}

TEST(ShardedSim, SnapshotBytesIdenticalAcrossWorkerCounts) {
  const auto snap_at = [](int workers, TimeNs at) {
    snapshot::Scenario sc(sharded_config(4, workers));
    sc.simulator().run_until(at);
    snapshot::ArchiveWriter w;
    sc.simulator().save(w);
    return w.finish();
  };
  const std::vector<std::uint8_t> base = snap_at(1, 300 * kNsPerUs);
  EXPECT_EQ(base, snap_at(2, 300 * kNsPerUs));
  EXPECT_EQ(base, snap_at(4, 300 * kNsPerUs));
}

TEST(ShardedSim, ResumeUnderDifferentWorkerCount) {
  // Snapshot mid-run at 1 worker, resume at 4 workers: the resumed run
  // must reproduce the straight run's digests past the snapshot, its final
  // state and its metrics.
  snapshot::Scenario straight(sharded_config(4, 1));
  const snapshot::ReplayResult want = straight.run();

  snapshot::Scenario first(sharded_config(4, 1));
  first.simulator().run_until(200 * kNsPerUs);
  snapshot::ArchiveWriter w;
  first.simulator().save(w);
  std::vector<std::uint8_t> bytes = w.finish();

  snapshot::Scenario resumed(sharded_config(4, 4));
  snapshot::ArchiveReader r(std::move(bytes));
  resumed.simulator().load(r);
  EXPECT_EQ(snapshot::divergence(want, resumed.run(), 200 * kNsPerUs), "");
}

TEST(ShardedSim, ShardedRequiresPeriodicRecompute) {
  const Topology topo = make_torus({4, 4}, 10 * kGbps, 100);
  const Router router(topo);
  sim::R2c2SimConfig cfg;
  cfg.engine_shards = 2;
  cfg.recompute_interval = 0;  // per-event recomputation is global-only
  EXPECT_THROW(sim::R2c2Sim(topo, router, cfg), std::logic_error);
}

TEST(ShardedSim, RejectsShardCountsBeyondTheLaneTag) {
  // 128 nodes: make_shard_plan accepts 127 shards, but event keys and
  // broadcast ids carry the lane in 7 bits, which holds kMaxShards + 1
  // lanes (the shards plus the global lane).
  const Topology topo = make_torus({8, 16}, 10 * kGbps, 100);
  const Router router(topo);
  sim::R2c2SimConfig cfg;
  cfg.engine_shards = sim::Engine::kMaxShards + 1;
  EXPECT_THROW(sim::R2c2Sim(topo, router, cfg), std::invalid_argument);
  cfg.engine_shards = sim::Engine::kMaxShards;
  EXPECT_NO_THROW(sim::R2c2Sim(topo, router, cfg));
}

TEST(ShardedSim, ShardCountEntersFingerprintWorkerCountDoesNot) {
  const Topology topo = make_torus({4, 4}, 10 * kGbps, 100);
  const Router router(topo);
  sim::R2c2SimConfig serial;
  sim::R2c2SimConfig sharded = serial;
  sharded.engine_shards = 4;
  sim::R2c2SimConfig sharded_mt = sharded;
  sharded_mt.engine_workers = 4;
  const sim::R2c2Sim a(topo, router, serial);
  const sim::R2c2Sim b(topo, router, sharded);
  const sim::R2c2Sim c(topo, router, sharded_mt);
  EXPECT_NE(a.config_fingerprint(), b.config_fingerprint());
  EXPECT_EQ(b.config_fingerprint(), c.config_fingerprint());
}

}  // namespace
}  // namespace r2c2
