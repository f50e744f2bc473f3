// Tenant-scale service layer (src/service/): closed-loop archetypes over
// R2c2Sim, per-tenant SLO accounting, and the determinism/snapshot
// contract — closed-loop runs are bit-identical at any engine worker count
// and survive mid-run snapshot/resume.
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "routing/routing.h"
#include "service/service.h"
#include "sim/r2c2_sim.h"
#include "snapshot/archive.h"
#include "snapshot/replay.h"
#include "topology/topology.h"

namespace r2c2 {
namespace {

using service::Archetype;
using service::ArrivalMode;
using service::ServiceConfig;
using service::ServiceLayer;
using service::SloReport;
using service::TenantConfig;

sim::R2c2SimConfig base_sim_config() {
  sim::R2c2SimConfig cfg;
  cfg.seed = 11;
  return cfg;
}

TenantConfig rpc_tenant(std::uint64_t max_requests = 30) {
  TenantConfig t;
  t.name = "rpc";
  t.archetype = Archetype::kRpc;
  t.mode = ArrivalMode::kClosedLoop;
  t.clients = {0, 1};
  t.servers = {2, 3};
  t.outstanding = 2;
  t.max_requests = max_requests;
  return t;
}

void drain(sim::R2c2Sim& s) {
  while (!s.idle()) s.run_until(s.now() + 50 * kNsPerUs);
}

TEST(ServiceLayerTest, ClosedLoopRpcCompletesAllRequests) {
  const Topology topo = make_torus({4, 4}, 10 * kGbps, 100);
  const Router router(topo);
  sim::R2c2Sim s(topo, router, base_sim_config());
  ServiceConfig svc;
  svc.tenants.push_back(rpc_tenant());
  ServiceLayer layer(s, svc);
  layer.start();
  // The closed-loop window bounds in-flight requests at every instant.
  while (!s.idle()) {
    s.run_until(s.now() + 20 * kNsPerUs);
    EXPECT_LE(layer.requests_in_flight(), 2u);
  }
  EXPECT_EQ(layer.issued(0), 30u);
  EXPECT_EQ(layer.completed(0), 30u);
  EXPECT_EQ(layer.timed_out(0), 0u);
  EXPECT_EQ(layer.aborted(0), 0u);
  EXPECT_EQ(layer.requests_in_flight(), 0u);
}

TEST(ServiceLayerTest, IncastFanInAccountsEveryLeaf) {
  const Topology topo = make_torus({4, 4}, 10 * kGbps, 100);
  const Router router(topo);
  sim::R2c2Sim s(topo, router, base_sim_config());
  TenantConfig t;
  t.name = "agg";
  t.archetype = Archetype::kIncast;
  t.clients = {0};
  t.servers = {4, 5, 6, 7};
  t.outstanding = 1;
  t.max_requests = 20;
  t.fanout = 3;
  t.query_bytes = 512;
  t.leaf_response_bytes = 4 * 1024;
  ServiceConfig svc;
  svc.tenants.push_back(t);
  ServiceLayer layer(s, svc);
  layer.start();
  drain(s);
  EXPECT_EQ(layer.completed(0), 20u);
  const SloReport rep = layer.report();
  // Completion = last leaf response: all K legs' bytes count, per request.
  EXPECT_EQ(rep.tenants[0].bytes_delivered, 20u * 3u * (512u + 4u * 1024u));
  EXPECT_GT(rep.tenants[0].p50_us, 0.0);
}

TEST(ServiceLayerTest, StragglerTimeoutAbandonsSlowFanIns) {
  const Topology topo = make_torus({4, 4}, 10 * kGbps, 100);
  const Router router(topo);
  sim::R2c2Sim s(topo, router, base_sim_config());
  TenantConfig t;
  t.name = "agg";
  t.archetype = Archetype::kIncast;
  t.clients = {0};
  t.servers = {4, 5, 6, 7};
  t.outstanding = 2;
  t.max_requests = 15;
  t.fanout = 4;
  t.leaf_response_bytes = 16 * 1024;
  // Far too short for a 16 KB fan-in: every request must time out, and the
  // closed loop must keep issuing through the timeouts.
  t.straggler_timeout = 2 * kNsPerUs;
  ServiceConfig svc;
  svc.tenants.push_back(t);
  ServiceLayer layer(s, svc);
  layer.start();
  drain(s);
  EXPECT_EQ(layer.issued(0), 15u);
  EXPECT_EQ(layer.timed_out(0) + layer.completed(0), 15u);
  EXPECT_GT(layer.timed_out(0), 0u);
  const SloReport rep = layer.report();
  // A timed-out request is an SLO violation by definition.
  EXPECT_GT(rep.tenants[0].slo_violation_fraction, 0.0);
}

TEST(ServiceLayerTest, StorageShiftAndOpenLoopDrainCompletely) {
  const Topology topo = make_torus({4, 4}, 10 * kGbps, 100);
  const Router router(topo);
  sim::R2c2Sim s(topo, router, base_sim_config());
  TenantConfig t;
  t.name = "kv";
  t.archetype = Archetype::kStorage;
  t.mode = ArrivalMode::kOpenLoop;
  t.clients = {0, 1};
  t.servers = {8, 9, 10, 11};
  t.mean_interarrival = 5 * kNsPerUs;
  t.max_requests = 40;
  t.shift_at = 60 * kNsPerUs;  // mid-run popularity/write-mix shift
  t.write_fraction = 0.0;
  t.shifted_write_fraction = 1.0;
  ServiceConfig svc;
  svc.tenants.push_back(t);
  ServiceLayer layer(s, svc);
  layer.start();
  drain(s);
  EXPECT_EQ(layer.issued(0), 40u);
  EXPECT_EQ(layer.completed(0), 40u);
  EXPECT_EQ(layer.requests_in_flight(), 0u);
}

TEST(ServiceLayerTest, ReportOrdersPercentilesAndBoundsFairness) {
  const Topology topo = make_torus({4, 4}, 10 * kGbps, 100);
  const Router router(topo);
  sim::R2c2Sim s(topo, router, base_sim_config());
  ServiceConfig svc;
  svc.tenants.push_back(rpc_tenant(25));
  TenantConfig second = rpc_tenant(25);
  second.name = "rpc2";
  second.clients = {8, 9};
  second.servers = {10, 11};
  second.response_bytes = 64 * 1024;  // heavier responses: unequal goodput
  svc.tenants.push_back(second);
  ServiceLayer layer(s, svc);
  layer.start();
  drain(s);
  const SloReport rep = layer.report();
  ASSERT_EQ(rep.tenants.size(), 2u);
  for (const auto& tr : rep.tenants) {
    EXPECT_EQ(tr.completed, 25u);
    EXPECT_LE(tr.p50_us, tr.p99_us);
    EXPECT_LE(tr.p99_us, tr.p999_us);
    EXPECT_GE(tr.slo_violation_fraction, 0.0);
    EXPECT_LE(tr.slo_violation_fraction, 1.0);
    EXPECT_GT(tr.goodput_bps, 0.0);
  }
  EXPECT_GT(rep.jain_fairness, 0.5);  // two active tenants, both finishing
  EXPECT_LE(rep.jain_fairness, 1.0);
  // The heavier tenant moved more bytes, so fairness is strictly below 1.
  EXPECT_LT(rep.jain_fairness, 1.0);
}

TEST(ServiceLayerTest, RejectsUnusableConfigs) {
  const Topology topo = make_torus({4, 4}, 10 * kGbps, 100);
  const Router router(topo);
  sim::R2c2Sim s(topo, router, base_sim_config());
  EXPECT_THROW(ServiceLayer(s, ServiceConfig{}), std::invalid_argument);
  {
    ServiceConfig svc;
    TenantConfig t = rpc_tenant();
    t.clients.clear();
    svc.tenants.push_back(t);
    EXPECT_THROW(ServiceLayer(s, svc), std::invalid_argument);
  }
  {
    ServiceConfig svc;
    TenantConfig t = rpc_tenant();
    t.archetype = Archetype::kStorage;
    t.zipf_theta = 1.0;  // closed form requires theta < 1
    svc.tenants.push_back(t);
    EXPECT_THROW(ServiceLayer(s, svc), std::invalid_argument);
  }
  {
    ServiceConfig svc;
    TenantConfig t = rpc_tenant();
    t.outstanding = 0;
    svc.tenants.push_back(t);
    EXPECT_THROW(ServiceLayer(s, svc), std::invalid_argument);
  }
}

TEST(ServiceLayerTest, TenantMixEntersConfigFingerprint) {
  const Topology topo = make_torus({4, 4}, 10 * kGbps, 100);
  const Router router(topo);
  sim::R2c2Sim plain(topo, router, base_sim_config());
  const std::uint64_t bare = plain.config_fingerprint();

  sim::R2c2Sim with_a(topo, router, base_sim_config());
  ServiceConfig svc_a;
  svc_a.tenants.push_back(rpc_tenant());
  ServiceLayer layer_a(with_a, svc_a);

  sim::R2c2Sim with_b(topo, router, base_sim_config());
  ServiceConfig svc_b = svc_a;
  svc_b.tenants[0].slo_latency += kNsPerUs;
  ServiceLayer layer_b(with_b, svc_b);

  EXPECT_NE(bare, with_a.config_fingerprint());
  EXPECT_NE(with_a.config_fingerprint(), with_b.config_fingerprint());
}

// --- Determinism & snapshot: the "tenant" replay scenario ---------------

snapshot::ReplayConfig tenant_config(int workers) {
  snapshot::ReplayConfig rc;
  rc.scenario = "tenant";
  rc.engine_shards = 4;
  rc.engine_workers = workers;
  return rc;
}

void expect_reports_equal(const SloReport& want, const SloReport& got) {
  ASSERT_EQ(want.tenants.size(), got.tenants.size());
  for (std::size_t i = 0; i < want.tenants.size(); ++i) {
    EXPECT_EQ(want.tenants[i].issued, got.tenants[i].issued) << i;
    EXPECT_EQ(want.tenants[i].completed, got.tenants[i].completed) << i;
    EXPECT_EQ(want.tenants[i].timed_out, got.tenants[i].timed_out) << i;
    EXPECT_EQ(want.tenants[i].aborted, got.tenants[i].aborted) << i;
    EXPECT_EQ(want.tenants[i].bytes_delivered, got.tenants[i].bytes_delivered) << i;
    EXPECT_EQ(want.tenants[i].p99_us, got.tenants[i].p99_us) << i;
  }
}

TEST(ServiceShardedTest, WorkerCountIsBitInvisible) {
  snapshot::Scenario base(tenant_config(1));
  const snapshot::ReplayResult want = base.run();
  ASSERT_FALSE(want.digests.points.empty());
  const SloReport want_rep = base.service()->report();
  // The run actually exercised all three archetypes.
  for (const auto& tr : want_rep.tenants) EXPECT_GT(tr.completed, 0u) << tr.name;
  for (const int workers : {2, 4}) {
    snapshot::Scenario sc(tenant_config(workers));
    const snapshot::ReplayResult got = sc.run();
    EXPECT_EQ(snapshot::divergence(want, got), "") << workers << " workers";
    expect_reports_equal(want_rep, sc.service()->report());
  }
}

TEST(ServiceShardedTest, SnapshotBytesIdenticalAcrossWorkerCounts) {
  const auto snap_at = [](int workers, TimeNs at) {
    snapshot::Scenario sc(tenant_config(workers));
    sc.simulator().run_until(at);
    snapshot::ArchiveWriter w;
    sc.simulator().save(w);
    return w.finish();
  };
  const std::vector<std::uint8_t> base = snap_at(1, 200 * kNsPerUs);
  EXPECT_EQ(base, snap_at(2, 200 * kNsPerUs));
  EXPECT_EQ(base, snap_at(4, 200 * kNsPerUs));
}

TEST(ServiceShardedTest, MidRunResumeUnderDifferentWorkerCount) {
  snapshot::Scenario straight(tenant_config(1));
  const snapshot::ReplayResult want = straight.run();

  // Snapshot on the digest grid (a digest_every multiple): sharded
  // trajectories are a function of the run_until horizon sequence, so a
  // resumed run must land on the same grid as the straight run. Whether
  // the snapshot is reached in one jump or through the straight run's own
  // steps, the resumed run must reproduce the straight run past it: the
  // archive holds no layout (heap order, park slots) that the horizons
  // could shape.
  for (const bool stepped : {false, true}) {
    snapshot::Scenario first(tenant_config(1));
    const TimeNs step = stepped ? first.config().digest_every : 160 * kNsPerUs;
    for (TimeNs t = step; t <= 160 * kNsPerUs; t += step) first.simulator().run_until(t);
    // In-flight requests must actually cross the snapshot for this to prove
    // anything.
    EXPECT_GT(first.service()->requests_in_flight(), 0u);
    snapshot::ArchiveWriter w;
    first.simulator().save(w);
    std::vector<std::uint8_t> bytes = w.finish();

    snapshot::Scenario resumed(tenant_config(4));
    snapshot::ArchiveReader r(std::move(bytes));
    resumed.simulator().load(r);
    EXPECT_EQ(snapshot::divergence(want, resumed.run(), 160 * kNsPerUs), "")
        << "stepped " << stepped;
    expect_reports_equal(straight.service()->report(), resumed.service()->report());
  }
}

TEST(ServiceShardedTest, ServiceArchiveRequiresMatchingAttachment) {
  // A tenant archive must not load into a service-less sim (and the
  // mismatch must surface as a SnapshotError, not silent state loss).
  snapshot::Scenario tenant(tenant_config(1));
  tenant.simulator().run_until(100 * kNsPerUs);
  snapshot::ArchiveWriter w;
  tenant.simulator().save(w);
  std::vector<std::uint8_t> bytes = w.finish();

  snapshot::ReplayConfig plain = tenant_config(1);
  plain.scenario = "adaptive";
  snapshot::Scenario other(plain);
  snapshot::ArchiveReader r(std::move(bytes));
  EXPECT_THROW(other.simulator().load(r), snapshot::SnapshotError);
}

}  // namespace
}  // namespace r2c2
