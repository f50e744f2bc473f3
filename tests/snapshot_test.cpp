// The snapshot subsystem (src/snapshot/): archive container hardening,
// engine event-queue round trips, generator/stack state capture, and the
// headline guarantee — a simulation resumed from a snapshot continues
// bit-identically (per-tick digests and final metrics) to the run that was
// never interrupted, for the fault-injection and GA-selection scenarios at
// 1 and 4 threads.
#include <gtest/gtest.h>

#include <cstdlib>
#include <deque>
#include <fstream>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "broadcast/broadcast.h"
#include "common/checksum.h"
#include "r2c2/stack.h"
#include "sim/engine.h"
#include "sim/event_kind.h"
#include "snapshot/archive.h"
#include "snapshot/digest.h"
#include "snapshot/replay.h"
#include "topology/topology.h"

namespace r2c2 {
namespace {

using sim::Engine;
using sim::EventDesc;
using snapshot::ArchiveReader;
using snapshot::ArchiveWriter;
using snapshot::Digest;
using snapshot::DigestLog;
using snapshot::ReplayConfig;
using snapshot::ReplayResult;
using snapshot::Scenario;
using snapshot::SnapshotError;

// --- Archive container -----------------------------------------------------

TEST(Archive, ScalarAndSectionRoundTrip) {
  ArchiveWriter w;
  w.begin_section("alpha");
  w.u8(0xab);
  w.u16(0xbeef);
  w.u32(0xdeadbeefu);
  w.u64(0x0123456789abcdefULL);
  w.i64(-42);
  w.f64(3.141592653589793);
  w.str("hello, rack");
  w.end_section();
  w.begin_section("beta");
  const std::vector<std::uint8_t> blob{1, 2, 3, 4, 5};
  w.bytes(blob);
  w.end_section();

  ArchiveReader r(w.finish());
  EXPECT_TRUE(r.has_section("alpha"));
  EXPECT_TRUE(r.has_section("beta"));
  EXPECT_FALSE(r.has_section("gamma"));

  // Sections are random access: read beta first.
  r.open_section("beta");
  std::vector<std::uint8_t> out(5);
  r.bytes(out);
  EXPECT_EQ(out, blob);
  r.close_section();

  r.open_section("alpha");
  EXPECT_EQ(r.u8(), 0xab);
  EXPECT_EQ(r.u16(), 0xbeef);
  EXPECT_EQ(r.u32(), 0xdeadbeefu);
  EXPECT_EQ(r.u64(), 0x0123456789abcdefULL);
  EXPECT_EQ(r.i64(), -42);
  EXPECT_DOUBLE_EQ(r.f64(), 3.141592653589793);
  EXPECT_EQ(r.str(), "hello, rack");
  EXPECT_EQ(r.remaining(), 0u);
  r.close_section();
}

TEST(Archive, StrictConsumptionAndMissingSections) {
  ArchiveWriter w;
  w.begin_section("s");
  w.u32(7);
  w.u32(8);
  w.end_section();
  const std::vector<std::uint8_t> bytes = w.finish();

  {
    ArchiveReader r(bytes);
    r.open_section("s");
    r.u32();
    EXPECT_THROW(r.close_section(), SnapshotError);  // under-read
  }
  {
    ArchiveReader r(bytes);
    r.open_section("s");
    r.u32();
    r.u32();
    EXPECT_THROW(r.u32(), SnapshotError);  // over-read
  }
  {
    ArchiveReader r(bytes);
    EXPECT_THROW(r.open_section("nope"), SnapshotError);
  }
  EXPECT_THROW(ArchiveReader(std::vector<std::uint8_t>{}), SnapshotError);
}

TEST(Archive, RejectsWrongVersion) {
  ArchiveWriter w;
  w.begin_section("s");
  w.u8(1);
  w.end_section();
  std::vector<std::uint8_t> bytes = w.finish();
  bytes[8] ^= 0x02;  // format-version field follows the 8-byte magic
  EXPECT_THROW(ArchiveReader(std::move(bytes)), SnapshotError);
}

// --- Digests ---------------------------------------------------------------

TEST(Digest, OrderSensitive) {
  Digest a, b;
  a.mix(1);
  a.mix(2);
  b.mix(2);
  b.mix(1);
  EXPECT_NE(a.value(), b.value());
}

TEST(DigestLog, FileRoundTripAndFirstDivergence) {
  DigestLog log;
  log.record(100, 0xdeadbeefULL);
  log.record(200, 0x0123456789abcdefULL);
  log.record(300, 0x1ULL);
  const std::string path = ::testing::TempDir() + "digest_log_test.txt";
  ASSERT_TRUE(log.write_file(path));
  const DigestLog back = DigestLog::read_file(path);
  ASSERT_EQ(back.points.size(), 3u);
  EXPECT_EQ(back.points, log.points);
  EXPECT_EQ(DigestLog::first_divergence(log, back), -1);

  DigestLog other = log;
  other.points[1].digest ^= 1;
  EXPECT_EQ(DigestLog::first_divergence(log, other), 1);
  DigestLog prefix = log;
  prefix.points.pop_back();
  EXPECT_EQ(DigestLog::first_divergence(log, prefix), -1);  // prefix, not divergence
}

// --- snapshot::divergence, the comparison behind every identity gate ------

ReplayResult three_point_run() {
  ReplayResult run;
  run.digests.record(100, 0xa1);
  run.digests.record(200, 0xb2);
  run.digests.record(300, 0xc3);
  run.final_digest = 0xf4;
  run.metrics_digest = 0xe5;
  return run;
}

TEST(ReplayDivergence, IdenticalRunsAgree) {
  EXPECT_EQ(snapshot::divergence(three_point_run(), three_point_run()), "");
}

TEST(ReplayDivergence, NamesTheFirstDifferingPointWithItsTime) {
  ReplayResult got = three_point_run();
  got.digests.points[1].digest ^= 1;
  got.digests.points[2].digest ^= 1;
  got.final_digest ^= 1;
  const std::string why = snapshot::divergence(three_point_run(), got);
  EXPECT_NE(why.find("t=200"), std::string::npos) << why;
  EXPECT_EQ(why.find("t=300"), std::string::npos) << why;
}

TEST(ReplayDivergence, ReportsAShorterTrail) {
  ReplayResult got = three_point_run();
  got.digests.points.pop_back();
  const std::string why = snapshot::divergence(three_point_run(), got);
  EXPECT_NE(why.find("2 digest points, expected 3"), std::string::npos) << why;
}

TEST(ReplayDivergence, ReportsADifferentFinalDigest) {
  ReplayResult got = three_point_run();
  got.final_digest ^= 1;
  got.metrics_digest ^= 1;
  const std::string why = snapshot::divergence(three_point_run(), got);
  EXPECT_NE(why.find("final state digest"), std::string::npos) << why;
}

TEST(ReplayDivergence, ReportsADifferentMetricsDigest) {
  ReplayResult got = three_point_run();
  got.metrics_digest ^= 1;
  const std::string why = snapshot::divergence(three_point_run(), got);
  EXPECT_NE(why.find("metrics digest"), std::string::npos) << why;
  EXPECT_EQ(why.find("final"), std::string::npos) << why;
}

TEST(ReplayDivergence, IgnoresDifferencesAtOrBeforeAfter) {
  ReplayResult want = three_point_run();
  want.digests.points[0].digest ^= 1;
  want.digests.points[1].digest ^= 1;
  // A run resumed from a snapshot at t=200 records t=300 only.
  ReplayResult tail = three_point_run();
  tail.digests.points.erase(tail.digests.points.begin(), tail.digests.points.begin() + 2);
  EXPECT_EQ(snapshot::divergence(want, tail, 200), "");
  EXPECT_NE(snapshot::divergence(want, tail, 100), "");
}

// --- Engine event-queue round trip ----------------------------------------

TEST(EngineSnapshot, PendingQueueRoundTripsAndReplaysIdentically) {
  // Two engines execute the same schedule; one is serialized midway and
  // restored into a third. The restored engine must replay the exact
  // remaining interleaving, including (time, seq) ties.
  constexpr std::uint32_t kKind = 42;
  auto scheduled = [](Engine& e, std::vector<std::uint64_t>& log) {
    e.handle(kKind, [&log](const EventDesc& d) { log.push_back(d.a); });
    for (std::uint64_t i = 0; i < 8; ++i) {
      e.schedule_at(static_cast<TimeNs>(10 * (i % 3)), EventDesc{kKind, i, 0});
    }
  };
  std::vector<std::uint64_t> ref_log;
  Engine ref;
  scheduled(ref, ref_log);
  ref.run();

  std::vector<std::uint64_t> src_log;
  Engine src;
  scheduled(src, src_log);
  src.run(5);  // partial: only the t=0 events fired
  ArchiveWriter w;
  src.save(w);

  std::vector<std::uint64_t> restored_log = src_log;
  Engine restored;
  restored.handle(kKind, [&restored_log](const EventDesc& d) { restored_log.push_back(d.a); });
  ArchiveReader r(w.finish());
  restored.load(r);
  EXPECT_EQ(restored.now(), src.now());
  EXPECT_EQ(restored.pending(), src.pending());
  EXPECT_EQ(restored.next_seq(), src.next_seq());
  restored.run();
  EXPECT_EQ(restored_log, ref_log);
  EXPECT_EQ(restored.total_events(), ref.total_events());
}

// --- R2c2Stack state capture ----------------------------------------------

struct MiniRack {
  Topology topo = make_torus({2, 2}, 10 * kGbps, 100);
  Router router{topo};
  BroadcastTrees trees{topo, 2};
  RackContext ctx;
  std::deque<std::pair<NodeId, std::vector<std::uint8_t>>> wire;
  std::vector<std::unique_ptr<R2c2Stack>> stacks;

  MiniRack() {
    ctx.topo = &topo;
    ctx.router = &router;
    ctx.trees = &trees;
    ctx.lease_interval = 50 * kNsPerUs;
    for (NodeId n = 0; n < topo.num_nodes(); ++n) {
      R2c2Stack::Callbacks cb;
      cb.send_control = [this](NodeId next, std::vector<std::uint8_t> bytes) {
        wire.emplace_back(next, std::move(bytes));
      };
      stacks.push_back(std::make_unique<R2c2Stack>(n, ctx, std::move(cb)));
    }
  }
  void pump() {
    while (!wire.empty()) {
      auto [node, bytes] = std::move(wire.front());
      wire.pop_front();
      stacks[node]->on_control_packet(bytes);
    }
  }
};

TEST(StackSnapshot, RoundTripContinuesIdentically) {
  MiniRack rack;
  const FlowId f0 = rack.stacks[0]->open_flow(3);
  rack.stacks[0]->open_flow(2, {.alg = RouteAlg::kVlb, .weight = 2.0});
  rack.stacks[1]->open_flow(0);
  rack.pump();
  rack.stacks[0]->tick(60 * kNsPerUs);
  rack.pump();
  rack.stacks[0]->note_backlog(f0, 4096);
  rack.stacks[0]->recompute();
  rack.pump();
  R2c2Stack& original = *rack.stacks[0];

  ArchiveWriter w;
  original.save(w, "node0");
  const std::vector<std::uint8_t> bytes = w.finish();

  // Restore into a stack built with a *different* seed: every draw must
  // come from the restored RNG state, not the constructor's.
  std::vector<std::vector<std::uint8_t>> restored_wire;
  R2c2Stack::Callbacks cb;
  cb.send_control = [&restored_wire](NodeId, std::vector<std::uint8_t> b) {
    restored_wire.push_back(std::move(b));
  };
  R2c2Stack restored(0, rack.ctx, std::move(cb), /*seed=*/987654321);
  ArchiveReader r(bytes);
  restored.load(r, "node0");

  Digest da, db;
  original.mix_digest(da);
  restored.mix_digest(db);
  EXPECT_EQ(da.value(), db.value());
  EXPECT_EQ(restored.view().view_hash(), original.view().view_hash());
  EXPECT_EQ(restored.own_flows(), original.own_flows());
  EXPECT_EQ(restored.now(), original.now());

  // Same next operation on both -> same flow id, same bytes on the wire,
  // same state afterwards.
  rack.wire.clear();
  const FlowId next_orig = original.open_flow(1, {.weight = 3.0});
  const FlowId next_rest = restored.open_flow(1, {.weight = 3.0});
  EXPECT_EQ(next_orig, next_rest);
  std::vector<std::vector<std::uint8_t>> original_wire;
  while (!rack.wire.empty()) {
    original_wire.push_back(std::move(rack.wire.front().second));
    rack.wire.pop_front();
  }
  EXPECT_EQ(original_wire, restored_wire);
  Digest da2, db2;
  original.mix_digest(da2);
  restored.mix_digest(db2);
  EXPECT_EQ(da2.value(), db2.value());
}

// Lease refreshes draw one broadcast tree per local flow from the stack's
// RNG, so a restored stack must walk its flows in the original's order:
// after opens and closes, the original's flow order is its history's, the
// restored one's its archive's (ascending id).
TEST(StackSnapshot, RestoredStackRefreshesFlowsInOriginalOrder) {
  const Topology topo = make_torus({4, 4}, 10 * kGbps, 100);
  const Router router(topo);
  const BroadcastTrees trees(topo, 4);
  RackContext ctx;
  ctx.topo = &topo;
  ctx.router = &router;
  ctx.trees = &trees;
  ctx.lease_interval = 100 * kNsPerUs;
  using Sends = std::vector<std::pair<NodeId, std::vector<std::uint8_t>>>;
  const auto stack_into = [&ctx](Sends& sends) {
    R2c2Stack::Callbacks cb;
    cb.send_control = [&sends](NodeId next, std::vector<std::uint8_t> bytes) {
      sends.emplace_back(next, std::move(bytes));
    };
    return std::make_unique<R2c2Stack>(0, ctx, std::move(cb));
  };
  Sends original_sends, restored_sends;
  const auto original = stack_into(original_sends);
  std::vector<FlowId> opened;
  for (int i = 0; i < 40; ++i) opened.push_back(original->open_flow(1 + i % 15));
  for (int i = 0; i < 40; ++i) {
    if (i % 7 != 3) original->close_flow(opened[i]);
  }
  original->tick(50 * kNsPerUs);
  ASSERT_EQ(original->own_flows(), 6u);

  ArchiveWriter w;
  original->save(w, "node0");
  const auto restored = stack_into(restored_sends);
  ArchiveReader r(w.finish());
  restored->load(r, "node0");

  original_sends.clear();
  original->tick(200 * kNsPerUs);
  restored->tick(200 * kNsPerUs);
  EXPECT_FALSE(original_sends.empty());
  EXPECT_EQ(restored_sends, original_sends);
}

// --- Full simulation snapshots ---------------------------------------------

ReplayConfig scenario_config(const std::string& scenario, int threads) {
  ReplayConfig cfg;
  cfg.scenario = scenario;
  cfg.threads = threads;
  cfg.seed = 11;
  cfg.digest_every = 20 * kNsPerUs;
  return cfg;
}

// Serializes a mid-run simulator of the given scenario and returns the
// archive bytes plus the grid-aligned time it was taken at.
std::pair<std::vector<std::uint8_t>, TimeNs> golden_snapshot(const ReplayConfig& cfg,
                                                             TimeNs snap_at) {
  Scenario scenario(cfg);
  scenario.simulator().run_until(snap_at);
  ArchiveWriter w;
  scenario.simulator().save(w);
  return {w.finish(), snap_at};
}

TEST(SimSnapshot, LoadRejectsWrongConfigAndUsedSims) {
  const ReplayConfig cfg = scenario_config("fault", 1);
  const auto [bytes, snap_at] = golden_snapshot(cfg, 400 * kNsPerUs);

  {
    // Same scenario family, different seed: the config fingerprint differs.
    ReplayConfig other = cfg;
    other.seed = 12;
    Scenario wrong(other);
    ArchiveReader r(bytes);
    EXPECT_THROW(wrong.simulator().load(r), SnapshotError);
  }
  {
    // A simulator that already ran refuses to load.
    Scenario used(cfg);
    used.simulator().run_until(100 * kNsPerUs);
    ArchiveReader r(bytes);
    EXPECT_THROW(used.simulator().load(r), SnapshotError);
  }
}

ReplayConfig sharded_config(const std::string& scenario, int shards) {
  ReplayConfig cfg = scenario_config(scenario, 1);
  cfg.engine_shards = shards;
  return cfg;
}

TEST(SimSnapshot, SaveLoadSaveIsByteIdentical) {
  // The 4-shard tenant and adaptive inputs archive what the fault one never
  // writes: several lanes, service.core and service.requests, a gray
  // degradation table and congestion marks.
  for (const ReplayConfig& cfg : {sharded_config("fault", 1), sharded_config("tenant", 4),
                                  sharded_config("adaptive", 4)}) {
    const auto [bytes, snap_at] = golden_snapshot(cfg, 400 * kNsPerUs);

    Scenario fresh(cfg);
    ArchiveReader r(bytes);
    fresh.simulator().load(r);
    ArchiveWriter w;
    fresh.simulator().save(w);
    EXPECT_EQ(w.finish(), bytes) << cfg.scenario;
  }
}

// The corrupt-input sweep: every truncation and every probed bit flip of a
// golden snapshot must be rejected cleanly — a SnapshotError, never UB, and
// never a partially mutated simulator.
TEST(SimSnapshot, TruncationAndBitFlipSweepRejectedWithoutPartialMutation) {
  const ReplayConfig cfg = scenario_config("fault", 1);
  const auto [bytes, snap_at] = golden_snapshot(cfg, 400 * kNsPerUs);
  ASSERT_GT(bytes.size(), 1000u);

  // Sanity: the intact archive loads.
  {
    Scenario fresh(cfg);
    ArchiveReader r(bytes);
    fresh.simulator().load(r);
  }

  // Truncations: the reader authenticates the whole file up front, so every
  // cut fails at construction.
  for (std::size_t keep = 0; keep < bytes.size();
       keep += std::max<std::size_t>(1, bytes.size() / 41)) {
    std::vector<std::uint8_t> cut(bytes.begin(),
                                  bytes.begin() + static_cast<std::ptrdiff_t>(keep));
    EXPECT_THROW(ArchiveReader{std::move(cut)}, SnapshotError) << "kept " << keep << " bytes";
  }

  // Bit flips, probing every region of the file. Payload flips are caught
  // by the per-section checksums at construction; header/table flips fail
  // construction or surface as a missing/mismatched section in load() —
  // before the simulator commits anything.
  std::size_t flips = 0, caught_in_ctor = 0, caught_in_load = 0;
  for (std::size_t pos = 0; pos < bytes.size(); pos += 97, ++flips) {
    std::vector<std::uint8_t> corrupt = bytes;
    corrupt[pos] ^= static_cast<std::uint8_t>(1u << (pos % 8));
    try {
      ArchiveReader r(std::move(corrupt));
      Scenario fresh(cfg);
      const std::uint64_t before = fresh.simulator().state_digest();
      try {
        fresh.simulator().load(r);
        FAIL() << "undetected bit flip at byte " << pos;
      } catch (const SnapshotError&) {
        ++caught_in_load;
        // The failed load left the simulator untouched.
        EXPECT_EQ(fresh.simulator().state_digest(), before) << "partial mutation, byte " << pos;
      }
    } catch (const SnapshotError&) {
      ++caught_in_ctor;
    }
  }
  EXPECT_EQ(caught_in_ctor + caught_in_load, flips);
  EXPECT_GT(caught_in_ctor, 0u);  // checksums did real work
}

// Where one section sits inside an archive's bytes (the layout documented in
// src/snapshot/archive.h).
struct SectionSpan {
  std::string tag;
  std::size_t checksum_at = 0;
  std::size_t payload_at = 0;
  std::size_t length = 0;
};

// Little-endian integers of `width` bytes, as archives store them.
std::uint64_t get_le(const std::vector<std::uint8_t>& bytes, std::size_t at, int width) {
  std::uint64_t v = 0;
  for (int i = width - 1; i >= 0; --i) v = (v << 8) | bytes.at(at + static_cast<std::size_t>(i));
  return v;
}
void put_le(std::vector<std::uint8_t>& bytes, std::size_t at, std::uint64_t v, int width) {
  for (int i = 0; i < width; ++i, v >>= 8) {
    bytes.at(at + static_cast<std::size_t>(i)) = static_cast<std::uint8_t>(v & 0xff);
  }
}

std::vector<SectionSpan> section_spans(const std::vector<std::uint8_t>& bytes) {
  const auto get = [&bytes](std::size_t at, int width) {
    return static_cast<std::size_t>(get_le(bytes, at, width));
  };
  std::vector<SectionSpan> spans;
  std::size_t off = 16;
  for (std::size_t i = 0, n = get(12, 4); i < n; ++i) {
    SectionSpan s;
    const std::size_t tag_len = get(off, 2);
    s.tag.assign(bytes.begin() + static_cast<std::ptrdiff_t>(off + 2),
                 bytes.begin() + static_cast<std::ptrdiff_t>(off + 2 + tag_len));
    off += 2 + tag_len;
    s.length = get(off, 8);
    s.checksum_at = off + 8;
    s.payload_at = off + 10;
    off = s.payload_at + s.length;
    spans.push_back(s);
  }
  return spans;
}

// Flips one bit of a section's payload and re-seals that section's
// checksum, so the corruption gets past the container and reaches load().
std::vector<std::uint8_t> flip_resealed(std::vector<std::uint8_t> bytes, const SectionSpan& s,
                                        std::size_t pos) {
  bytes[s.payload_at + pos] ^= static_cast<std::uint8_t>(1u << (pos % 8));
  put_le(bytes, s.checksum_at,
         internet_checksum(std::span<const std::uint8_t>(bytes.data() + s.payload_at, s.length)),
         2);
  return bytes;
}

// The reader contract behind the sweep above: a flip that survives the
// checksum must either be rejected with a SnapshotError (and nothing else)
// leaving the simulator untouched, or load into a state whose digest
// differs from the original's — no archived bit may vanish on load or
// escape the digest. Every byte of the network and engine sections (the
// engine's holds the parked packets), a stride over the rest.
TEST(SimSnapshot, ResealedBitFlipsAreRejectedCleanlyOrChangeTheDigest) {
  const ReplayConfig cfg = sharded_config("fault", 4);
  const auto [bytes, snap_at] = golden_snapshot(cfg, 400 * kNsPerUs);
  const std::uint64_t untouched = Scenario(cfg).simulator().state_digest();
  std::uint64_t golden = 0;
  {
    Scenario s(cfg);
    ArchiveReader r(bytes);
    s.simulator().load(r);
    golden = s.simulator().state_digest();
  }

  // A rejected load leaves the sim fresh, so it takes the next flip too.
  auto fresh = std::make_unique<Scenario>(cfg);
  std::size_t flips = 0, rejected = 0;
  for (const SectionSpan& s : section_spans(bytes)) {
    const std::size_t stride = s.tag == "network" || s.tag == "engine" ? 1 : 7;
    for (std::size_t pos = 0; pos < s.length; pos += stride, ++flips) {
      ArchiveReader r(flip_resealed(bytes, s, pos));
      try {
        fresh->simulator().load(r);
      } catch (const SnapshotError&) {
        ++rejected;
        ASSERT_EQ(fresh->simulator().state_digest(), untouched)
            << "partial mutation: " << s.tag << " byte " << pos;
        continue;
      }
      ASSERT_NE(fresh->simulator().state_digest(), golden)
          << "flip lost on load or missed by the digest: " << s.tag << " byte " << pos;
      fresh = std::make_unique<Scenario>(cfg);
    }
  }
  EXPECT_GT(rejected, 0u);
  EXPECT_LT(rejected, flips);
}

// The payload of section `tag`.
std::vector<std::uint8_t> payload_of(const std::vector<std::uint8_t>& bytes,
                                     const std::string& tag) {
  ArchiveReader r(bytes);
  r.open_section(tag);
  std::vector<std::uint8_t> payload(r.remaining());
  r.bytes(payload);
  r.close_section();
  return payload;
}

// The archive re-emitted through ArchiveWriter, every checksum sealed
// afresh, with the payload of section `tag` passed through `edit`.
std::vector<std::uint8_t> rewrite_section(
    const std::vector<std::uint8_t>& bytes, const std::string& tag,
    const std::function<void(std::vector<std::uint8_t>&)>& edit) {
  ArchiveWriter out;
  for (const SectionSpan& s : section_spans(bytes)) {
    std::vector<std::uint8_t> payload = payload_of(bytes, s.tag);
    if (s.tag == tag) edit(payload);
    out.begin_section(s.tag);
    out.bytes(payload);
    out.end_section();
  }
  return out.finish();
}

// Loads a corrupt archive into a fresh sim: it must throw SnapshotError and
// leave the sim as constructed.
void expect_rejected_cleanly(const ReplayConfig& cfg, std::vector<std::uint8_t> corrupt) {
  Scenario fresh(cfg);
  const std::uint64_t before = fresh.simulator().state_digest();
  ArchiveReader r(std::move(corrupt));
  EXPECT_THROW(fresh.simulator().load(r), SnapshotError);
  EXPECT_EQ(fresh.simulator().state_digest(), before);
}

// An archived down-set that isolates a node names no valid decision plane.
// The rebuild fails inside load(), which must surface it as a SnapshotError
// before committing anything.
TEST(SimSnapshot, DownSetIsolatingANodeIsRejectedWithoutPartialMutation) {
  const ReplayConfig cfg = scenario_config("fault", 1);
  const auto [bytes, snap_at] = golden_snapshot(cfg, 400 * kNsPerUs);
  // Every cable of node 0 in the scenario's 4x4 torus.
  const Topology torus = make_torus({4, 4}, 10 * kGbps, 100);
  std::vector<LinkId> isolate;
  for (LinkId id = 0; id < static_cast<LinkId>(torus.num_links()); ++id) {
    if (torus.link(id).from == 0) isolate.push_back(id);
  }

  // sim.core: every lane's RNG and broadcast counter (a u64 count plus 40
  // bytes a lane), 43 bytes of scalars, then next_fseq, link_denom,
  // last_heard and cable_down (each a u64 count plus elements of 2, 8, 8
  // and 1 bytes), then the down-set (a u64 count plus u32 links).
  expect_rejected_cleanly(cfg, rewrite_section(bytes, "sim.core", [&](auto& payload) {
    std::size_t down_at = 8 + 40 * get_le(payload, 0, 8) + 43;
    for (const std::size_t width : {2, 8, 8, 1}) {
      down_at += 8 + width * get_le(payload, down_at, 8);
    }
    const std::size_t down_end = down_at + 8 + 4 * get_le(payload, down_at, 8);
    std::vector<std::uint8_t> down(8 + 4 * isolate.size());
    put_le(down, 0, isolate.size(), 8);
    for (std::size_t i = 0; i < isolate.size(); ++i) put_le(down, 8 + 4 * i, isolate[i], 4);
    payload.erase(payload.begin() + static_cast<std::ptrdiff_t>(down_at),
                  payload.begin() + static_cast<std::ptrdiff_t>(down_end));
    payload.insert(payload.begin() + static_cast<std::ptrdiff_t>(down_at), down.begin(),
                   down.end());
  }));
}

// start_flow numbers flows 1..N in start order, and the sim finds flow
// id's record at index id - 1. A load must refuse records numbered any
// other way: one archived record id, rewritten to another record's id, is
// rejected without partial mutation.
TEST(SimSnapshot, RecordsNotNumberedOneToNAreRejected) {
  const ReplayConfig cfg = scenario_config("tenant", 1);
  const auto [bytes, snap_at] = golden_snapshot(cfg, 400 * kNsPerUs);
  // sim.flows ends with the flow records (53 bytes each, the u32 id first)
  // and then four containers, empty in a run without faults, of a u64
  // count each: recoveries, open recoveries and the two injection maps.
  constexpr std::size_t kRecordBytes = 53;
  const std::vector<std::uint8_t> flows = payload_of(bytes, "sim.flows");
  const std::size_t records_end = flows.size() - 4 * 8;
  for (std::size_t at = records_end; at < flows.size(); at += 8) {
    ASSERT_EQ(get_le(flows, at, 8), 0u);
  }
  const std::uint64_t n = get_le(flows, records_end - kRecordBytes, 4);  // the last id
  ASSERT_GE(n, 2u);
  const std::size_t records_at = records_end - n * kRecordBytes;
  ASSERT_EQ(get_le(flows, records_at - 8, 8), n);
  for (std::uint64_t i = 0; i < n; ++i) {
    ASSERT_EQ(get_le(flows, records_at + i * kRecordBytes, 4), i + 1);
  }
  // The first record claims to be flow 2.
  expect_rejected_cleanly(cfg, rewrite_section(bytes, "sim.flows", [&](auto& payload) {
    put_le(payload, records_at, 2, 4);
  }));
}

// The offset of each pending event's kind in the engine section of a
// 1-shard archive, in archive order. An event archives its time, key and
// kind, then its two operands; a delivery and a control retransmit
// archive their parked packet (98 bytes) in place of the first.
std::vector<std::size_t> event_kind_offsets(const std::vector<std::uint8_t>& engine) {
  constexpr std::size_t kPacketBytes = 98;
  std::vector<std::size_t> offsets;
  std::size_t at = 8 + 8 + 8;  // clock, key counter, events run
  const std::uint64_t events = get_le(engine, at, 8);
  at += 8;
  for (std::uint64_t i = 0; i < events; ++i) {
    at += 8 + 8;  // time, key
    offsets.push_back(at);
    const std::uint64_t kind = get_le(engine, at, 4);
    const bool parked = kind == sim::kEvDeliver || kind == sim::kEvCtrlRetransmit;
    at += 4 + (parked ? kPacketBytes : 8) + 8;
  }
  EXPECT_EQ(at, engine.size());
  return offsets;
}

// A load accepts only events the sim could run. One pending event of a
// golden fault snapshot, rewritten to a kind no component handles or to an
// operand just past the end of what its kind indexes, must be rejected with
// a SnapshotError that leaves the sim as constructed. The resealed bit-flip
// sweep cannot show this: it also accepts a flip that loads with a changed
// digest, which is what a loader that stopped checking would do.
TEST(SimSnapshot, EventsThatNoHandlerCanRunAreRejected) {
  const ReplayConfig cfg = scenario_config("fault", 1);
  // At 100 us start-flow and fault-apply events are still pending beside
  // the link frees. Arrivals and the fault script are both sorted by time,
  // so the last pending event of each kind holds the last index: one more
  // is the length of the list.
  const auto [bytes, snap_at] = golden_snapshot(cfg, 100 * kNsPerUs);
  const std::vector<std::uint8_t> engine = payload_of(bytes, "engine");
  const std::vector<std::size_t> offsets = event_kind_offsets(engine);
  const auto last_of = [&](std::uint32_t kind) {
    std::size_t found = 0;
    for (const std::size_t at : offsets) {
      if (get_le(engine, at, 4) == kind) found = at;
    }
    EXPECT_NE(found, 0u) << "no pending event of kind " << kind;
    return found;
  };
  const Topology torus = make_torus({4, 4}, 10 * kGbps, 100);
  const std::size_t link_free = last_of(sim::kEvLinkFree);
  const std::size_t start_flow = last_of(sim::kEvStartFlow);
  const std::size_t fault_apply = last_of(sim::kEvFaultApply);
  ASSERT_TRUE(link_free != 0 && start_flow != 0 && fault_apply != 0);

  struct Rewrite {
    const char* what;
    std::size_t at;  // the event's kind
    std::uint32_t kind;
    std::uint64_t a;
  };
  const std::uint64_t freed_link = get_le(engine, link_free + 4, 8);
  for (const Rewrite& rw : {
           Rewrite{"kind 0", link_free, 0, freed_link},
           Rewrite{"a service event in a sim without a service layer", link_free,
                   sim::kEvService, 0},
           Rewrite{"kind 99", link_free, 99, freed_link},
           Rewrite{"link free past the last link", link_free, sim::kEvLinkFree,
                   torus.num_links()},
           Rewrite{"start flow past the last arrival", start_flow, sim::kEvStartFlow,
                   get_le(engine, start_flow + 4, 8) + 1},
           Rewrite{"fault apply past the script's end", fault_apply, sim::kEvFaultApply,
                   get_le(engine, fault_apply + 4, 8) + 1},
       }) {
    SCOPED_TRACE(rw.what);
    expect_rejected_cleanly(cfg, rewrite_section(bytes, "engine", [&rw](auto& payload) {
      put_le(payload, rw.at, rw.kind, 4);
      put_le(payload, rw.at + 4, rw.a, 8);
    }));
  }
  // The last link is one a link free can name.
  Scenario fresh(cfg);
  ArchiveReader r(rewrite_section(bytes, "engine", [&](auto& payload) {
    put_le(payload, link_free + 4, torus.num_links() - 1, 8);
  }));
  EXPECT_NO_THROW(fresh.simulator().load(r));
}

// --- The headline acceptance test ------------------------------------------
// Straight-through run vs save-at-k / load-in-fresh-context / resume: the
// per-tick digest trail, the final state digest and the full RunMetrics must
// be bit-identical — fault-injection and GA-selection scenarios, 1 and 4
// threads.

struct ResumeCase {
  const char* name;
  int threads;
};

// Print the case by value. GTest's default printer would show the name's
// address, which ASLR changes on every run, so the listed test names (and
// the CTest names discovered from them) would never be the same twice.
void PrintTo(const ResumeCase& c, std::ostream* os) { *os << c.name << "_t" << c.threads; }

class ResumeBitIdentical : public ::testing::TestWithParam<ResumeCase> {};

TEST_P(ResumeBitIdentical, DigestsAndMetricsMatchStraightRun) {
  const auto& [name, threads] = GetParam();
  const ReplayConfig cfg = scenario_config(name, threads);

  Scenario straight(cfg);
  const ReplayResult full = straight.run();
  ASSERT_GE(full.digests.points.size(), 4u);
  const TimeNs end = full.digests.points.back().at;
  const TimeNs snap_at = (end / 2 / cfg.digest_every) * cfg.digest_every;
  ASSERT_GT(snap_at, 0);

  const auto [bytes, at] = golden_snapshot(cfg, snap_at);

  // If a CI job wants the snapshot as a failure artifact, park a copy.
  if (const char* dir = std::getenv("R2C2_SNAPSHOT_ARTIFACT_DIR")) {
    const std::string path = std::string(dir) + "/golden-" + name + "-t" +
                             std::to_string(threads) + ".snap";
    std::ofstream out(path, std::ios::binary);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
  }

  Scenario fresh(cfg);
  ArchiveReader r(bytes);
  fresh.simulator().load(r);
  ASSERT_EQ(fresh.simulator().now(), snap_at);

  // The restored state digest equals the straight-through digest at snap_at.
  for (const auto& p : full.digests.points) {
    if (p.at == snap_at) {
      EXPECT_EQ(fresh.simulator().state_digest(), p.digest);
    }
  }

  const ReplayResult tail = fresh.run();
  EXPECT_EQ(snapshot::divergence(full, tail, snap_at), "");
  EXPECT_EQ(tail.metrics.sim_end, full.metrics.sim_end);
  ASSERT_EQ(tail.metrics.flows.size(), full.metrics.flows.size());
  for (std::size_t i = 0; i < full.metrics.flows.size(); ++i) {
    EXPECT_EQ(tail.metrics.flows[i].completed, full.metrics.flows[i].completed) << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Scenarios, ResumeBitIdentical,
                         ::testing::Values(ResumeCase{"fault", 1}, ResumeCase{"fault", 4},
                                           ResumeCase{"ga", 1}, ResumeCase{"ga", 4}),
                         [](const auto& info) { return ::testing::PrintToString(info.param); });

// GA thread counts must not merely each be self-consistent: 1-thread and
// 4-thread GA scenarios are the *same* run (Section 3.4's deterministic
// parallel fitness evaluation), so their digests agree across thread counts.
TEST(SimSnapshot, GaScenarioIdenticalAcrossThreadCounts) {
  Scenario one(scenario_config("ga", 1));
  Scenario four(scenario_config("ga", 4));
  const ReplayResult a = one.run();
  const ReplayResult b = four.run();
  EXPECT_EQ(snapshot::divergence(a, b), "");
}

}  // namespace
}  // namespace r2c2
