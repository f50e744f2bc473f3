#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include "sim/engine.h"
#include "sim/metrics.h"
#include "sim/network.h"
#include "topology/topology.h"

namespace r2c2::sim {
namespace {

// --- Engine ---

// The kind the tests below schedule unless they say otherwise.
constexpr std::uint32_t kTest = 1;

TEST(Engine, ProcessesInTimeOrder) {
  Engine e;
  std::vector<int> order;
  e.handle(kTest, [&](const EventDesc& ev) { order.push_back(static_cast<int>(ev.a)); });
  e.schedule_at(30, EventDesc{kTest, 3, 0});
  e.schedule_at(10, EventDesc{kTest, 1, 0});
  e.schedule_at(20, EventDesc{kTest, 2, 0});
  e.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(e.now(), 30);
}

TEST(Engine, TiesBreakInScheduleOrder) {
  Engine e;
  std::vector<int> order;
  e.handle(kTest, [&](const EventDesc& ev) { order.push_back(static_cast<int>(ev.a)); });
  e.schedule_at(5, EventDesc{kTest, 1, 0});
  e.schedule_at(5, EventDesc{kTest, 2, 0});
  e.schedule_at(5, EventDesc{kTest, 3, 0});
  e.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

// Satellite determinism check for the sharded engine's mailbox protocol:
// several cross-boundary packets share one arrival timestamp at one
// destination lane; their execution order is fixed by the (time, key)
// stamps allocated at post time, so it must match the 1-worker (serial
// window) order bit for bit at every worker count.
std::vector<int> run_boundary_tie_order(int workers) {
  constexpr int kShards = 8;
  Engine e;
  e.configure_shards(kShards, workers, /*lookahead=*/10);
  struct Mail {
    TimeNs at;
    std::uint64_t key;
    std::uint64_t tag;
  };
  // box[src][dst]: written by the src lane inside the window, drained by
  // the dst lane's owner at the barrier — the same single-writer protocol
  // the network's mailboxes use.
  std::array<std::array<std::vector<Mail>, kShards>, kShards> box{};
  std::vector<int> delivered;  // appended only by lane 0 events
  e.set_lane_drain([&](int dst) {
    for (int src = 0; src < kShards; ++src) {
      auto& cell = box[static_cast<std::size_t>(src)][static_cast<std::size_t>(dst)];
      for (const Mail& m : cell) {
        e.schedule_keyed(dst, m.at, m.key, EventDesc{kTest, m.tag, 0});
      }
      cell.clear();
    }
  });
  auto post = [&](int dst, TimeNs at, std::uint64_t tag) {
    const auto src = static_cast<std::size_t>(e.current_lane());
    box[src][static_cast<std::size_t>(dst)].push_back({at, e.alloc_key(), tag});
  };
  // kTest delivers tag a; kind 2 posts tag a to lane 0 for t = 15; kind 3
  // does too, then schedules a kind-2 post of tag b at t = 6.
  e.handle(kTest, [&](const EventDesc& ev) { delivered.push_back(static_cast<int>(ev.a)); });
  e.handle(2, [&](const EventDesc& ev) { post(0, 15, ev.a); });
  e.handle(3, [&](const EventDesc& ev) {
    post(0, 15, ev.a);
    e.schedule_at(6, EventDesc{2, ev.b, 0});
  });
  // Three boundary packets from three shards, all arriving on lane 0 at
  // t = 15; lane 5 posts a second one from a later event in the same
  // window (a later per-lane sequence number, so it sorts last).
  e.schedule_on(1, 5, EventDesc{2, 101, 0});
  e.schedule_on(3, 5, EventDesc{2, 103, 0});
  e.schedule_on(5, 5, EventDesc{3, 105, 205});
  e.run();
  return delivered;
}

TEST(Engine, BoundaryPacketTieOrderMatchesSerialAtEveryWorkerCount) {
  const std::vector<int> want = run_boundary_tie_order(1);
  // Keys sort by (origin sequence, origin lane): the same-time ties land
  // in origin-lane order, with the later post from lane 5 last.
  EXPECT_EQ(want, (std::vector<int>{101, 103, 105, 205}));
  for (const int workers : {2, 4, 8}) {
    EXPECT_EQ(run_boundary_tie_order(workers), want) << "workers=" << workers;
  }
}

TEST(Engine, RejectsShardCountsBeyondTheLaneTag) {
  Engine e;
  EXPECT_THROW(e.configure_shards(Engine::kMaxShards + 1, 1, 10), std::invalid_argument);
  EXPECT_THROW(e.configure_shards(0, 1, 10), std::invalid_argument);
  e.configure_shards(Engine::kMaxShards, 1, 10);
  EXPECT_EQ(e.num_lanes(), Engine::kMaxShards + 1);
}

TEST(Engine, EventsCanScheduleEvents) {
  Engine e;
  int count = 0;
  e.handle(kTest, [&](const EventDesc&) {
    if (++count < 5) e.schedule_in(10, EventDesc{kTest, 0, 0});
  });
  e.schedule_at(0, EventDesc{kTest, 0, 0});
  e.run();
  EXPECT_EQ(count, 5);
  EXPECT_EQ(e.now(), 40);
}

TEST(Engine, RunUntilStopsEarly) {
  Engine e;
  int fired = 0;
  e.handle(kTest, [&](const EventDesc&) { ++fired; });
  e.schedule_at(10, EventDesc{kTest, 0, 0});
  e.schedule_at(100, EventDesc{kTest, 0, 0});
  e.run(50);
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(e.empty());
}

TEST(Engine, PastSchedulingClampsToNow) {
  Engine e;
  TimeNs seen = -1;
  // kTest schedules kind 2 in the past; kind 2 notes when it ran.
  e.handle(kTest, [&](const EventDesc&) { e.schedule_at(10, EventDesc{2, 0, 0}); });
  e.handle(2, [&](const EventDesc&) { seen = e.now(); });
  e.schedule_at(50, EventDesc{kTest, 0, 0});
  e.run();
  EXPECT_EQ(seen, 50);
  // Clamps are no longer silent: the per-lane counter records each one.
  EXPECT_EQ(e.clamped_schedules(), 1u);
  EXPECT_EQ(e.lane_stats(0).clamped, 1u);
}

TEST(Engine, CountsEvents) {
  Engine e;
  e.handle(kTest, [](const EventDesc&) {});
  for (int i = 0; i < 7; ++i) e.schedule_at(i, EventDesc{kTest, 0, 0});
  e.run();
  EXPECT_EQ(e.total_events(), 7u);
}

// --- Archive order ---
//
// Engine::save writes, and Engine::mix_digest hashes, each lane's pending
// events in ascending (time, key) order, whatever the heap's array layout.
// Other tests compare digests within one build only; these hold-model runs
// pin the engine's encoding to constants, so a change to what its archive
// holds, or to how it encodes it, fails here.

std::uint64_t splitmix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// Hold model: every event schedules one follow-up (two for 1 in 8 ids, none
// for another 1 in 8) until its generation reaches kGenerations. Delays are
// multiples of 5 ns in [0, 15], so equal-time ties are common. An event is
// its EventDesc {kind, id, generation}, and the model handles all three of
// its kinds, so a restored engine runs it exactly as the original would.
// On a sharded engine, shard-lane events stay on their lane; global-lane
// events (serial phases) spread their follow-ups across all lanes with
// schedule_on.
class HoldModel {
 public:
  static constexpr std::uint64_t kGenerations = 40;

  explicit HoldModel(Engine& e) : e_(e) {
    for (std::uint32_t kind = 1; kind <= 3; ++kind) {
      e_.handle(kind, [this](const EventDesc& d) { fire(d); });
    }
  }

  void schedule(int lane, TimeNs t, std::uint64_t id, std::uint64_t gen) {
    e_.schedule_on(lane, t, EventDesc{static_cast<std::uint32_t>(1 + id % 3), id, gen});
  }

  int lane_for(std::uint64_t bits) const {
    return static_cast<int>(bits % static_cast<std::uint64_t>(e_.num_lanes()));
  }

 private:
  void fire(const EventDesc& d) {
    if (d.b >= kGenerations) return;
    const std::uint64_t h = splitmix(d.a);
    const int children = (h & 7) == 0 ? 2 : ((h & 7) == 1 ? 0 : 1);
    const int here = e_.current_lane();
    for (int c = 0; c < children; ++c) {
      const std::uint64_t id = splitmix(h + static_cast<std::uint64_t>(c));
      const TimeNs dt = static_cast<TimeNs>((id >> 8) % 4) * 5;
      const int lane = here == e_.global_lane() ? lane_for(id >> 16) : here;
      schedule(lane, e_.now() + dt, id, d.b + 1);
    }
  }

  Engine& e_;
};

// An engine plus the model whose events it runs.
struct HoldRig {
  HoldRig(int shards, int workers) {
    if (shards > 1) engine.configure_shards(shards, workers, /*lookahead=*/10);
  }
  Engine engine;
  HoldModel model{engine};
};

constexpr TimeNs kHoldStep = 20;
constexpr TimeNs kHoldEnd = 400;
constexpr TimeNs kNoRestore = -1;

// Runs the hold model to kHoldEnd in kHoldStep steps and folds the engine
// digest at every step (pending events included) into one value. Between
// steps, outside events are scheduled onto every lane at times tied with
// pending ones. If `restore_at` is a step boundary, the engine is saved
// there and the run continues on a freshly loaded copy, whose arena then
// reuses the restored slots.
std::uint64_t hold_digest(int shards, int workers, TimeNs restore_at) {
  auto rig = std::make_unique<HoldRig>(shards, workers);
  for (std::uint64_t i = 0; i < 48; ++i) {
    const std::uint64_t id = splitmix(1000 + i);
    rig->model.schedule(rig->model.lane_for(i), static_cast<TimeNs>(id % 8) * 5, id, 0);
  }
  snapshot::Digest d;
  for (TimeNs t = kHoldStep; t <= kHoldEnd; t += kHoldStep) {
    if (t - kHoldStep == restore_at) {
      snapshot::ArchiveWriter w;
      rig->engine.save(w);
      auto fresh = std::make_unique<HoldRig>(shards, workers);
      snapshot::ArchiveReader r(w.finish());
      fresh->engine.load(r);
      rig = std::move(fresh);
    }
    rig->engine.run(t);
    rig->engine.mix_digest(d);
    for (std::uint64_t i = 0; i < 3; ++i) {
      const std::uint64_t id = splitmix(static_cast<std::uint64_t>(t) * 8 + i);
      rig->model.schedule(rig->model.lane_for(id), t + static_cast<TimeNs>(i) * 5, id,
                          HoldModel::kGenerations - 4);
    }
  }
  rig->engine.run();
  rig->engine.mix_digest(d);
  return d.value();
}

// Recorded with archive format version 2. A mismatch means archives and
// digests written by earlier builds no longer match this one's.
constexpr std::uint64_t kSerialHoldDigest = 0xdd77724f8aedb008ULL;
constexpr std::uint64_t kShardedHoldDigest = 0x00016909bc78c098ULL;

TEST(EngineArchiveOrder, SerialHoldModelDigestIsPinned) {
  EXPECT_EQ(hold_digest(1, 1, kNoRestore), kSerialHoldDigest);
}

TEST(EngineArchiveOrder, ShardedHoldModelDigestIsPinnedAtEveryWorkerCount) {
  EXPECT_EQ(hold_digest(4, 1, kNoRestore), kShardedHoldDigest);
  EXPECT_EQ(hold_digest(4, 4, kNoRestore), kShardedHoldDigest);
}

TEST(Engine, LoadRejectsMoreEventsThanTheSectionHolds) {
  snapshot::ArchiveWriter w;
  w.begin_section("engine");
  w.i64(0);                        // clock
  w.u64(0);                        // key counter
  w.u64(0);                        // events run
  w.u64(std::uint64_t{1} << 40);   // pending events declared; none follow
  w.end_section();
  snapshot::ArchiveReader r(w.finish());
  Engine e;
  EXPECT_THROW(e.load(r), snapshot::SnapshotError);
  EXPECT_TRUE(e.empty());
}

// Two engines holding the same pending events, pushed in opposite orders
// so that their heap arrays differ, archive and digest alike: an archive
// holds the queue, not its layout.
TEST(EngineArchiveOrder, SamePendingEventsArchiveAlikeWhateverTheHeapLayout) {
  for (const int shards : {1, 4}) {
    const auto archive = [shards](bool reversed, std::uint64_t& digest) {
      Engine e;
      if (shards > 1) e.configure_shards(shards, 1, /*lookahead=*/10);
      e.handle(kTest, [](const EventDesc&) {});
      const auto lanes = static_cast<std::uint64_t>(e.num_lanes());
      constexpr std::uint64_t kEvents = 40;
      for (std::uint64_t n = 0; n < kEvents; ++n) {
        const std::uint64_t i = reversed ? kEvents - 1 - n : n;
        const auto time = static_cast<TimeNs>((i * 7) % 5) * 10;
        const std::uint64_t key = (i << Engine::kLaneBits) | ((i * 3) % lanes);
        e.schedule_keyed(static_cast<int>(i % lanes), time, key, EventDesc{kTest, i, 0});
      }
      snapshot::Digest d;
      e.mix_digest(d);
      digest = d.value();
      snapshot::ArchiveWriter w;
      e.save(w);
      return w.finish();
    };
    std::uint64_t forward = 0, backward = 0;
    EXPECT_EQ(archive(false, forward), archive(true, backward)) << shards << " shards";
    EXPECT_EQ(forward, backward) << shards << " shards";
  }
}

using TimedKeys = std::vector<std::pair<TimeNs, std::uint64_t>>;

// An engine section for `lanes` lanes, the first holding `events` as
// (time, key) pairs with descriptor {kTest, 0, 0} and the others none.
std::vector<std::uint8_t> engine_archive(int lanes, const TimedKeys& events) {
  snapshot::ArchiveWriter w;
  w.begin_section("engine");
  for (int lane = 0; lane < lanes; ++lane) {
    w.i64(0);  // clock
    w.u64(4);  // key counter
    w.u64(0);  // events run
    if (lane > 0) {
      w.u64(0);
      continue;
    }
    w.u64(events.size());
    for (const auto& [time, key] : events) {
      w.i64(time);
      w.u64(key);
      w.u32(kTest);
      w.u64(0);
      w.u64(0);
    }
  }
  w.end_section();
  return w.finish();
}

// A lane's events must be archived in strictly ascending (time, key) order,
// and each key's lane tag must name a lane of the loading engine; anything
// else is a SnapshotError that leaves the engine empty.
TEST(Engine, LoadRejectsEventsOutOfOrderRepeatedOrOfNoLane) {
  constexpr std::uint64_t k0 = std::uint64_t{0} << Engine::kLaneBits;
  constexpr std::uint64_t k1 = std::uint64_t{1} << Engine::kLaneBits;
  for (const int shards : {1, 4}) {
    const int lanes = shards == 1 ? 1 : shards + 1;
    const auto configured = [shards] {
      auto e = std::make_unique<Engine>();
      if (shards > 1) e->configure_shards(shards, 1, /*lookahead=*/10);
      e->handle(kTest, [](const EventDesc&) {});
      return e;
    };
    {
      auto e = configured();
      snapshot::ArchiveReader r(engine_archive(lanes, {{5, k0}, {5, k1}, {10, k0}}));
      e->load(r);
      EXPECT_EQ(e->pending(), 3u) << shards << " shards";
    }
    const auto lane_tag_past_the_last = k0 | static_cast<std::uint64_t>(lanes);
    for (const TimedKeys& events : {TimedKeys{{10, k0}, {5, k1}}, TimedKeys{{5, k1}, {5, k0}},
                                    TimedKeys{{5, k1}, {5, k1}},
                                    TimedKeys{{5, lane_tag_past_the_last}}}) {
      auto e = configured();
      snapshot::ArchiveReader r(engine_archive(lanes, events));
      EXPECT_THROW(e->load(r), snapshot::SnapshotError) << shards << " shards";
      EXPECT_TRUE(e->empty());
      EXPECT_EQ(e->next_seq(), 0u);
    }
  }
}

TEST(EngineArchiveOrder, SaveLoadMidRunKeepsThePinnedDigest) {
  for (const TimeNs at : {TimeNs{100}, TimeNs{240}}) {
    EXPECT_EQ(hold_digest(1, 1, at), kSerialHoldDigest) << "serial, restored at " << at;
    EXPECT_EQ(hold_digest(4, 1, at), kShardedHoldDigest) << "4 shards, restored at " << at;
    EXPECT_EQ(hold_digest(4, 4, at), kShardedHoldDigest) << "4 shards x 4, restored at " << at;
  }
}

// A load accepts only events this engine can run: an event of a kind with
// no handler, or one whose operands its kind's check refuses, is a
// SnapshotError that leaves the engine empty.
TEST(Engine, LoadRejectsEventsNoHandlerCanRun) {
  const std::vector<std::uint8_t> archive = engine_archive(1, {{5, 0}});
  for (const bool registered : {false, true}) {
    Engine e;
    if (registered) {
      e.handle(kTest, [](const EventDesc&) {}, [](const EventDesc& ev) { return ev.a > 0; });
    }
    snapshot::ArchiveReader r(archive);
    EXPECT_THROW(e.load(r), snapshot::SnapshotError) << "registered: " << registered;
    EXPECT_TRUE(e.empty());
    EXPECT_EQ(e.next_seq(), 0u);
  }
}

// --- Network ---

class NetworkTest : public ::testing::Test {
 protected:
  NetworkTest() : topo_(make_torus({4}, 10 * kGbps, 100)) {}

  SimPacket data_packet(const Path& path, std::uint32_t bytes) {
    SimPacket p;
    p.type = PacketType::kData;
    p.flow = 1;
    p.src = path.front();
    p.dst = path.back();
    p.payload = bytes - static_cast<std::uint32_t>(DataHeader::kWireSize);
    p.wire_bytes = bytes;
    p.route = encode_path(topo_, path);
    return p;
  }

  Topology topo_;
};

TEST_F(NetworkTest, SerializationPlusPropagationDelay) {
  Engine e;
  Network net(e, topo_, {});
  TimeNs arrival = -1;
  NodeId where = kInvalidNode;
  net.set_deliver([&](NodeId at, SimPacket&&) {
    arrival = e.now();
    where = at;
  });
  net.forward(0, data_packet({0, 1}, 1500));
  e.run();
  // 1500 B at 10 Gbps = 1200 ns, plus 100 ns propagation.
  EXPECT_EQ(arrival, 1300);
  EXPECT_EQ(where, 1);
}

TEST_F(NetworkTest, MultiHopForwarding) {
  Engine e;
  Network net(e, topo_, {});
  TimeNs arrival = -1;
  net.set_deliver([&](NodeId at, SimPacket&& p) {
    if (p.ridx < p.route.length()) {
      net.forward(at, std::move(p));
    } else {
      arrival = e.now();
    }
  });
  net.forward(0, data_packet({0, 1, 2}, 1500));
  e.run();
  EXPECT_EQ(arrival, 2 * 1300);
}

TEST_F(NetworkTest, QueueingDelaysBackToBackPackets) {
  Engine e;
  Network net(e, topo_, {});
  std::vector<TimeNs> arrivals;
  net.set_deliver([&](NodeId, SimPacket&&) { arrivals.push_back(e.now()); });
  net.forward(0, data_packet({0, 1}, 1500));
  net.forward(0, data_packet({0, 1}, 1500));
  e.run();
  ASSERT_EQ(arrivals.size(), 2u);
  EXPECT_EQ(arrivals[1] - arrivals[0], 1200);  // one serialization time apart
}

TEST_F(NetworkTest, FiniteBufferDropsData) {
  Engine e;
  Network net(e, topo_, {.data_buffer_bytes = 3000});
  int delivered = 0, dropped = 0;
  net.set_deliver([&](NodeId, SimPacket&&) { ++delivered; });
  net.set_drop([&](NodeId, const SimPacket&) { ++dropped; });
  // First packet starts transmitting immediately (not queued); the buffer
  // then holds two more.
  for (int i = 0; i < 5; ++i) net.forward(0, data_packet({0, 1}, 1500));
  e.run();
  EXPECT_EQ(delivered, 3);
  EXPECT_EQ(dropped, 2);
  EXPECT_EQ(net.drops(), 2u);
}

TEST_F(NetworkTest, ControlPacketsBypassDataQueue) {
  Engine e;
  Network net(e, topo_, {.data_buffer_bytes = 0});
  std::vector<PacketType> order;
  net.set_deliver([&](NodeId, SimPacket&& p) { order.push_back(p.type); });
  net.forward(0, data_packet({0, 1}, 1500));  // starts transmitting
  net.forward(0, data_packet({0, 1}, 1500));  // queued
  SimPacket ctrl;
  ctrl.type = PacketType::kFlowStart;
  ctrl.wire_bytes = 16;
  const LinkId link = topo_.find_link(0, 1);
  net.send_on_link(link, std::move(ctrl));
  e.run();
  ASSERT_EQ(order.size(), 3u);
  // The control packet overtakes the queued data packet.
  EXPECT_EQ(order[1], PacketType::kFlowStart);
  EXPECT_EQ(net.total_control_bytes_sent(), 16u);
}

TEST_F(NetworkTest, MaxQueueTracksHighWaterMark) {
  Engine e;
  Network net(e, topo_, {});
  net.set_deliver([](NodeId, SimPacket&&) {});
  for (int i = 0; i < 4; ++i) net.forward(0, data_packet({0, 1}, 1500));
  e.run();
  const auto snapshot = net.max_queue_snapshot();
  // Three packets queued behind the first one transmitting.
  EXPECT_EQ(snapshot[topo_.find_link(0, 1)], 3u * 1500);
}

// --- ReorderTracker ---

TEST(ReorderTracker, InOrderNeverBuffers) {
  ReorderTracker t;
  for (std::uint32_t i = 0; i < 10; ++i) EXPECT_EQ(t.on_packet(i), 0u);
  EXPECT_EQ(t.max_depth(), 0u);
}

TEST(ReorderTracker, OutOfOrderBuffersAndDrains) {
  ReorderTracker t;
  EXPECT_EQ(t.on_packet(1), 1u);
  EXPECT_EQ(t.on_packet(2), 2u);
  EXPECT_EQ(t.on_packet(0), 0u);  // gap filled, buffer drains
  EXPECT_EQ(t.max_depth(), 2u);
}

TEST(ReorderTracker, DuplicatesIgnored) {
  ReorderTracker t;
  t.on_packet(0);
  EXPECT_EQ(t.on_packet(0), 0u);
  EXPECT_EQ(t.on_packet(1), 0u);
}

TEST(ReorderTracker, InterleavedGaps) {
  ReorderTracker t;
  t.on_packet(2);
  t.on_packet(4);
  t.on_packet(0);
  EXPECT_EQ(t.on_packet(1), 1u);  // drains 2, keeps 4
  EXPECT_EQ(t.on_packet(3), 0u);  // drains 4
  EXPECT_EQ(t.max_depth(), 2u);
}

// --- FlowRecord ---

TEST(FlowRecord, ThroughputFromFct) {
  FlowRecord r;
  r.bytes = 1'000'000;
  r.arrival = 0;
  r.completed = 8 * kNsPerMs;  // 8 Mbit in 8 ms = 1 Gbps
  EXPECT_TRUE(r.finished());
  EXPECT_NEAR(r.throughput_bps(), 1e9, 1e3);
}

TEST(FlowRecord, SelectorsSplitBySize) {
  RunMetrics m;
  FlowRecord small;
  small.bytes = 10 * 1024;
  small.arrival = 0;
  small.completed = 1000;
  FlowRecord big;
  big.bytes = 10 << 20;
  big.arrival = 0;
  big.completed = kNsPerMs;
  FlowRecord unfinished;
  unfinished.bytes = 5;
  m.flows = {small, big, unfinished};
  EXPECT_EQ(m.short_flow_fct_us().size(), 1u);
  EXPECT_EQ(m.long_flow_tput_gbps().size(), 1u);
}

}  // namespace
}  // namespace r2c2::sim
