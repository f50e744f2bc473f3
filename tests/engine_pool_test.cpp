// Steady-state allocation checks for the event engine and the packet park
// store, using the counting allocator (alloc_counter.h). Once the heaps, slot arenas and park
// free-lists are warm, scheduling/running events and parking/taking packets
// must not touch the allocator at all.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>

#include "alloc_counter.h"
#include "sim/engine.h"
#include "sim/network.h"
#include "topology/topology.h"

namespace r2c2::sim {
namespace {

constexpr int kEventsPerLane = 64;

constexpr std::uint32_t kBump = 1;

// Makes every kBump event add one to `counter`, which lanes that may run on
// different threads share.
void count_bumps(Engine& e, std::atomic<std::uint64_t>* counter) {
  e.handle(kBump, [counter](const EventDesc&) { counter->fetch_add(1); });
}

// Schedules kEventsPerLane kBump events onto every shard lane in [from, to)
// and runs them. An event is a plain descriptor, so a warm heap array and
// slot arena make the whole cycle allocation-free.
void run_round(Engine& e, TimeNs from, TimeNs to) {
  const TimeNs step = (to - from) / kEventsPerLane;
  for (int lane = 0; lane < e.shards(); ++lane) {
    for (int i = 0; i < kEventsPerLane; ++i) {
      e.schedule_on(lane, from + i * step, EventDesc{kBump, 0, 0});
    }
  }
  e.run(to);
}

TEST(EnginePool, ShardedSteadyStateIsAllocationFree) {
  // 1 worker runs each window inline; 2 run it on the engine's pool.
  for (const int workers : {1, 2}) {
    Engine e;
    e.configure_shards(4, workers, /*lookahead=*/100);
    std::atomic<std::uint64_t> counter{0};
    count_bumps(e, &counter);
    // Warm-up: start the pool and grow each lane's heap array to its
    // working size.
    run_round(e, 0, 10'000);
    run_round(e, 10'000, 20'000);
    ASSERT_EQ(counter.load(), 2u * 4 * kEventsPerLane) << "workers=" << workers;

    const std::uint64_t before = test::alloc_calls();
    run_round(e, 20'000, 30'000);
    EXPECT_EQ(test::alloc_calls() - before, 0u)
        << "sharded schedule/run steady state allocated, workers=" << workers;
    EXPECT_EQ(counter.load(), 3u * 4 * kEventsPerLane) << "workers=" << workers;
  }
}

TEST(EnginePool, SerialSteadyStateIsAllocationFree) {
  Engine e;
  std::atomic<std::uint64_t> counter{0};
  count_bumps(e, &counter);
  run_round(e, 0, 10'000);  // shards() == 1: lane 0 only
  run_round(e, 10'000, 20'000);

  const std::uint64_t before = test::alloc_calls();
  run_round(e, 20'000, 30'000);
  EXPECT_EQ(test::alloc_calls() - before, 0u) << "serial schedule/run steady state allocated";
}

TEST(EnginePool, ParkedPacketsReuseSlots) {
  Engine e;
  const Topology topo = make_torus({2, 2}, 10 * kGbps, 100);
  Network net(e, topo, NetworkConfig{});

  // Warm-up: occupy (then free) a batch of slots so the store's slot and
  // free-list arrays reach their working capacity.
  std::uint64_t slots[16];
  for (int round = 0; round < 2; ++round) {
    for (std::uint64_t& slot : slots) {
      SimPacket pkt;
      pkt.type = PacketType::kData;
      pkt.wire_bytes = 64;
      slot = net.park(std::move(pkt));
    }
    for (const std::uint64_t slot : slots) (void)net.take_parked(slot);
  }

  const std::uint64_t before = test::alloc_calls();
  for (int round = 0; round < 8; ++round) {
    for (std::uint64_t& slot : slots) {
      SimPacket pkt;
      pkt.type = PacketType::kData;
      pkt.wire_bytes = 64;
      slot = net.park(std::move(pkt));
    }
    for (const std::uint64_t slot : slots) (void)net.take_parked(slot);
  }
  EXPECT_EQ(test::alloc_calls() - before, 0u) << "park/take steady state allocated";
}

}  // namespace
}  // namespace r2c2::sim
