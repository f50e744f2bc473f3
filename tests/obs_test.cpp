// Observability primitives (src/obs/): flight-recorder ring semantics,
// metric math, registry snapshots, the scoped-timer spans, and the Chrome
// trace exporter's balance guarantees — plus the allocation-free claim,
// checked with the counting allocator (alloc_counter.h).
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "alloc_counter.h"
#include "obs/metrics.h"
#include "obs/scope.h"
#include "obs/trace.h"
#include "obs/trace_export.h"

namespace r2c2::obs {
namespace {

// --- FlightRecorder -------------------------------------------------------

TEST(FlightRecorder, RoundsCapacityUpToPowerOfTwo) {
  EXPECT_EQ(FlightRecorder(1).capacity(), 1u);
  EXPECT_EQ(FlightRecorder(2).capacity(), 2u);
  EXPECT_EQ(FlightRecorder(3).capacity(), 4u);
  EXPECT_EQ(FlightRecorder(5).capacity(), 8u);
  EXPECT_EQ(FlightRecorder(1000).capacity(), 1024u);
  EXPECT_EQ(FlightRecorder().capacity(), FlightRecorder::kDefaultCapacity);
}

TEST(FlightRecorder, RecordsInOrderBelowCapacity) {
  FlightRecorder rec(8);
  EXPECT_TRUE(rec.empty());
  for (int i = 0; i < 5; ++i) {
    rec.record(100 * i, static_cast<NodeId>(i), EventType::kFlowStart, EventPhase::kInstant,
               static_cast<std::uint64_t>(i), 7);
  }
  EXPECT_EQ(rec.size(), 5u);
  EXPECT_EQ(rec.overwritten(), 0u);
  EXPECT_EQ(rec.total_recorded(), 5u);
  const std::vector<TraceEvent> events = rec.snapshot();
  ASSERT_EQ(events.size(), 5u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(events[static_cast<std::size_t>(i)].ts, 100 * i);
    EXPECT_EQ(events[static_cast<std::size_t>(i)].node, static_cast<NodeId>(i));
    EXPECT_EQ(events[static_cast<std::size_t>(i)].arg0, static_cast<std::uint64_t>(i));
    EXPECT_EQ(events[static_cast<std::size_t>(i)].arg1, 7u);
  }
}

TEST(FlightRecorder, WraparoundKeepsNewestAndCountsOverwritten) {
  FlightRecorder rec(4);
  ASSERT_EQ(rec.capacity(), 4u);
  for (int i = 0; i < 10; ++i) {
    rec.record(i, 0, EventType::kFlowStart, EventPhase::kInstant, static_cast<std::uint64_t>(i));
  }
  EXPECT_EQ(rec.size(), 4u);
  EXPECT_EQ(rec.overwritten(), 6u);
  EXPECT_EQ(rec.total_recorded(), 10u);
  // for_each visits oldest-first: the retained window is [6, 9].
  std::vector<std::uint64_t> seen;
  rec.for_each([&seen](const TraceEvent& e) { seen.push_back(e.arg0); });
  EXPECT_EQ(seen, (std::vector<std::uint64_t>{6, 7, 8, 9}));
}

TEST(FlightRecorder, ClearResetsEverything) {
  FlightRecorder rec(4);
  for (int i = 0; i < 9; ++i) rec.record(i, 0, EventType::kPacketDrop);
  rec.clear();
  EXPECT_TRUE(rec.empty());
  EXPECT_EQ(rec.overwritten(), 0u);
  rec.record(42, 3, EventType::kFlowFinish);
  const std::vector<TraceEvent> events = rec.snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].ts, 42);
  EXPECT_EQ(events[0].node, 3u);
}

TEST(FlightRecorder, RecordIsAllocationFreeAfterConstruction) {
  FlightRecorder rec(1 << 10);
  // Warm-up (construction already sized the buffer; nothing else to warm).
  rec.record(0, 0, EventType::kStackTick, EventPhase::kBegin);
  const std::uint64_t before = test::alloc_calls();
  for (int i = 0; i < 100000; ++i) {
    rec.record(i, static_cast<NodeId>(i & 15), EventType::kRateRecompute,
               (i & 1) != 0 ? EventPhase::kEnd : EventPhase::kBegin,
               static_cast<std::uint64_t>(i), static_cast<std::uint64_t>(i) * 2);
  }
  EXPECT_EQ(test::alloc_calls(), before) << "FlightRecorder::record allocated";
}

TEST(FlightRecorder, EventNamesAndCategoriesAreStable) {
  for (int t = 0; t < static_cast<int>(EventType::kCount); ++t) {
    const EventType type = static_cast<EventType>(t);
    EXPECT_STRNE(event_name(type), "") << t;
    EXPECT_STRNE(event_category(type), "") << t;
  }
}

TEST(FlightRecorder, TraceHookRecordsOneInstantOnlyWhenAttached) {
  trace(nullptr, 10, 1, EventType::kFlowStart, 2, 3);  // detached: a no-op
  FlightRecorder rec(8);
  trace(&rec, 250, 4, EventType::kLinkDemote, 17, 1);
  const std::vector<TraceEvent> events = rec.snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].ts, 250);
  EXPECT_EQ(events[0].node, 4u);
  EXPECT_EQ(events[0].type, EventType::kLinkDemote);
  EXPECT_EQ(events[0].phase, EventPhase::kInstant);
  EXPECT_EQ(events[0].arg0, 17u);
  EXPECT_EQ(events[0].arg1, 1u);
}

// --- Metrics --------------------------------------------------------------

TEST(Metrics, CounterAndGaugeBasics) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);

  Gauge g;
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
  g.set(3.5);
  EXPECT_DOUBLE_EQ(g.value(), 3.5);
}

TEST(Metrics, HistogramTracksExactStatsAndApproxQuantiles) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
  for (int i = 1; i <= 1000; ++i) h.observe(static_cast<double>(i));
  EXPECT_EQ(h.count(), 1000u);
  EXPECT_DOUBLE_EQ(h.sum(), 500500.0);
  EXPECT_DOUBLE_EQ(h.mean(), 500.5);
  EXPECT_DOUBLE_EQ(h.min(), 1.0);
  EXPECT_DOUBLE_EQ(h.max(), 1000.0);
  // Quantile endpoints are exact; interior quantiles are bucket-approximate
  // (log2 buckets -> within a factor of 2 of the true value).
  EXPECT_DOUBLE_EQ(h.percentile(0), 1.0);
  EXPECT_DOUBLE_EQ(h.percentile(100), 1000.0);
  const double p50 = h.percentile(50);
  EXPECT_GE(p50, 250.0);
  EXPECT_LE(p50, 1000.0);
  const double p99 = h.percentile(99);
  EXPECT_GE(p99, p50);
  EXPECT_LE(p99, 1000.0);
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.max(), 0.0);
}

TEST(Metrics, HistogramObserveIsAllocationFree) {
  Histogram h;
  h.observe(1.0);
  Counter c;
  const std::uint64_t before = test::alloc_calls();
  for (int i = 0; i < 100000; ++i) {
    h.observe(static_cast<double>(i));
    c.add(1);
  }
  EXPECT_EQ(test::alloc_calls(), before) << "metric update allocated";
}

TEST(Metrics, RegistryGetOrCreateReturnsStableRefs) {
  MetricsRegistry reg;
  Counter& a = reg.counter("r2c2.test.counter");
  a.add(5);
  Counter& b = reg.counter("r2c2.test.counter");
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(b.value(), 5u);
  // Creating more metrics must not invalidate earlier references.
  for (int i = 0; i < 100; ++i) {
    reg.counter("c" + std::to_string(i));
    reg.histogram("h" + std::to_string(i));
  }
  EXPECT_EQ(&reg.counter("r2c2.test.counter"), &a);
  EXPECT_EQ(reg.size(), 201u);
}

TEST(Metrics, RegistryRejectsCrossKindNameCollisions) {
  MetricsRegistry reg;
  reg.counter("dual.use");
  EXPECT_THROW(reg.gauge("dual.use"), std::invalid_argument);
  EXPECT_THROW(reg.histogram("dual.use"), std::invalid_argument);
  EXPECT_EQ(reg.find_counter("dual.use")->value(), 0u);
  EXPECT_EQ(reg.find_gauge("dual.use"), nullptr);
  EXPECT_EQ(reg.find_histogram("missing"), nullptr);
}

TEST(Metrics, RegistryJsonAndTableSnapshots) {
  MetricsRegistry reg;
  reg.counter("net.drops").add(3);
  reg.gauge("sim.end_ns").set(12345.0);
  Histogram& h = reg.histogram("stack.tick_wall_ns");
  h.observe(10.0);
  h.observe(20.0);

  const std::string json = reg.to_json();
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"net.drops\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"sim.end_ns\""), std::string::npos);
  EXPECT_NE(json.find("\"stack.tick_wall_ns\""), std::string::npos);
  EXPECT_NE(json.find("\"count\": 2"), std::string::npos);

  std::ostringstream os;
  reg.print(os);
  const std::string table = os.str();
  EXPECT_NE(table.find("net.drops"), std::string::npos);
  EXPECT_NE(table.find("stack.tick_wall_ns"), std::string::npos);

  reg.reset();
  EXPECT_EQ(reg.find_counter("net.drops")->value(), 0u);
  EXPECT_EQ(reg.find_histogram("stack.tick_wall_ns")->count(), 0u);
  EXPECT_EQ(reg.size(), 3u);  // reset clears values, not registrations
}

// --- ScopedTimer ----------------------------------------------------------

TEST(ScopedTimer, FeedsHistogramAndEmitsBalancedSpan) {
  Histogram h;
  FlightRecorder rec(16);
  {
    ScopedTimer t(&h, &rec, /*sim_ts=*/500, /*node=*/2, EventType::kRateRecompute, 9);
  }
  EXPECT_EQ(h.count(), 1u);
  EXPECT_GE(h.max(), 0.0);
  const std::vector<TraceEvent> events = rec.snapshot();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].phase, EventPhase::kBegin);
  EXPECT_EQ(events[0].ts, 500);
  EXPECT_EQ(events[0].node, 2u);
  EXPECT_EQ(events[0].arg0, 9u);
  EXPECT_EQ(events[1].phase, EventPhase::kEnd);
  EXPECT_EQ(events[1].type, EventType::kRateRecompute);
}

TEST(ScopedTimer, NullTargetsAreSafe) {
  { ScopedTimer t(nullptr); }
  { ScopedTimer t(nullptr, nullptr, 0, 0, EventType::kStackTick); }
  Histogram h;
  { ScopedTimer t(&h, nullptr, 0, 0, EventType::kStackTick); }
  EXPECT_EQ(h.count(), 1u);
}

// --- Chrome trace exporter ------------------------------------------------

// Minimal count of occurrences of `needle` in `hay`.
std::size_t count_of(const std::string& hay, const std::string& needle) {
  std::size_t n = 0;
  for (std::size_t pos = hay.find(needle); pos != std::string::npos;
       pos = hay.find(needle, pos + needle.size())) {
    ++n;
  }
  return n;
}

TEST(TraceExport, EmptyRecorderYieldsValidEnvelope) {
  FlightRecorder rec(8);
  const std::string json = to_chrome_trace_json(rec);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\""), std::string::npos);
  EXPECT_EQ(count_of(json, "\"ph\""), 0u);
}

TEST(TraceExport, BalancesOrphanedEndAndDanglingBegin) {
  FlightRecorder rec(16);
  // An End whose Begin was (conceptually) overwritten: must be dropped.
  rec.record(100, 1, EventType::kRateRecompute, EventPhase::kEnd);
  // A well-formed pair.
  rec.record(200, 1, EventType::kRateRecompute, EventPhase::kBegin);
  rec.record(300, 1, EventType::kRateRecompute, EventPhase::kEnd);
  // A dangling Begin (run stopped inside the span): must be closed.
  rec.record(400, 2, EventType::kFaultRebuild, EventPhase::kBegin);
  rec.record(500, 3, EventType::kFlowStart, EventPhase::kInstant);
  const std::string json = to_chrome_trace_json(rec);
  EXPECT_EQ(count_of(json, "\"ph\": \"B\""), count_of(json, "\"ph\": \"E\""));
  EXPECT_EQ(count_of(json, "\"ph\": \"B\""), 2u);
  EXPECT_EQ(count_of(json, "\"ph\": \"i\""), 1u);
  // Overwrite metadata present even when nothing was overwritten.
  EXPECT_NE(json.find("\"events_overwritten\""), std::string::npos);
}

TEST(TraceExport, SpansNestPerNode) {
  FlightRecorder rec(16);
  rec.record(100, 1, EventType::kStackTick, EventPhase::kBegin);
  rec.record(110, 1, EventType::kRateRecompute, EventPhase::kBegin);
  rec.record(120, 1, EventType::kRateRecompute, EventPhase::kEnd);
  rec.record(130, 1, EventType::kStackTick, EventPhase::kEnd);
  const std::string json = to_chrome_trace_json(rec);
  EXPECT_EQ(count_of(json, "\"ph\": \"B\""), 2u);
  EXPECT_EQ(count_of(json, "\"ph\": \"E\""), 2u);
  // Both events attributed to tid 1.
  EXPECT_GE(count_of(json, "\"tid\": 1"), 4u);
}

}  // namespace
}  // namespace r2c2::obs
