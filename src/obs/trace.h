// Flight recorder: an always-on, fixed-capacity, allocation-free ring
// buffer of binary trace events, in the spirit of the flight recorders
// production network stacks keep running so that any anomaly comes with a
// timeline attached (cf. NanoLog-style binary logging; PAPERS.md).
//
// Events are 32-byte PODs stamped with the *simulation* clock (or the
// stack's tick clock) in nanoseconds, tagged with the node they happened
// on, and carry two opaque 64-bit arguments whose meaning depends on the
// event type (see the taxonomy below and DESIGN.md). Recording is a couple
// of stores into a pre-sized buffer — cheap enough to leave on during
// benchmarks (<5% on full simulation runs; bench/bench_obs measures it).
// Call sites record through obs::trace() at the bottom, which costs one
// null check while no recorder is attached.
//
// A post-run exporter (obs/trace_export.h) converts the ring to Chrome
// trace-event JSON, so a run opens directly in chrome://tracing or
// https://ui.perfetto.dev.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/types.h"

namespace r2c2::obs {

// Event taxonomy. One enumerator per interesting control-plane moment;
// arg0/arg1 semantics are listed per event (0 when unused).
enum class EventType : std::uint8_t {
  kFlowStart = 0,       // arg0 = flow id, arg1 = flow bytes
  kFlowFinish,          // arg0 = flow id, arg1 = FCT in ns
  kBroadcastSend,       // arg0 = broadcast id, arg1 = packet type
  kBroadcastDeliver,    // last copy delivered; arg0 = broadcast id
  kRateRecompute,       // span; begin: arg0 = visible flows; end: arg0 = wall ns
  kGaEpoch,             // span; route-selection GA run; end: arg0 = flows reassigned
  kFaultInject,         // arg0 = cable link id, arg1 = 1 failure / 0 restore
  kFaultDetect,         // arg0 = cable link id, arg1 = 1 failure / 0 restore
  kFaultRebuild,        // span; degraded-context rebuild; end: arg0 = cables down
  kFaultReconverge,     // arg0 = open recovery episodes closed
  kPacketDrop,          // arg0 = flow id, arg1 = wire bytes
  kPacketCorrupt,       // arg0 = 1 control / 0 data, arg1 = wire bytes
  kStackTick,           // span; R2c2Stack::tick (lease refresh + GC)
  kLeaseRefresh,        // arg0 = flows re-advertised
  kGhostExpired,        // arg0 = entries GC'd
  kStateDigest,         // divergence detector: arg0 = rolling state digest
  kLinkDemote,          // arg0 = directed link id, arg1 = 1 demote / 0 clear
  kFlowAbort,           // arg0 = flow id, arg1 = retransmissions spent
  kCount,               // sentinel, keep last
};

// Stable short name for each event type (used as the Chrome trace "name").
const char* event_name(EventType type);
// Coarse category ("flow", "broadcast", "rate", "fault", "net", "stack").
const char* event_category(EventType type);

enum class EventPhase : std::uint8_t { kInstant = 0, kBegin = 1, kEnd = 2 };

struct TraceEvent {
  TimeNs ts = 0;           // nanoseconds on the recording clock
  std::uint64_t arg0 = 0;  // per-type payload, see taxonomy
  std::uint64_t arg1 = 0;
  EventType type = EventType::kFlowStart;
  EventPhase phase = EventPhase::kInstant;
  NodeId node = 0;  // rack node the event is attributed to
};

// Fixed-capacity ring of TraceEvents. The buffer is sized once at
// construction (capacity rounded up to a power of two); record() is
// allocation-free and overwrites the oldest event when full, so a recorder
// can stay attached to an arbitrarily long run and always holds the most
// recent window. Single-threaded, like the simulator and the stack.
class FlightRecorder {
 public:
  static constexpr std::size_t kDefaultCapacity = 1u << 16;  // 2 MiB of events

  explicit FlightRecorder(std::size_t capacity = kDefaultCapacity) {
    std::size_t cap = 1;
    while (cap < capacity) cap <<= 1;
    buf_.resize(cap);
    mask_ = cap - 1;
  }

  void record(TimeNs ts, NodeId node, EventType type, EventPhase phase = EventPhase::kInstant,
              std::uint64_t arg0 = 0, std::uint64_t arg1 = 0) {
    TraceEvent& e = buf_[head_];
    e.ts = ts;
    e.arg0 = arg0;
    e.arg1 = arg1;
    e.type = type;
    e.phase = phase;
    e.node = node;
    head_ = (head_ + 1) & mask_;
    if (size_ < buf_.size()) {
      ++size_;
    } else {
      ++overwritten_;
    }
  }

  std::size_t capacity() const { return buf_.size(); }
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  // Events displaced by ring wraparound (they are gone; the exporter
  // reports the count so truncated traces are never mistaken for complete
  // ones).
  std::uint64_t overwritten() const { return overwritten_; }
  std::uint64_t total_recorded() const { return size_ + overwritten_; }

  void clear() {
    head_ = 0;
    size_ = 0;
    overwritten_ = 0;
  }

  // Visits retained events oldest-first (recording order; timestamps are
  // non-decreasing when the recording clock is monotone).
  template <typename F>
  void for_each(F&& fn) const {
    const std::size_t start = (head_ + buf_.size() - size_) & mask_;
    for (std::size_t i = 0; i < size_; ++i) {
      fn(buf_[(start + i) & mask_]);
    }
  }

  std::vector<TraceEvent> snapshot() const {
    std::vector<TraceEvent> out;
    out.reserve(size_);
    for_each([&out](const TraceEvent& e) { out.push_back(e); });
    return out;
  }

 private:
  std::vector<TraceEvent> buf_;
  std::size_t mask_ = 0;
  std::size_t head_ = 0;  // next write slot
  std::size_t size_ = 0;  // events retained (<= capacity)
  std::uint64_t overwritten_ = 0;
};

// Records one instant event on `rec`; a null (detached) recorder records
// nothing. Every instant hook goes through this.
inline void trace(FlightRecorder* rec, TimeNs ts, NodeId node, EventType type, std::uint64_t a0,
                  std::uint64_t a1) {
  if (rec != nullptr) rec->record(ts, node, type, EventPhase::kInstant, a0, a1);
}

}  // namespace r2c2::obs
