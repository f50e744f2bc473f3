// End-to-end reliability for R2C2 (the Section 6 extension).
//
// R2C2 deliberately decouples congestion control from reliability: rates
// come from the broadcast-based allocator, so acknowledgements serve
// *only* reliability — there is no ACK clocking (unlike TCP) and no rate
// interpretation of losses. This module implements the resulting
// machinery: selective-repeat retransmission driven by a retransmission
// timer, with cumulative ACKs plus SACK ranges so that the heavy packet
// reordering of multipath routing is never mistaken for loss.
//
// The classes are pure state machines (no I/O, no timers of their own) so
// they are unit-testable and host-agnostic; the simulator and emulator
// drive them with their own clocks.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <vector>

#include "common/rng.h"
#include "common/types.h"

namespace r2c2 {

// Half-open byte range [begin, end).
struct ByteRange {
  std::uint64_t begin = 0;
  std::uint64_t end = 0;
  bool operator==(const ByteRange&) const = default;
};

// Receiver side: tracks which bytes of the message have arrived, exposes
// the cumulative ack point and SACK ranges above it.
class ReliableReceiver {
 public:
  explicit ReliableReceiver(std::uint64_t total_bytes) : total_(total_bytes) {}

  // Registers payload [offset, offset + length). Duplicates are fine.
  void on_data(std::uint64_t offset, std::uint32_t length);

  // Longest contiguous prefix received.
  std::uint64_t cumulative() const { return cumulative_; }
  std::uint64_t total() const { return total_; }
  bool complete() const { return cumulative_ >= total_; }
  // Bytes received (without duplicates).
  std::uint64_t received_bytes() const;

  // Up to `max_ranges` received ranges strictly above the cumulative point
  // (for the ACK's SACK blocks), lowest first.
  std::vector<ByteRange> sack_ranges(std::size_t max_ranges) const;

  // Snapshot field walk (src/snapshot/persist.h). std::map iterates in key
  // order, so the archive is canonical by construction.
  template <class Self, class V>
  static void persist(Self& s, V& v) {
    v.u64(s.total_);
    v.u64(s.cumulative_);
    v.map(s.ranges_, [&v](auto& begin, auto& end) {
      v.u64(begin);
      v.u64(end);
    });
  }

 private:
  std::uint64_t total_;
  std::uint64_t cumulative_ = 0;
  // Out-of-order ranges above cumulative_, disjoint, keyed by begin.
  std::map<std::uint64_t, std::uint64_t> ranges_;
};

// Sender side: hands out segments to transmit (new data first, then
// timer-expired retransmissions), retires them on ACK.
class ReliableSender {
 public:
  struct Config {
    std::uint32_t mtu_payload = 1465;
    TimeNs rto = 500 * kNsPerUs;  // base retransmit timeout; no fast retransmit
    int max_retransmits = 64;     // give-up bound (surfaced via gave_up())
    // Adaptive RTO: Jacobson-style SRTT/RTTVAR from ACK-sampled RTTs
    // (Karn's rule: only never-retransmitted segments are sampled), the
    // result clamped to [min_rto, max_rto]. Off: the fixed `rto` base.
    // Either way every retransmission of a segment backs off
    // exponentially (capped at max_rto), so a dead path decays to a slow
    // probe instead of a full-rate retry wall.
    bool adaptive_rto = false;
    TimeNs min_rto = 50 * kNsPerUs;
    TimeNs max_rto = 20000 * kNsPerUs;  // also the backoff ceiling
    // Non-zero: retransmit expiries get a deterministic hash-derived extra
    // delay in [0, backoff/8], keyed by (jitter_seed, offset, attempts) —
    // desynchronizes retransmit storms across flows without any shared RNG
    // stream (and with no generator state to snapshot).
    std::uint64_t jitter_seed = 0;
  };

  struct Segment {
    std::uint64_t offset = 0;
    std::uint32_t length = 0;
    bool retransmit = false;
  };

  ReliableSender(std::uint64_t total_bytes, Config config);

  // The next segment to put on the wire at `now`, if any: an expired
  // unacked segment first, else the next new segment. Marks it in flight.
  // Returns nullopt once the sender has given up (see gave_up()).
  std::optional<Segment> next_segment(TimeNs now);
  // True if some segment is (or will be) pending: not everything is acked.
  bool fully_acked() const { return acked_cumulative_ >= total_ && in_flight_.empty(); }
  // All bytes have been transmitted at least once.
  bool all_sent() const { return next_new_ >= total_; }

  // Processes an ACK: cumulative point + SACK ranges. Pass the receive
  // time to feed the adaptive-RTO estimator; now < 0 skips RTT sampling.
  void on_ack(std::uint64_t cumulative, std::span<const ByteRange> sacks, TimeNs now = -1);

  // Earliest retransmission deadline among in-flight segments, or nullopt
  // when nothing is in flight. (Formerly a -1 sentinel, which silently
  // turned into a huge timestamp when mixed into unsigned arithmetic.)
  std::optional<TimeNs> next_deadline() const;

  // Give-up verdict: a segment exhausted max_retransmits. The sender
  // freezes (next_segment returns nullopt forever); the host decides what
  // to do with the flow — the simulator records an explicit per-flow abort
  // and counts it, instead of the old throw.
  bool gave_up() const { return gave_up_; }
  TimeNs gave_up_at() const { return gave_up_at_; }

  // Current un-backed-off RTO (the estimator output, or the fixed base).
  TimeNs current_rto() const;
  TimeNs srtt() const { return srtt_; }
  std::uint64_t rtt_samples() const { return rtt_samples_; }

  std::uint64_t total_bytes() const { return total_; }
  std::uint64_t retransmissions() const { return retransmissions_; }

  // Snapshot field walk (src/snapshot/persist.h). The Config is the host's
  // to restore (it is part of the run configuration, not mutable state).
  template <class Self, class V>
  static void persist(Self& s, V& v) {
    v.u64(s.total_);
    v.u64(s.next_new_);
    v.u64(s.acked_cumulative_);
    v.u64(s.retransmissions_);
    v.map(s.in_flight_, [&v](auto& offset, auto& seg) {
      v.u64(offset);
      v.u32(seg.length);
      v.i64(seg.expires);
      v.u32(seg.attempts);
      v.i64(seg.sent_at);
    });
    v.flag(s.have_rtt_);
    v.i64(s.srtt_);
    v.i64(s.rttvar_);
    v.u64(s.rtt_samples_);
    v.flag(s.gave_up_);
    v.i64(s.gave_up_at_);
  }

 private:
  struct InFlight {
    std::uint32_t length = 0;
    TimeNs expires = 0;
    int attempts = 1;
    TimeNs sent_at = 0;  // first transmission time (Karn: only attempts==1
                         // segments yield RTT samples)
  };

  // Effective expiry delay for attempt number `attempts` of the segment at
  // `offset`: current_rto() doubled per prior attempt, capped at max_rto,
  // plus the deterministic jitter when configured.
  TimeNs backoff_rto(std::uint64_t offset, int attempts) const;
  void sample_rtt(TimeNs sample);

  std::uint64_t total_;
  Config config_;
  std::uint64_t next_new_ = 0;          // frontier of never-sent data
  std::uint64_t acked_cumulative_ = 0;
  std::map<std::uint64_t, InFlight> in_flight_;  // keyed by offset
  std::uint64_t retransmissions_ = 0;
  bool have_rtt_ = false;
  TimeNs srtt_ = 0;
  TimeNs rttvar_ = 0;
  std::uint64_t rtt_samples_ = 0;
  bool gave_up_ = false;
  TimeNs gave_up_at_ = -1;
};

}  // namespace r2c2
