// Per-flow and per-queue measurements shared by all simulated transports.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "common/stats.h"
#include "common/types.h"

namespace r2c2::sim {

struct FlowRecord {
  FlowId id = 0;
  NodeId src = 0;
  NodeId dst = 0;
  std::uint64_t bytes = 0;
  TimeNs arrival = 0;      // when the application opened the flow
  TimeNs completed = -1;   // when the last byte was received (-1: unfinished)
  std::uint32_t max_reorder_pkts = 0;  // receiver reorder-buffer high-water mark
  // Time-weighted average of the control plane's assigned rate over the
  // sending lifetime (R2C2 only; Figs. 15/16 compare it across rho values).
  double avg_assigned_rate_bps = 0.0;
  // Explicit transport give-up: the reliable sender exhausted its
  // retransmission budget and the flow was torn down without completing.
  // Distinct from "unfinished" (the run simply ended first): an aborted
  // flow is *resolved* — the invariant checkers treat it as accounted for.
  bool aborted = false;
  TimeNs aborted_at = -1;

  bool finished() const { return completed >= 0; }
  // Finished or explicitly aborted: the flow's fate is known.
  bool resolved() const { return finished() || aborted; }
  TimeNs fct() const { return completed - arrival; }
  // Average goodput over the flow's lifetime, in bps.
  double throughput_bps() const {
    const TimeNs d = fct();
    return d > 0 ? static_cast<double>(bytes) * 8.0 * 1e9 / static_cast<double>(d) : 0.0;
  }

  // Field walk (src/snapshot/persist.h): archived by R2c2Sim, mixed into
  // snapshot::metrics_digest.
  template <class Self, class V>
  static void persist(Self& s, V& v) {
    v.u32(s.id);
    v.u16(s.src);
    v.u16(s.dst);
    v.u64(s.bytes);
    v.i64(s.arrival);
    v.i64(s.completed);
    v.u32(s.max_reorder_pkts);
    v.f64(s.avg_assigned_rate_bps);
    v.flag(s.aborted);
    v.i64(s.aborted_at);
  }
};

// One fault-to-recovery episode (Section 3.2 made dynamic): a cable fails
// (or is restored) at `injected_at`; keepalive deadlines detect it at
// `detected_at`; the control plane finishes rebuilding topology, routes and
// broadcast trees at `recovered_at`; and `reconverged_at` stamps the moment
// the post-recovery flow rebroadcasts have fully propagated, i.e. every
// view agrees again (view_hash agreement in the per-stack world; the
// last-copy-delivered shared view in the simulator). -1 = did not happen.
struct RecoveryRecord {
  LinkId link = kInvalidLink;  // one direction of the affected cable
  bool failure = true;         // false: a restore episode
  TimeNs injected_at = -1;     // -1 for false-positive detections
  TimeNs detected_at = -1;
  TimeNs recovered_at = -1;
  TimeNs reconverged_at = -1;

  TimeNs detection_ns() const { return detected_at - injected_at; }
  TimeNs reconvergence_ns() const { return reconverged_at - injected_at; }

  // Field walk (src/snapshot/persist.h): archived by R2c2Sim, mixed into
  // snapshot::metrics_digest.
  template <class Self, class V>
  static void persist(Self& s, V& v) {
    v.u32(s.link);
    v.flag(s.failure);
    v.i64(s.injected_at);
    v.i64(s.detected_at);
    v.i64(s.recovered_at);
    v.i64(s.reconverged_at);
  }
};

struct RunMetrics {
  std::vector<FlowRecord> flows;
  std::vector<std::uint64_t> max_queue_bytes;  // per directed link
  std::uint64_t data_bytes_on_wire = 0;
  std::uint64_t control_bytes_on_wire = 0;
  std::uint64_t drops = 0;
  std::uint64_t events = 0;
  TimeNs sim_end = 0;

  // --- Fault injection & self-healing (zero unless faults are enabled) ---
  std::vector<RecoveryRecord> recoveries;
  std::uint64_t failures_injected = 0;
  std::uint64_t restores_injected = 0;
  std::uint64_t failures_detected = 0;   // cable-level keepalive timeouts
  std::uint64_t restores_detected = 0;   // keepalives resumed on a down cable
  std::uint64_t context_rebuilds = 0;    // topology/router/trees rebuilt mid-run
  std::uint64_t flows_rebroadcast = 0;   // flow re-announcements after recovery
  std::uint64_t failed_link_drops = 0;   // packets blackholed by down links
  // Corruption accounting, split by traffic class.
  std::uint64_t corrupted_control = 0;
  std::uint64_t corrupted_data = 0;
  // View-divergence counters (lease/GC protocol, Section 3.1 hardening).
  std::uint64_t ghost_flows_expired = 0;   // stale entries lease-GC collected
  std::uint64_t lease_refreshes_sent = 0;  // periodic re-advertisements
  // --- Gray-failure handling (zero unless degradation/adaptive knobs on) ---
  std::uint64_t gray_drops = 0;       // packets lost to loss-prob/flap degradation
  std::uint64_t flow_aborts = 0;      // reliable senders that gave up (surfaced)
  std::uint64_t links_demoted = 0;    // suspicion crossings: link penalized
  std::uint64_t links_cleared = 0;    // hysteresis clearings: penalty lifted

  // Convenience selectors used by the figures: FCTs (us) of flows smaller
  // than `cutoff` and throughputs (Gbps) of flows at least `cutoff` bytes.
  std::vector<double> short_flow_fct_us(std::uint64_t cutoff = kShortFlowCutoffBytes) const {
    std::vector<double> v;
    for (const FlowRecord& f : flows) {
      if (f.finished() && f.bytes < cutoff) v.push_back(static_cast<double>(f.fct()) / 1e3);
    }
    return v;
  }
  std::vector<double> long_flow_tput_gbps(std::uint64_t cutoff = 1024 * 1024) const {
    std::vector<double> v;
    for (const FlowRecord& f : flows) {
      if (f.finished() && f.bytes >= cutoff) v.push_back(f.throughput_bps() / 1e9);
    }
    return v;
  }
};

// View-divergence measure across nodes: the number of distinct view hashes
// among the per-node flow tables. 1 means the control plane has
// reconverged (every node sees the same traffic matrix); larger values
// count the divergent cliques during a broadcast or recovery transient.
inline std::size_t distinct_view_hashes(std::span<const std::uint64_t> hashes) {
  std::vector<std::uint64_t> sorted(hashes.begin(), hashes.end());
  std::sort(sorted.begin(), sorted.end());
  return static_cast<std::size_t>(std::unique(sorted.begin(), sorted.end()) - sorted.begin());
}

// Tracks the receiver-side reorder buffer of one flow: number of packets
// buffered because an earlier packet is still missing (Section 5.2 reports
// its 95th percentile and max).
class ReorderTracker {
 public:
  // Called for each arriving packet with its 0-based packet index; returns
  // the current buffer occupancy after this arrival.
  std::uint32_t on_packet(std::uint32_t pkt_index) {
    if (pkt_index == next_) {
      ++next_;
      // Drain buffered in-order packets.
      while (!buffered_.empty()) {
        auto it = std::find(buffered_.begin(), buffered_.end(), next_);
        if (it == buffered_.end()) break;
        // Swap-remove: order within the buffer does not matter.
        *it = buffered_.back();
        buffered_.pop_back();
        ++next_;
      }
    } else if (pkt_index > next_) {
      buffered_.push_back(pkt_index);
    }  // duplicates / stale retransmits are ignored
    max_depth_ = std::max(max_depth_, static_cast<std::uint32_t>(buffered_.size()));
    return static_cast<std::uint32_t>(buffered_.size());
  }

  std::uint32_t max_depth() const { return max_depth_; }

  // Snapshot field walk (src/snapshot/persist.h). The buffer is archived
  // verbatim: its internal order is a deterministic function of arrival
  // history, and swap-removal makes it order-sensitive going forward.
  template <class Self, class V>
  static void persist(Self& s, V& v) {
    v.u32(s.next_);
    v.u32(s.max_depth_);
    v.seq(s.buffered_, [&v](auto& p) { v.u32(p); });
  }

 private:
  std::uint32_t next_ = 0;
  std::vector<std::uint32_t> buffered_;
  std::uint32_t max_depth_ = 0;
};

}  // namespace r2c2::sim
