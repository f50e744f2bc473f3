// RAII profiling spans feeding the metrics registry and the flight
// recorder.
//
// ScopedTimer measures *wall-clock* nanoseconds (the CPU cost of the
// enclosed work — the quantity Fig. 8 cares about) and observes them into
// a Histogram on destruction. Optionally it also brackets the work with
// Begin/End trace events stamped with the caller-supplied *recording
// clock* timestamp (simulation time), putting the span on the per-node
// timeline; the measured wall ns ride along as the End event's arg0.
// With neither a histogram nor a recorder attached it costs two null
// checks.
#pragma once

#include <chrono>
#include <cstdint>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace r2c2::obs {

class ScopedTimer {
 public:
  // Pure profiling: wall-clock duration into `hist` (null = disabled).
  explicit ScopedTimer(Histogram* hist) : hist_(hist) {
    if (hist_ != nullptr) start_ = Clock::now();
  }

  // Profiling + tracing: additionally records a Begin now and an End at
  // destruction, both stamped `sim_ts` (a span of simulated zero width
  // whose wall cost is in the End's arg0).
  ScopedTimer(Histogram* hist, FlightRecorder* rec, TimeNs sim_ts, NodeId node, EventType type,
              std::uint64_t arg0 = 0)
      : hist_(hist), rec_(rec), sim_ts_(sim_ts), node_(node), type_(type) {
    if (hist_ != nullptr || rec_ != nullptr) start_ = Clock::now();
    if (rec_ != nullptr) rec_->record(sim_ts_, node_, type_, EventPhase::kBegin, arg0, 0);
  }

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

  ~ScopedTimer() {
    if (hist_ == nullptr && rec_ == nullptr) return;
    const auto wall_ns = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - start_).count());
    if (hist_ != nullptr) hist_->observe(static_cast<double>(wall_ns));
    if (rec_ != nullptr) rec_->record(sim_ts_, node_, type_, EventPhase::kEnd, wall_ns, 0);
  }

 private:
  using Clock = std::chrono::steady_clock;

  Histogram* hist_ = nullptr;
  FlightRecorder* rec_ = nullptr;
  Clock::time_point start_{};
  TimeNs sim_ts_ = 0;
  NodeId node_ = 0;
  EventType type_ = EventType::kRateRecompute;
};

}  // namespace r2c2::obs
