// Demand estimation for host-limited flows (Section 3.3.2).
//
// A flow sending at a rate higher than its allocation queues at the sender;
// the sender uses that queuing to estimate the flow's demand — the maximum
// rate at which it can actually send:
//
//     d[i+1] = r[i] + q[i] / T
//
// where r[i] is the current allocation, q[i] the queue observed over the
// estimation period T. The estimate is smoothed with an EWMA. When the
// estimate drops below the flow's allocation, the sender broadcasts a
// demand update so all nodes allocate in a demand-aware fashion.
#pragma once

#include "common/stats.h"
#include "common/types.h"

namespace r2c2 {

class DemandEstimator {
 public:
  // `period` is the estimation period T; `ewma_alpha` the smoothing weight
  // of the newest sample.
  explicit DemandEstimator(TimeNs period, double ewma_alpha = 0.25)
      : period_(period), ewma_(ewma_alpha) {}

  // Called once per estimation period with the rate currently allocated to
  // the flow and the sender-side backlog (bytes waiting at the end of the
  // period). Returns the new smoothed demand estimate in bps.
  Bps on_period(Bps allocated_rate, std::uint64_t queued_bytes) {
    const double period_sec = static_cast<double>(period_) / 1e9;
    const double sample = allocated_rate + static_cast<double>(queued_bytes) * 8.0 / period_sec;
    return ewma_.update(sample);
  }

  bool has_estimate() const { return ewma_.initialized(); }
  Bps demand() const { return ewma_.value(); }
  TimeNs period() const { return period_; }

  // Snapshot field walk (src/snapshot/persist.h): the EWMA holds the only
  // mutable state; period and alpha are configuration.
  template <class Self, class V>
  static void persist(Self& s, V& v) {
    Ewma::persist(s.ewma_, v);
  }

 private:
  TimeNs period_;
  Ewma ewma_;
};

}  // namespace r2c2
