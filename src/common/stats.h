// Small statistics toolkit used by experiments and benches: percentiles,
// CDF extraction, running mean/variance, and EWMA smoothing.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <span>
#include <stdexcept>
#include <vector>

namespace r2c2 {

// Percentile with linear interpolation between order statistics
// (the "exclusive" nearest-rank-interpolated definition used by numpy).
// `q` is in [0, 100]. The input need not be sorted. Copies the sample
// exactly once (into a local sortable buffer).
double percentile(std::span<const double> values, double q);

// By-value overload: sorts its argument in place, so callers that can part
// with their vector (std::move) pay no copy at all.
double percentile(std::vector<double> values, double q);

struct CdfPoint {
  double value = 0.0;
  double cum_prob = 0.0;  // P(X <= value)
};

// Empirical CDF, optionally downsampled to roughly `max_points` points
// (always keeping the first and last). Guarantees: values strictly
// increasing (tied samples collapse into one point), cum_prob
// non-decreasing with P(X <= x) semantics, and the final point is exactly
// {max, 1.0}. Useful for plotting figure data.
std::vector<CdfPoint> empirical_cdf(std::vector<double> values, std::size_t max_points = 200);

// Welford running statistics: numerically stable mean and variance.
class RunningStats {
 public:
  void add(double x) {
    ++n_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (x - mean_);
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }

  std::size_t count() const { return n_; }
  double mean() const { return mean_; }
  double variance() const { return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0; }
  double stddev() const { return std::sqrt(variance()); }
  double min() const { return n_ ? min_ : 0.0; }
  double max() const { return n_ ? max_ : 0.0; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

// Exponentially weighted moving average, used by the demand estimator
// (Section 3.3.2) to smooth noisy per-period demand observations.
class Ewma {
 public:
  explicit Ewma(double alpha) : alpha_(alpha) {
    if (alpha <= 0.0 || alpha > 1.0) throw std::invalid_argument("Ewma alpha must be in (0,1]");
  }

  double update(double sample) {
    if (!initialized_) {
      value_ = sample;
      initialized_ = true;
    } else {
      value_ = alpha_ * sample + (1.0 - alpha_) * value_;
    }
    return value_;
  }

  bool initialized() const { return initialized_; }
  double value() const { return value_; }

  // Snapshot field walk (src/snapshot/persist.h). Alpha is configuration,
  // not state.
  template <class Self, class V>
  static void persist(Self& s, V& v) {
    v.f64(s.value_);
    v.flag(s.initialized_);
  }

 private:
  double alpha_;
  double value_ = 0.0;
  bool initialized_ = false;
};

}  // namespace r2c2
