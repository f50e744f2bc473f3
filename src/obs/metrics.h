// Metrics registry: named counters, gauges and fixed-log-bucket histograms
// registered by subsystem ("r2c2.fault.context_rebuilds",
// "stack.recompute.wall_ns", ...). Registration (get-or-create by name)
// may allocate; updating a metric through the returned reference never
// does — counters are a single add, histograms bump one of 64
// power-of-two buckets, so hot paths can hold a pointer and pay a couple
// of stores per update.
//
// Snapshots go two ways: print() renders the registry through the
// existing fixed-width Table printer (src/common/table.h), and to_json()
// emits a machine-readable dump (committed as bench baselines and
// uploaded from CI).
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <limits>
#include <map>
#include <string>
#include <string_view>

namespace r2c2::obs {

// Counters take relaxed atomic increments: shard-lane simulation code
// bumps them concurrently inside the engine's parallel windows, and sums
// commute, so the value at any window barrier is deterministic. The
// registry's maps are node-based, so the (now immovable) counter objects
// are constructed in place and their addresses stay stable.
class Counter {
 public:
  void add(std::uint64_t delta = 1) { value_.fetch_add(delta, std::memory_order_relaxed); }
  void reset() { value_.store(0, std::memory_order_relaxed); }
  std::uint64_t value() const { return value_.load(std::memory_order_relaxed); }

  // Snapshot field walk (src/snapshot/persist.h).
  template <class Self, class V>
  static void persist(Self& s, V& v) {
    v.u64(s.value_);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

class Gauge {
 public:
  void set(double v) { value_ = v; }
  double value() const { return value_; }

 private:
  double value_ = 0.0;
};

// Histogram over non-negative doubles with fixed logarithmic (power-of-two)
// buckets: bucket 0 holds values < 1, bucket i (i >= 1) holds
// [2^(i-1), 2^i). 64 buckets cover up to 2^63 — ample for nanosecond
// durations and byte counts. observe() is allocation-free; quantiles are
// approximate (geometric interpolation inside the hit bucket), which is
// the usual trade for never touching the allocator per sample.
class Histogram {
 public:
  static constexpr int kBuckets = 64;

  void observe(double v);

  std::uint64_t count() const { return count_; }
  double sum() const { return sum_; }
  double mean() const { return count_ > 0 ? sum_ / static_cast<double>(count_) : 0.0; }
  double min() const { return count_ > 0 ? min_ : 0.0; }
  double max() const { return count_ > 0 ? max_ : 0.0; }
  // Approximate quantile, q in [0, 100].
  double percentile(double q) const;
  std::uint64_t bucket_count(int bucket) const { return buckets_[static_cast<std::size_t>(bucket)]; }

  void reset();

  // Snapshot field walk (src/snapshot/persist.h): buckets, count, sum and
  // extremes archive verbatim, so a restored histogram reports identical
  // quantiles. Used by state that must survive snapshot/resume (the service
  // layer's per-tenant latency histograms); registry-owned histograms stay
  // unarchived.
  template <class Self, class V>
  static void persist(Self& s, V& v) {
    for (auto& b : s.buckets_) v.u64(b);
    v.u64(s.count_);
    v.f64(s.sum_);
    v.f64(s.min_);
    v.f64(s.max_);
  }

 private:
  std::array<std::uint64_t, kBuckets> buckets_{};
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

// Get-or-create registry keyed by metric name. Backed by node-based maps,
// so the returned references stay valid for the registry's lifetime —
// subsystems bind them once at construction and update through them.
// Names use dotted "subsystem.metric" form; a name identifies exactly one
// kind (asking for a counter named like an existing gauge throws).
class MetricsRegistry {
 public:
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name);

  const Counter* find_counter(std::string_view name) const;
  const Gauge* find_gauge(std::string_view name) const;
  const Histogram* find_histogram(std::string_view name) const;

  std::size_t size() const { return counters_.size() + gauges_.size() + histograms_.size(); }

  // Fixed-width table of every metric (histograms show count/mean/p50/p99/max).
  void print(std::ostream& os) const;
  // {"counters": {...}, "gauges": {...}, "histograms": {name: {count, mean, ...}}}
  std::string to_json() const;
  bool write_json(const std::string& path) const;

  void reset();

 private:
  void check_unique(std::string_view name, const char* kind) const;

  std::map<std::string, Counter, std::less<>> counters_;
  std::map<std::string, Gauge, std::less<>> gauges_;
  std::map<std::string, Histogram, std::less<>> histograms_;
};

}  // namespace r2c2::obs
