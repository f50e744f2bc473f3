#include "obs/metrics.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "common/table.h"

namespace r2c2::obs {

namespace {

// Bucket i >= 1 covers [2^(i-1), 2^i); bucket 0 covers [0, 1).
int bucket_of(double v) {
  if (!(v >= 1.0)) return 0;  // also catches NaN
  const auto u = static_cast<std::uint64_t>(std::min(v, 9.2e18));
  return std::min(Histogram::kBuckets - 1, 64 - std::countl_zero(u));
}

double bucket_lo(int b) { return b == 0 ? 0.0 : std::ldexp(1.0, b - 1); }
double bucket_hi(int b) { return b == 0 ? 1.0 : std::ldexp(1.0, b); }

std::string fmt(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

}  // namespace

void Histogram::observe(double v) {
  if (v < 0.0) v = 0.0;
  ++buckets_[static_cast<std::size_t>(bucket_of(v))];
  ++count_;
  sum_ += v;
  min_ = std::min(min_, v);
  max_ = std::max(max_, v);
}

double Histogram::percentile(double q) const {
  if (count_ == 0) return 0.0;
  q = std::clamp(q, 0.0, 100.0);
  const double target = q / 100.0 * static_cast<double>(count_);
  std::uint64_t cum = 0;
  for (int b = 0; b < kBuckets; ++b) {
    const std::uint64_t in_bucket = buckets_[static_cast<std::size_t>(b)];
    if (in_bucket == 0) continue;
    if (static_cast<double>(cum + in_bucket) >= target) {
      // Geometric interpolation within the bucket, clamped to the observed
      // extremes so p0/p100 are exact.
      const double frac =
          in_bucket > 0 ? (target - static_cast<double>(cum)) / static_cast<double>(in_bucket)
                        : 0.0;
      const double lo = std::max(bucket_lo(b), min_);
      const double hi = std::min(bucket_hi(b), max_);
      return std::clamp(lo + (hi - lo) * std::clamp(frac, 0.0, 1.0), min_, max_);
    }
    cum += in_bucket;
  }
  return max_;
}

void Histogram::reset() {
  buckets_.fill(0);
  count_ = 0;
  sum_ = 0.0;
  min_ = std::numeric_limits<double>::infinity();
  max_ = -std::numeric_limits<double>::infinity();
}

void MetricsRegistry::check_unique(std::string_view name, const char* kind) const {
  const bool c = counters_.find(name) != counters_.end();
  const bool g = gauges_.find(name) != gauges_.end();
  const bool h = histograms_.find(name) != histograms_.end();
  if ((c && kind != std::string_view("counter")) || (g && kind != std::string_view("gauge")) ||
      (h && kind != std::string_view("histogram"))) {
    throw std::invalid_argument("metric name registered with a different kind: " +
                                std::string(name));
  }
}

Counter& MetricsRegistry::counter(std::string_view name) {
  check_unique(name, "counter");
  const auto it = counters_.find(name);
  if (it != counters_.end()) return it->second;
  return counters_.try_emplace(std::string(name)).first->second;
}

Gauge& MetricsRegistry::gauge(std::string_view name) {
  check_unique(name, "gauge");
  const auto it = gauges_.find(name);
  if (it != gauges_.end()) return it->second;
  return gauges_.emplace(std::string(name), Gauge{}).first->second;
}

Histogram& MetricsRegistry::histogram(std::string_view name) {
  check_unique(name, "histogram");
  const auto it = histograms_.find(name);
  if (it != histograms_.end()) return it->second;
  return histograms_.emplace(std::string(name), Histogram{}).first->second;
}

const Counter* MetricsRegistry::find_counter(std::string_view name) const {
  const auto it = counters_.find(name);
  return it == counters_.end() ? nullptr : &it->second;
}

const Gauge* MetricsRegistry::find_gauge(std::string_view name) const {
  const auto it = gauges_.find(name);
  return it == gauges_.end() ? nullptr : &it->second;
}

const Histogram* MetricsRegistry::find_histogram(std::string_view name) const {
  const auto it = histograms_.find(name);
  return it == histograms_.end() ? nullptr : &it->second;
}

void MetricsRegistry::print(std::ostream& os) const {
  Table table({"metric", "kind", "count", "value/mean", "p50", "p99", "max"});
  for (const auto& [name, c] : counters_) {
    table.add_row(name, "counter", "", std::to_string(c.value()), "", "", "");
  }
  for (const auto& [name, g] : gauges_) {
    table.add_row(name, "gauge", "", fmt(g.value()), "", "", "");
  }
  for (const auto& [name, h] : histograms_) {
    table.add_row(name, "histogram", std::to_string(h.count()), fmt(h.mean()),
                  fmt(h.percentile(50)), fmt(h.percentile(99)), fmt(h.max()));
  }
  table.print(os);
}

std::string MetricsRegistry::to_json() const {
  std::ostringstream os;
  os << "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, c] : counters_) {
    os << (first ? "\n" : ",\n") << "    \"" << name << "\": " << c.value();
    first = false;
  }
  os << (first ? "" : "\n  ") << "},\n  \"gauges\": {";
  first = true;
  for (const auto& [name, g] : gauges_) {
    os << (first ? "\n" : ",\n") << "    \"" << name << "\": " << fmt(g.value());
    first = false;
  }
  os << (first ? "" : "\n  ") << "},\n  \"histograms\": {";
  first = true;
  for (const auto& [name, h] : histograms_) {
    os << (first ? "\n" : ",\n") << "    \"" << name << "\": {\"count\": " << h.count()
       << ", \"mean\": " << fmt(h.mean()) << ", \"min\": " << fmt(h.min())
       << ", \"p50\": " << fmt(h.percentile(50)) << ", \"p99\": " << fmt(h.percentile(99))
       << ", \"max\": " << fmt(h.max()) << "}";
    first = false;
  }
  os << (first ? "" : "\n  ") << "}\n}\n";
  return os.str();
}

bool MetricsRegistry::write_json(const std::string& path) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::string json = to_json();
  const bool ok = std::fwrite(json.data(), 1, json.size(), f) == json.size();
  return std::fclose(f) == 0 && ok;
}

void MetricsRegistry::reset() {
  for (auto& [name, c] : counters_) c.reset();
  for (auto& [name, g] : gauges_) g.set(0.0);
  for (auto& [name, h] : histograms_) h.reset();
}

}  // namespace r2c2::obs
