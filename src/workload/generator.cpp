#include "workload/generator.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace r2c2 {

namespace {

constexpr double kParetoShape = 1.05;

void pick_endpoints(Rng& rng, std::size_t num_nodes, FlowArrival& f) {
  f.src = static_cast<NodeId>(rng.uniform_int(num_nodes));
  do {
    f.dst = static_cast<NodeId>(rng.uniform_int(num_nodes));
  } while (f.dst == f.src);
}

}  // namespace

std::vector<FlowArrival> generate_poisson_uniform(const WorkloadConfig& config) {
  if (config.num_nodes < 2) throw std::invalid_argument("need at least two nodes");
  Rng rng(config.seed);
  std::vector<FlowArrival> flows;
  flows.reserve(config.num_flows);
  double t = 0.0;
  for (std::size_t i = 0; i < config.num_flows; ++i) {
    FlowArrival f;
    t += rng.exponential(static_cast<double>(config.mean_interarrival));
    f.start = static_cast<TimeNs>(t);
    pick_endpoints(rng, config.num_nodes, f);
    f.bytes = static_cast<std::uint64_t>(rng.pareto_with_mean(kParetoShape, config.mean_bytes));
    f.bytes = std::max(f.bytes, kMinFlowBytes);
    if (config.max_bytes > 0) f.bytes = std::min(f.bytes, config.max_bytes);
    flows.push_back(f);
  }
  return flows;  // arrivals are generated in time order already
}

std::vector<FlowArrival> generate_two_class(const TwoClassConfig& config) {
  if (config.num_nodes < 2) throw std::invalid_argument("need at least two nodes");
  if (config.small_byte_fraction < 0.0 || config.small_byte_fraction > 1.0) {
    throw std::invalid_argument("small_byte_fraction must be in [0, 1]");
  }
  Rng rng(config.seed);
  const double small_total = config.small_byte_fraction * static_cast<double>(config.total_bytes);
  const double large_total = static_cast<double>(config.total_bytes) - small_total;
  const auto n_small = static_cast<std::size_t>(small_total / static_cast<double>(config.small_bytes));
  const auto n_large = static_cast<std::size_t>(
      std::ceil(large_total / static_cast<double>(config.large_bytes)));

  // Interleave the two classes randomly in arrival order.
  std::vector<std::uint64_t> sizes;
  sizes.reserve(n_small + n_large);
  for (std::size_t i = 0; i < n_small; ++i) sizes.push_back(config.small_bytes);
  for (std::size_t i = 0; i < n_large; ++i) sizes.push_back(config.large_bytes);
  for (std::size_t i = sizes.size(); i > 1; --i) std::swap(sizes[i - 1], sizes[rng.uniform_int(i)]);

  std::vector<FlowArrival> flows;
  flows.reserve(sizes.size());
  double t = 0.0;
  for (const std::uint64_t bytes : sizes) {
    FlowArrival f;
    t += rng.exponential(static_cast<double>(config.mean_interarrival));
    f.start = static_cast<TimeNs>(t);
    pick_endpoints(rng, config.num_nodes, f);
    f.bytes = bytes;
    flows.push_back(f);
  }
  return flows;
}

}  // namespace r2c2
