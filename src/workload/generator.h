// Synthetic flow workloads modeled after production datacenter traffic
// (Section 5: Poisson arrivals; Pareto sizes, shape 1.05, mean 100 KB —
// heavy-tailed, ~95% of flows < 100 KB) plus the two-class small/large
// workload used by the broadcast-overhead experiment (Fig. 9).
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "common/types.h"

namespace r2c2 {

struct FlowArrival {
  TimeNs start = 0;
  NodeId src = 0;
  NodeId dst = 0;
  std::uint64_t bytes = 0;
  double weight = 1.0;
  std::uint8_t priority = 0;
  // Per-flow routing-algorithm override: -1 uses the simulation config's
  // route_alg; >= 0 is a RouteAlg value. Lets a GA-computed assignment
  // (control/route_selection.h) drive individual flows.
  std::int8_t alg = -1;
};

// Flow sizes are Pareto(1.05)-distributed (heavy tail) and floored at
// kMinFlowBytes.
inline constexpr std::uint64_t kMinFlowBytes = 64;

struct WorkloadConfig {
  std::size_t num_nodes = 0;
  std::size_t num_flows = 0;
  // Poisson arrivals: exponential inter-arrival with this mean.
  TimeNs mean_interarrival = 1 * kNsPerUs;
  // The paper's mean flow size coincides with the stack-wide short-flow
  // boundary (common/types.h): ~95% of Pareto(1.05) draws land below it.
  double mean_bytes = static_cast<double>(kShortFlowCutoffBytes);
  // The Pareto(1.05) tail is effectively unbounded; real traces top out and
  // unbounded samples make run times unpredictable, so sizes are capped
  // (default 30 MB, around the paper's "95% of bytes in flows > 35 MB"
  // regime). Set to 0 for no cap.
  std::uint64_t max_bytes = 30ull << 20;
  std::uint64_t seed = 42;
};

// Flows with uniformly random (src != dst) endpoints, Poisson arrivals and
// Pareto sizes, sorted by start time.
std::vector<FlowArrival> generate_poisson_uniform(const WorkloadConfig& config);

// Fig. 9's two-class workload: `small_bytes`-sized and `large_bytes`-sized
// flows mixed so that `small_byte_fraction` of all bytes belong to small
// flows. Arrivals Poisson, endpoints uniform.
struct TwoClassConfig {
  std::size_t num_nodes = 0;
  double small_byte_fraction = 0.05;
  std::uint64_t small_bytes = 10 * 1024;        // "80% of flows < 10 KB" [25]
  std::uint64_t large_bytes = 35ull << 20;      // "95% of bytes in flows > 35 MB" [25]
  std::uint64_t total_bytes = 10ull << 30;      // bytes to generate overall
  TimeNs mean_interarrival = 1 * kNsPerUs;
  std::uint64_t seed = 42;
};
std::vector<FlowArrival> generate_two_class(const TwoClassConfig& config);

}  // namespace r2c2
