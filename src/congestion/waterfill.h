// Rate computation for R2C2's congestion control (Section 3.3).
//
// Given global visibility of all flows (from broadcast), the rack topology,
// and each flow's routing protocol, every node can independently compute
// the fair sending rate of every flow. The routing protocol dictates a
// flow's relative rate across its paths (Fig. 3), so allocation happens at
// flow granularity irrespective of how many paths a flow uses: flow f's
// load on link l is rate(f) * fraction(f, l), where the fractions come
// from Router::link_weights.
//
// The allocator is a weighted, prioritized, demand-aware water-filling
// (progressive filling [12]): all unfrozen flows' rates grow proportionally
// to their weights until a link saturates or a flow hits its demand; those
// flows freeze and filling continues. Priorities are strict: each priority
// level is allocated in its own round over the residual capacities
// (Section 3.3.2). A configurable headroom fraction is subtracted from
// every link's capacity to absorb flows whose start broadcast is still in
// flight (Section 3.3.2).
//
// This is the hottest kernel in the repository: every node re-runs it each
// recomputation interval rho (Fig. 8), and the Section 3.4 genetic
// algorithm calls it thousands of times per generation as its fitness
// function (Fig. 18). The fast path therefore separates the *problem*
// (per-flow link weights flattened into a CSR layout, built once per flow
// set) from the *scratch* (every per-call vector, owned by the caller and
// reused), and finds the next saturation event with incrementally
// maintained minima instead of a per-iteration linear scan. Steady-state
// calls perform no heap allocation. The straightforward O(N*L + N^2)
// implementation is kept as waterfill_reference() for differential testing.
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "common/types.h"
#include "routing/routing.h"

namespace r2c2 {

inline constexpr Bps kUnlimitedDemand = std::numeric_limits<Bps>::infinity();

// Everything the allocator needs to know about one flow. This mirrors the
// contents of the flow-start broadcast packet plus the sender-side demand
// estimate.
struct FlowSpec {
  FlowId id = 0;
  NodeId src = 0;
  NodeId dst = 0;
  RouteAlg alg = RouteAlg::kRps;
  double weight = 1.0;
  std::uint8_t priority = 0;  // 0 = highest; strictly served first
  Bps demand = kUnlimitedDemand;

  // Snapshot field walk (src/snapshot/persist.h), shared by every archive
  // that holds a flow spec.
  template <class Self, class V>
  static void persist(Self& s, V& v) {
    v.u32(s.id);
    v.u16(s.src);
    v.u16(s.dst);
    v.enum8(s.alg, RouteAlg::kEcmp);
    v.f64(s.weight);
    v.u8(s.priority);
    v.f64(s.demand);
  }
};

struct AllocationConfig {
  // Fraction of every link's capacity reserved as headroom (Section 3.3.2);
  // the paper finds 5% sufficient even for bursty traffic.
  double headroom = 0.05;
};

struct RateAllocation {
  std::vector<Bps> rate;  // parallel to the input flow span
  int iterations = 0;     // water-filling freeze rounds (diagnostics)
};

// An immutable-topology waterfill instance: the flow set's link weights
// flattened into a CSR layout (contiguous link/weighted-fraction arrays
// with per-row offsets), the link->row index (for each link, the rows that
// cross it, in ascending row order), plus the per-flow scalars and the
// headroom-reduced link capacities. Build once per flow set, solve many
// times.
//
// Rows can be built with *variants*: one row per (flow, protocol choice),
// and each solve takes every flow's choice as an argument, so the GA scores
// any genotype without touching the Router or the problem. A solve never
// writes the problem: any number of threads may solve one problem at once,
// each with its own scratch and output. The problem must be rebuilt
// whenever the topology, the flow set, or any per-flow scalar (weight,
// priority, demand) changes.
class WaterfillProblem {
 public:
  WaterfillProblem() = default;

  // One row per flow, using each flow's own .alg. Reuses existing vector
  // capacity, so periodic rebuilds stop allocating once warmed up.
  void build(const Router& router, std::span<const FlowSpec> flows,
             const AllocationConfig& config = {});

  // One row per (flow, choice). The flows' own .alg fields are ignored (the
  // caller drives selection, as in route selection where the genotype
  // overrides the current assignment).
  void build_with_choices(const Router& router, std::span<const FlowSpec> flows,
                          std::span<const RouteAlg> choices,
                          const AllocationConfig& config = {});

  std::size_t num_flows() const { return n_flows_; }
  std::size_t num_choices() const { return n_choices_; }
  std::size_t num_links() const { return cap_.size(); }

 private:
  friend void waterfill(const WaterfillProblem&, std::span<const std::uint8_t>,
                        struct WaterfillScratch&, RateAllocation&);

  void build_rows(const Router& router, std::span<const FlowSpec> flows,
                  std::span<const RouteAlg> choices, const AllocationConfig& config);

  // CSR over (flow, choice) rows: row r = f * n_choices + c covers csr
  // entries [row_off_[r], row_off_[r+1]).
  std::vector<LinkId> csr_link_;
  std::vector<double> csr_wfrac_;       // flow weight * link fraction
  std::vector<std::uint32_t> row_off_;  // n_flows * n_choices + 1 offsets
  // Link->row index, the CSR transposed: link l's rows are entries
  // [lnk_row_off_[l], lnk_row_off_[l+1]), each named by its flow and choice.
  std::vector<std::uint32_t> lnk_row_off_;  // n_links + 1 offsets
  std::vector<std::uint32_t> lnk_flow_;
  std::vector<std::uint8_t> lnk_choice_;
  // Per-flow scalars (indexed by input position).
  std::vector<double> weight_;
  std::vector<double> demand_;          // clamped >= 0; +inf when unlimited
  std::vector<std::uint8_t> active_;    // 0: src == dst or weight <= 0
  std::vector<std::uint32_t> order_;    // active flows, stably sorted by priority
  std::vector<std::uint8_t> priority_;  // parallel to the input span
  // Per-link scalars.
  std::vector<double> cap_;      // bandwidth * (1 - headroom)
  std::vector<double> sat_eps_;  // saturation threshold (matches reference)
  std::size_t n_flows_ = 0;
  std::size_t n_choices_ = 1;
};

// Caller-owned reusable arena for waterfill(). All per-call vectors live
// here; after the first solve of a given problem size, subsequent solves
// allocate nothing. Thread-compatible, not thread-safe: use one scratch
// per thread. A scratch carries no problem state between calls — any
// scratch works with any problem.
struct WaterfillScratch {
  // Per-link state.
  std::vector<double> resid;       // residual capacity, valid at theta_mark
  std::vector<double> theta_mark;  // water level at which resid was materialized
  std::vector<double> denom;       // sum of active weight*fraction this class
  std::vector<std::uint32_t> link_ver;  // bumped whenever denom changes
  std::vector<std::uint8_t> in_class;   // link touched by the current class
  std::vector<LinkId> touched;
  // Next-saturation-event min-heap with lazy (versioned) invalidation.
  struct SatEvent {
    double theta;       // saturation water level when pushed (a lower bound)
    LinkId link;
    std::uint32_t ver;  // stale when != link_ver[link]
  };
  std::vector<SatEvent> heap;
  // Per-class flow state.
  std::vector<std::uint32_t> cls;           // flow indices in the class
  std::vector<std::uint8_t> frozen;         // indexed by flow position
  std::vector<std::uint32_t> demand_order;  // finite-demand flows, sorted
};

// Zero-allocation fast path: solves `problem` into `out.rate` (resized to
// the flow count) using `scratch` for all working memory, with flow f on
// its row choice[f]. An empty `choice` selects choice 0 for every flow.
// Deterministic: repeated calls with the same problem and choices produce
// bit-identical rates.
void waterfill(const WaterfillProblem& problem, std::span<const std::uint8_t> choice,
               WaterfillScratch& scratch, RateAllocation& out);

// Choice 0 for every flow: the one row per flow that build() makes.
inline void waterfill(const WaterfillProblem& problem, WaterfillScratch& scratch,
                      RateAllocation& out) {
  waterfill(problem, {}, scratch, out);
}

// Convenience wrapper: builds a problem and scratch per call. Prefer the
// problem/scratch overloads anywhere called repeatedly.
RateAllocation waterfill(const Router& router, std::span<const FlowSpec> flows,
                         const AllocationConfig& config = {});

// The original straightforward allocator, kept verbatim as the oracle for
// differential testing (tests/waterfill_diff_test.cpp). O(N*L + N^2).
RateAllocation waterfill_reference(const Router& router, std::span<const FlowSpec> flows,
                                   const AllocationConfig& config = {});

// Total load placed on each link by `flows` sending at `rates`; useful for
// computing utilization and asserting feasibility. Indexed by LinkId.
std::vector<double> link_loads(const Router& router, std::span<const FlowSpec> flows,
                               std::span<const Bps> rates);

// Largest uniform injection rate (bps per flow) at which `flows`, all
// sending at the same rate, fit the network: min over links of
// capacity / sum-of-fractions. This is the saturation throughput used by
// the Fig. 2 routing-algorithm comparison.
Bps saturation_rate(const Router& router, std::span<const FlowSpec> flows);

}  // namespace r2c2
