// Dynamic selection of routing protocols (Section 3.4).
//
// R2C2 periodically re-assigns the routing protocol of long flows to
// maximize a provider-chosen *global* utility (optimizing a global metric
// rather than selfish per-flow choices avoids price-of-anarchy loss [42]).
// The search space is combinatorial (one protocol choice per flow) with
// many local maxima, so the paper uses a genetic algorithm: genotypes are
// per-flow protocol assignments, fitness is the utility computed with the
// Section 3.3 rate computation, and new generations combine elitism,
// crossover and mutation.
//
// Beyond the paper's GA this module provides the searchers production
// operators actually run: a simulated-annealing baseline of single-gene
// flips through the same memoized fitness, a GA + local-search hybrid
// (memetic step on elites), and a scalarized multi-objective utility that
// trades aggregate (mean) against min (tail) throughput. Hill-climbing
// and random-search baselines are kept both as the heuristics the paper
// rejected and as ablation comparators; exhaustive search is available
// for tiny instances (tests).
#pragma once

#include <cstdint>
#include <deque>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "congestion/waterfill.h"
#include "routing/routing.h"

namespace r2c2 {

class ThreadPool;

namespace obs {
class MetricsRegistry;
}

namespace detail {

// Fitness memo for the GA: genotypes recur constantly (elites reappear
// every generation; crossover reproduces known children), so utilities are
// cached. Keyed by a 64-bit FNV-1a hash of the genotype but storing the
// genotype itself: a hash collision is detected by comparison and gets its
// own entry rather than silently returning another genotype's fitness.
// The hash is passed in explicitly so tests can force two genotypes into
// one bucket (tests/parallel_determinism_test.cpp).
//
// The memo is bounded: entries are accounted at genes + kEntryOverhead
// bytes each, and inserts past the byte or entry budget evict the oldest
// entries FIFO (never the entry just inserted). Eviction order depends
// only on insertion order — which the batch evaluator fixes independently
// of thread count — so a bounded memo stays bit-invisible to the parallel
// plane (an evicted genotype that recurs is simply re-evaluated, at every
// thread count alike). Hit/miss classification is done by the caller
// (record_hit/record_miss) so batch dedup can count in-batch repeats as
// the hits they would have been under one-at-a-time evaluation.
class FitnessMemo {
 public:
  // Per-entry fixed cost charged on top of the genotype bytes (hash-map
  // node, bookkeeping); keeps the byte budget honest for short genotypes.
  static constexpr std::size_t kEntryOverhead = 64;
  static constexpr std::size_t kDefaultMaxBytes = 64u << 20;

  // 0 = unlimited for either budget.
  explicit FitnessMemo(std::size_t max_bytes = kDefaultMaxBytes, std::size_t max_entries = 0)
      : max_bytes_(max_bytes), max_entries_(max_entries) {}

  static std::uint64_t hash(std::span<const std::uint8_t> genes) {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (std::uint8_t v : genes) h = (h ^ v) * 0x100000001b3ULL;
    return h;
  }

  const double* find(std::uint64_t h, std::span<const std::uint8_t> genes) const {
    const auto it = buckets_.find(h);
    if (it == buckets_.end()) return nullptr;
    for (const Entry& e : it->second) {
      if (e.genes.size() == genes.size() &&
          std::equal(genes.begin(), genes.end(), e.genes.begin())) {
        return &e.fitness;
      }
    }
    return nullptr;
  }

  void insert(std::uint64_t h, std::span<const std::uint8_t> genes, double fitness) {
    buckets_[h].push_back(Entry{{genes.begin(), genes.end()}, fitness, seq_});
    fifo_.push_back(FifoRef{h, seq_});
    ++seq_;
    ++entries_;
    bytes_ += genes.size() + kEntryOverhead;
    while (entries_ > 1 && ((max_bytes_ != 0 && bytes_ > max_bytes_) ||
                            (max_entries_ != 0 && entries_ > max_entries_))) {
      evict_oldest();
    }
  }

  void record_hit() { ++hits_; }
  void record_miss() { ++misses_; }

  std::size_t size() const { return entries_; }
  std::size_t bytes() const { return bytes_; }

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    std::size_t entries = 0;
    std::size_t bytes = 0;
  };
  Stats stats() const { return {hits_, misses_, evictions_, entries_, bytes_}; }

 private:
  struct Entry {
    std::vector<std::uint8_t> genes;
    double fitness = 0.0;
    std::uint64_t seq = 0;  // insertion order, for FIFO eviction
  };
  struct FifoRef {
    std::uint64_t hash = 0;
    std::uint64_t seq = 0;
  };

  void evict_oldest() {
    const FifoRef victim = fifo_.front();
    fifo_.pop_front();
    const auto it = buckets_.find(victim.hash);
    for (auto e = it->second.begin(); e != it->second.end(); ++e) {
      if (e->seq != victim.seq) continue;
      bytes_ -= e->genes.size() + kEntryOverhead;
      it->second.erase(e);
      break;
    }
    if (it->second.empty()) buckets_.erase(it);
    --entries_;
    ++evictions_;
  }

  std::unordered_map<std::uint64_t, std::vector<Entry>> buckets_;
  std::deque<FifoRef> fifo_;  // insertion order across all buckets
  std::size_t max_bytes_ = 0;
  std::size_t max_entries_ = 0;
  std::size_t entries_ = 0;
  std::size_t bytes_ = 0;
  std::uint64_t seq_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t evictions_ = 0;
};

}  // namespace detail

enum class UtilityKind {
  kAggregateThroughput,  // sum of allocated rates (rack throughput)
  kMinThroughput,        // tail: the worst flow's rate
  // Scalarized multi-objective blend: with w = SelectionConfig::
  // blend_min_weight, utility = (1-w)*sum(rates) + w*n*min(rates). The
  // min term is scaled by the flow count so both objectives are
  // commensurate (sum ~ n*mean); w=0 degenerates to aggregate, w=1 to
  // n * min-throughput. Lets selection trade mean against p99.
  kBlended,
};

// Utility of assigning `assignment[i]` to flows[i]. The flows' own .alg
// fields are ignored in favor of the assignment. `blend_min_weight` is
// only read for UtilityKind::kBlended.
double route_assignment_utility(const Router& router, std::span<const FlowSpec> flows,
                                std::span<const RouteAlg> assignment, UtilityKind kind,
                                const AllocationConfig& alloc = {},
                                double blend_min_weight = 0.5);

struct SelectionConfig {
  // Protocols the selector may choose from. The paper's evaluation uses
  // {RPS, VLB}; any subset of the implemented protocols works.
  std::vector<RouteAlg> choices{RouteAlg::kRps, RouteAlg::kVlb};
  UtilityKind utility = UtilityKind::kAggregateThroughput;
  // Weight of the min-throughput term under UtilityKind::kBlended, in
  // [0, 1]; ignored for the single-objective kinds.
  double blend_min_weight = 0.5;
  AllocationConfig alloc{};
  std::uint64_t seed = 1;

  // Genetic-algorithm parameters (paper: population 100; the per-gene
  // mutation probability is fixed at the paper's 0.01).
  int population = 100;
  int max_generations = 60;
  int stall_generations = 12;  // stop early when no improvement

  // Budget for random search / hill climbing / simulated annealing, in
  // utility evaluations. The hybrid also stops once it crosses this many
  // evaluations when the value is > 0 (checked at generation boundaries,
  // so it may overshoot by at most one generation's batch).
  int eval_budget = 2000;

  // Fitness memo entry budget (entries evicted FIFO past it; 0 =
  // unlimited); the byte budget is FitnessMemo::kDefaultMaxBytes.
  // Eviction is deterministic and thread-count independent, but a budget
  // small enough to evict changes `evaluations` versus an unbounded run.
  std::size_t memo_max_entries = 0;

  // Fitness-evaluation parallelism for the GA. Each generation's distinct
  // un-memoized genotypes are solved concurrently against one shared
  // waterfill problem, each pool lane with its own scratch, before the
  // next generation is bred; the result (assignment, utility, evaluation
  // count) is bit-identical for every thread count, including 1 (see
  // DESIGN.md "Threading model"). threads <= 1 runs serially. When `pool`
  // is non-null it is used and `threads` is ignored; otherwise a
  // temporary pool with threads - 1 workers is spun up for the call.
  int threads = 1;
  ThreadPool* pool = nullptr;

  // Optional sink for memo/evaluator counters ("ga.memo.*", "ga.eval.*"),
  // published once per search.
  obs::MetricsRegistry* metrics = nullptr;
};

struct SelectionResult {
  std::vector<RouteAlg> assignment;  // parallel to the input flows
  double utility = 0.0;
  int evaluations = 0;  // utility computations spent

  // Evaluator diagnostics. `solves` equals the number of waterfill solves
  // (= memo misses) and is part of the determinism contract like
  // `evaluations`; the lane_* vectors depend on timing, so they
  // legitimately vary with thread count and are excluded from bit-identity
  // gates.
  struct Stats {
    std::uint64_t solves = 0;
    // Always 0: a solve takes its genotype whole and flips no genes. Kept
    // because rackbench still reports it as control.delta_genes_per_solve.
    std::uint64_t delta_genes = 0;
    std::uint64_t memo_hits = 0;
    std::uint64_t memo_evictions = 0;
    // Always 0: breeding waits for final fitness values and is never
    // speculative. Kept because rackbench still reports their ratio as
    // control.spec_abort_ratio.
    std::uint64_t spec_children = 0;
    std::uint64_t spec_aborts = 0;
    // Solves and solve CPU time (CLOCK_THREAD_CPUTIME_ID, so a wait for a
    // CPU is not counted) per executing pool lane (0 = the caller; one
    // slot per lane, so a serial run has one). lane_solves sums to `solves`.
    std::vector<std::uint64_t> lane_solves;
    std::vector<std::uint64_t> lane_busy_ns;
  };
  Stats stats;
};

// Genetic-algorithm search seeded with the flows' current assignment.
SelectionResult select_routes_ga(const Router& router, std::span<const FlowSpec> flows,
                                 const SelectionConfig& config);

// Simulated annealing over single-gene flips: starts from the best of the
// current assignment and the uniform single-protocol assignments, applies
// Metropolis-accepted random flips under geometric cooling (relative
// temperature 0.02 -> 1e-4 across eval_budget evaluations). Every step
// flips one gene and costs one memoized evaluation.
SelectionResult select_routes_anneal(const Router& router, std::span<const FlowSpec> flows,
                                     const SelectionConfig& config);

// Memetic GA: the generation loop of select_routes_ga plus a
// first-improvement local search on the top four genotypes each
// generation (Lamarckian: improved elites re-enter the population).
// Stops early once eval_budget (> 0) evaluations are spent.
SelectionResult select_routes_hybrid(const Router& router, std::span<const FlowSpec> flows,
                                     const SelectionConfig& config);

// Steepest-ascent hill climbing from the current assignment (flips one
// flow's protocol at a time; stops at a local maximum or budget).
SelectionResult select_routes_hill_climb(const Router& router, std::span<const FlowSpec> flows,
                                         const SelectionConfig& config);

// Uniform random assignments; keeps the best seen. The "Random" baseline of
// Fig. 18 corresponds to eval_budget == 1.
SelectionResult select_routes_random(const Router& router, std::span<const FlowSpec> flows,
                                     const SelectionConfig& config);

// Exhaustive search over |choices|^N assignments; for N small enough only.
SelectionResult select_routes_exhaustive(const Router& router, std::span<const FlowSpec> flows,
                                         const SelectionConfig& config);

// Uniform assignment of one protocol to every flow (the single-protocol
// baselines of Fig. 18).
SelectionResult uniform_assignment(const Router& router, std::span<const FlowSpec> flows,
                                   RouteAlg alg, const SelectionConfig& config);

}  // namespace r2c2
