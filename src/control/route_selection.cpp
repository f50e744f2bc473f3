#include "control/route_selection.h"

#include <algorithm>
#include <cmath>
#include <ctime>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>

#include "common/thread_pool.h"
#include "obs/metrics.h"

namespace r2c2 {

namespace {

// Genotype: per-flow index into config.choices.
using Genotype = std::vector<std::uint8_t>;

// Per-gene mutation probability of the GA's children (the paper's 0.01).
constexpr double kMutationProb = 0.01;

// The GA carries its kGaElite best genotypes into the next generation
// unchanged. The memetic step of select_routes_hybrid: after each
// generation's fitness, the top kLsElites ranked genotypes each get
// kLsSteps first-improvement single-gene flips (memoized evaluations) and
// the improved genotypes re-enter the next generation as its elites.
constexpr int kGaElite = 10;
constexpr int kLsElites = 4;
constexpr int kLsSteps = 16;

// Simulated annealing cools geometrically from kAnnealT0 to kAnnealT1 over
// the evaluation budget. Temperatures are *relative* degradations — a move
// that loses fraction `t` of the current utility is accepted with
// probability 1/e at temperature t — so the schedule is scale-free across
// utility kinds.
constexpr double kAnnealT0 = 0.02;
constexpr double kAnnealT1 = 1e-4;

// CPU time of the calling thread: a solve's cost, without the time its
// thread waited for a CPU.
std::uint64_t thread_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000u +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

// The utility of one rate allocation (see UtilityKind); `blend_min_weight`
// is only read for kBlended.
double utility_of(const std::vector<Bps>& rates, UtilityKind kind, double blend_min_weight) {
  switch (kind) {
    case UtilityKind::kAggregateThroughput: {
      double sum = 0.0;
      for (double r : rates) sum += r;
      return sum;
    }
    case UtilityKind::kMinThroughput:
      return rates.empty() ? 0.0 : *std::min_element(rates.begin(), rates.end());
    case UtilityKind::kBlended: {
      if (rates.empty()) return 0.0;
      double sum = 0.0;
      for (double r : rates) sum += r;
      const double mn = *std::min_element(rates.begin(), rates.end());
      return (1.0 - blend_min_weight) * sum +
             blend_min_weight * static_cast<double>(rates.size()) * mn;
    }
  }
  throw std::invalid_argument("unknown utility kind");
}

struct Evaluator {
  // What one executing pool lane solves with: a scratch arena, a rate
  // buffer and the lane's solve tally. Indexed by the pool lane that runs
  // the solve (0 = the caller), which is unique among concurrently running
  // bodies, so no two threads share one. The problem itself is shared
  // read-only, and a waterfill result depends only on the problem and the
  // genotype, never on scratch history, so every lane produces
  // bit-identical utilities.
  struct Lane {
    WaterfillScratch scratch;
    RateAllocation alloc;
    std::uint64_t solves = 0;
    std::uint64_t busy_ns = 0;
  };
  struct Miss {
    const Genotype* genes = nullptr;
    std::uint64_t hash = 0;
    double fitness = 0.0;
  };

  Evaluator(const Router& r, std::span<const FlowSpec> f, const SelectionConfig& c,
            ThreadPool* p = nullptr)
      : config(c),
        pool(p),
        memo(detail::FitnessMemo::kDefaultMaxBytes, c.memo_max_entries),
        lanes(p != nullptr ? static_cast<std::size_t>(p->lanes()) : 1) {
    // All (flow, protocol-choice) link weights are derived once, into CSR
    // rows of the one WaterfillProblem every lane solves; a solve takes
    // the genotype as each flow's row choice. The Router is never touched
    // again.
    problem.build_with_choices(r, f, c.choices, c.alloc);
  }

  const SelectionConfig& config;
  ThreadPool* pool = nullptr;
  int evaluations = 0;
  detail::FitnessMemo memo;
  WaterfillProblem problem;
  std::vector<Lane> lanes;  // indexed by executing pool lane

  double solve(const Genotype& g, int exec_lane) {
    Lane& lane = lanes[static_cast<std::size_t>(exec_lane)];
    const std::uint64_t t0 = thread_cpu_ns();
    waterfill(problem, g, lane.scratch, lane.alloc);
    const double utility = utility_of(lane.alloc.rate, config.utility, config.blend_min_weight);
    ++lane.solves;
    lane.busy_ns += thread_cpu_ns() - t0;
    return utility;
  }

  double fitness(const Genotype& g) {
    const std::uint64_t h = detail::FitnessMemo::hash(g);
    if (const double* f = memo.find(h, g)) {
      memo.record_hit();
      return *f;
    }
    memo.record_miss();
    const double utility = solve(g, 0);
    ++evaluations;
    memo.insert(h, g, utility);
    return utility;
  }

  // Scores one generation. Dedups the population against the memo and
  // in-batch repeats (exactly the serial one-at-a-time memo pattern: first
  // occurrence = miss, every repeat = hit), solves the misses through one
  // parallel_for (a 0-worker pool runs them inline), each into its own
  // slot, then commits memo insertions and the evaluation count in miss
  // (dedup) order — fixed by the population alone, so memo contents,
  // eviction order and `evaluations` are identical at every thread count.
  void fitness_batch(std::span<const Genotype> population, std::vector<double>& fit) {
    constexpr std::size_t kHit = static_cast<std::size_t>(-1);
    std::vector<Miss> misses;
    std::vector<std::size_t> ref(population.size(), kHit);  // index into misses
    fit.resize(population.size());
    for (std::size_t i = 0; i < population.size(); ++i) {
      const Genotype& g = population[i];
      const std::uint64_t h = detail::FitnessMemo::hash(g);
      if (const double* f = memo.find(h, g)) {
        memo.record_hit();
        fit[i] = *f;
        continue;
      }
      std::size_t u = 0;
      for (; u < misses.size(); ++u) {
        if (misses[u].hash == h && *misses[u].genes == g) break;
      }
      if (u == misses.size()) {
        memo.record_miss();
        misses.push_back(Miss{&g, h, 0.0});
      } else {
        memo.record_hit();  // in-batch repeat: a hit under serial semantics
      }
      ref[i] = u;
    }
    pool->parallel_for(misses.size(), [&](std::size_t u, int exec_lane) {
      misses[u].fitness = solve(*misses[u].genes, exec_lane);
    });
    for (const Miss& m : misses) {
      memo.insert(m.hash, *m.genes, m.fitness);
      ++evaluations;
    }
    for (std::size_t i = 0; i < ref.size(); ++i) {
      if (ref[i] != kHit) fit[i] = misses[ref[i]].fitness;
    }
  }
};

Genotype current_assignment(std::span<const FlowSpec> flows, const SelectionConfig& config) {
  Genotype g(flows.size(), 0);
  for (std::size_t i = 0; i < flows.size(); ++i) {
    const auto it = std::find(config.choices.begin(), config.choices.end(), flows[i].alg);
    g[i] = it == config.choices.end()
               ? 0
               : static_cast<std::uint8_t>(std::distance(config.choices.begin(), it));
  }
  return g;
}

SelectionResult finish(Evaluator& eval, const Genotype& best, double utility,
                       const SelectionConfig& config) {
  SelectionResult result;
  result.assignment.resize(best.size());
  for (std::size_t i = 0; i < best.size(); ++i) result.assignment[i] = config.choices[best[i]];
  result.utility = utility;
  result.evaluations = eval.evaluations;
  const detail::FitnessMemo::Stats ms = eval.memo.stats();
  SelectionResult::Stats& st = result.stats;
  for (const Evaluator::Lane& lane : eval.lanes) {
    st.solves += lane.solves;
    st.lane_solves.push_back(lane.solves);
    st.lane_busy_ns.push_back(lane.busy_ns);
  }
  st.memo_hits = ms.hits;
  st.memo_evictions = ms.evictions;
  if (config.metrics != nullptr) {
    obs::MetricsRegistry& m = *config.metrics;
    m.counter("ga.memo.hits").add(ms.hits);
    m.counter("ga.memo.misses").add(ms.misses);
    m.counter("ga.memo.evictions").add(ms.evictions);
    m.gauge("ga.memo.entries").set(static_cast<double>(ms.entries));
    m.gauge("ga.memo.bytes").set(static_cast<double>(ms.bytes));
    m.counter("ga.eval.solves").add(st.solves);
    for (std::size_t l = 0; l < st.lane_solves.size(); ++l) {
      const std::string lane = "ga.eval.lane" + std::to_string(l);
      m.gauge(lane + ".solves").set(static_cast<double>(st.lane_solves[l]));
      m.gauge(lane + ".busy_ns").set(static_cast<double>(st.lane_busy_ns[l]));
    }
  }
  return result;
}

void validate(const SelectionConfig& config) {
  if (config.choices.empty()) throw std::invalid_argument("no routing protocols to choose from");
  if (config.choices.size() > 256) throw std::invalid_argument("too many protocol choices");
  if (config.utility == UtilityKind::kBlended &&
      (config.blend_min_weight < 0.0 || config.blend_min_weight > 1.0)) {
    throw std::invalid_argument("blend_min_weight must be in [0, 1]");
  }
}

// Shared generation loop of the GA and the memetic hybrid. The hybrid adds
// a Lamarckian local-search step on the top-ranked genotypes each
// generation and respects config.eval_budget (> 0) as a stopping bound.
SelectionResult run_population_search(const Router& router, std::span<const FlowSpec> flows,
                                      const SelectionConfig& config, bool memetic) {
  validate(config);
  std::unique_ptr<ThreadPool> owned;
  ThreadPool* pool = config.pool;
  if (pool == nullptr) {
    owned = std::make_unique<ThreadPool>(config.threads - 1);  // caller is a lane too
    pool = owned.get();
  }
  Evaluator eval{router, flows, config, pool};
  Rng rng(config.seed);
  const std::size_t n_choices = config.choices.size();

  // Initial population: the current assignment, each uniform
  // single-protocol assignment (so the GA result is never worse than the
  // best network-wide protocol), and random genotypes.
  std::vector<Genotype> population;
  population.reserve(static_cast<std::size_t>(config.population));
  population.push_back(current_assignment(flows, config));
  for (std::size_t c = 0; c < n_choices &&
                          population.size() < static_cast<std::size_t>(config.population);
       ++c) {
    population.emplace_back(flows.size(), static_cast<std::uint8_t>(c));
  }
  while (population.size() < static_cast<std::size_t>(config.population)) {
    Genotype g(flows.size());
    for (auto& v : g) v = static_cast<std::uint8_t>(rng.uniform_int(n_choices));
    population.push_back(std::move(g));
  }

  std::vector<double> fit(population.size());
  Genotype best;
  double best_fit = -std::numeric_limits<double>::infinity();
  int stall = 0;

  // Binary tournament on the generation's final fitness values.
  const auto tourney = [&]() -> const Genotype& {
    const std::size_t a = rng.uniform_int(population.size());
    const std::size_t b = rng.uniform_int(population.size());
    return population[fit[a] >= fit[b] ? a : b];
  };

  for (int gen = 0; gen < config.max_generations && stall < config.stall_generations; ++gen) {
    if (memetic && config.eval_budget > 0 && eval.evaluations >= config.eval_budget) break;
    eval.fitness_batch(population, fit);

    // Rank by fitness, best first.
    std::vector<std::size_t> rank(population.size());
    for (std::size_t i = 0; i < rank.size(); ++i) rank[i] = i;
    std::sort(rank.begin(), rank.end(), [&](std::size_t a, std::size_t b) { return fit[a] > fit[b]; });

    if (fit[rank[0]] > best_fit) {
      best_fit = fit[rank[0]];
      best = population[rank[0]];
      stall = 0;
    } else {
      ++stall;
    }

    // Elite copies for the next generation (possibly improved below).
    const int elite = std::min<int>(kGaElite, static_cast<int>(population.size()));
    std::vector<Genotype> next;
    next.reserve(population.size());
    for (int e = 0; e < elite; ++e) next.push_back(population[rank[static_cast<std::size_t>(e)]]);

    if (memetic && n_choices >= 2) {
      // Memetic step: first-improvement single-gene flips on the top
      // elites, each evaluated through the memo on lane 0. Lamarckian — the improved genotypes replace their elite
      // slots — and driven by a per-generation forked RNG so the GA
      // stream (and hence the crossover trajectory) stays untouched.
      std::uint64_t fork = config.seed + 0x6d656d65ULL +
                           static_cast<std::uint64_t>(gen) * 0x9e3779b97f4a7c15ULL;
      Rng ls_rng(splitmix64(fork));
      const int k = std::min<int>(kLsElites, elite);
      for (int e = 0; e < k; ++e) {
        Genotype& g = next[static_cast<std::size_t>(e)];
        double gf = fit[rank[static_cast<std::size_t>(e)]];
        for (int step = 0; step < kLsSteps; ++step) {
          if (config.eval_budget > 0 && eval.evaluations >= config.eval_budget) break;
          const std::size_t i = ls_rng.uniform_int(g.size());
          const std::uint8_t old = g[i];
          const std::uint64_t shift = 1 + ls_rng.uniform_int(n_choices - 1);
          g[i] = static_cast<std::uint8_t>((old + shift) % n_choices);
          const double f = eval.fitness(g);
          if (f > gf) {
            gf = f;
          } else {
            g[i] = old;
          }
        }
        if (gf > best_fit) {
          best_fit = gf;
          best = g;
          stall = 0;
        }
      }
    }

    // Children: tournament selection, uniform crossover, mutation.
    while (next.size() < population.size()) {
      const Genotype& pa = tourney();
      const Genotype& pb = tourney();
      Genotype child(pa.size());
      for (std::size_t i = 0; i < child.size(); ++i) {
        child[i] = rng.bernoulli(0.5) ? pa[i] : pb[i];
        if (rng.bernoulli(kMutationProb)) {
          child[i] = static_cast<std::uint8_t>(rng.uniform_int(n_choices));
        }
      }
      next.push_back(std::move(child));
    }
    population = std::move(next);
  }
  // Account for the final population (it may contain the best genotype).
  eval.fitness_batch(population, fit);
  for (std::size_t i = 0; i < population.size(); ++i) {
    if (fit[i] > best_fit) {
      best_fit = fit[i];
      best = population[i];
    }
  }
  return finish(eval, best, best_fit, config);
}

}  // namespace

double route_assignment_utility(const Router& router, std::span<const FlowSpec> flows,
                                std::span<const RouteAlg> assignment, UtilityKind kind,
                                const AllocationConfig& alloc, double blend_min_weight) {
  if (assignment.size() != flows.size()) throw std::invalid_argument("assignment size mismatch");
  std::vector<FlowSpec> adjusted(flows.begin(), flows.end());
  for (std::size_t i = 0; i < flows.size(); ++i) adjusted[i].alg = assignment[i];
  return utility_of(waterfill(router, adjusted, alloc).rate, kind, blend_min_weight);
}

SelectionResult select_routes_ga(const Router& router, std::span<const FlowSpec> flows,
                                 const SelectionConfig& config) {
  return run_population_search(router, flows, config, /*memetic=*/false);
}

SelectionResult select_routes_hybrid(const Router& router, std::span<const FlowSpec> flows,
                                     const SelectionConfig& config) {
  return run_population_search(router, flows, config, /*memetic=*/true);
}

SelectionResult select_routes_anneal(const Router& router, std::span<const FlowSpec> flows,
                                     const SelectionConfig& config) {
  validate(config);
  Evaluator eval{router, flows, config};
  Rng rng(config.seed);
  const std::size_t n_choices = config.choices.size();

  // Start from the best of the current assignment and the uniform
  // single-protocol assignments (the same seeds the GA's initial
  // population gets), so annealing is never worse than the best
  // network-wide protocol.
  Genotype at = current_assignment(flows, config);
  double at_fit = eval.fitness(at);
  Genotype best = at;
  double best_fit = at_fit;
  for (std::size_t c = 0; c < n_choices; ++c) {
    Genotype g(flows.size(), static_cast<std::uint8_t>(c));
    const double f = eval.fitness(g);
    if (f > best_fit) {
      best_fit = f;
      best = g;
    }
    if (f > at_fit) {
      at = std::move(g);
      at_fit = f;
    }
  }

  const int budget = std::max(1, config.eval_budget);
  if (flows.empty() || n_choices < 2) return finish(eval, best, best_fit, config);
  // Single-gene flips under geometric cooling. Memo hits don't consume
  // budget, so a proposal cap bounds the walk when the neighbourhood is
  // small enough to be fully memoized.
  const long max_proposals = 8L * budget;
  for (long proposal = 0; proposal < max_proposals && eval.evaluations < budget; ++proposal) {
    const double frac =
        static_cast<double>(eval.evaluations) / static_cast<double>(budget);
    const double temp = kAnnealT0 * std::pow(kAnnealT1 / kAnnealT0, frac);
    Genotype nb = at;
    const std::size_t i = rng.uniform_int(nb.size());
    const std::uint64_t shift = 1 + rng.uniform_int(n_choices - 1);
    nb[i] = static_cast<std::uint8_t>((nb[i] + shift) % n_choices);
    const double f = eval.fitness(nb);
    bool accept = f >= at_fit;
    if (!accept) {
      // Relative-degradation Metropolis rule: losing fraction `temp` of
      // the current utility is accepted with probability 1/e.
      const double scale = std::max(std::abs(at_fit), 1e-300);
      accept = rng.uniform() < std::exp(-(at_fit - f) / (temp * scale));
    }
    if (accept) {
      at = std::move(nb);
      at_fit = f;
      if (f > best_fit) {
        best_fit = f;
        best = at;
      }
    }
  }
  return finish(eval, best, best_fit, config);
}

SelectionResult select_routes_hill_climb(const Router& router, std::span<const FlowSpec> flows,
                                         const SelectionConfig& config) {
  validate(config);
  Evaluator eval{router, flows, config};
  Genotype at = current_assignment(flows, config);
  double at_fit = eval.fitness(at);
  bool improved = true;
  while (improved && eval.evaluations < config.eval_budget) {
    improved = false;
    Genotype best_nb = at;
    double best_nb_fit = at_fit;
    for (std::size_t i = 0; i < at.size() && eval.evaluations < config.eval_budget; ++i) {
      for (std::size_t c = 0; c < config.choices.size(); ++c) {
        if (c == at[i]) continue;
        Genotype nb = at;
        nb[i] = static_cast<std::uint8_t>(c);
        const double f = eval.fitness(nb);
        if (f > best_nb_fit) {
          best_nb_fit = f;
          best_nb = std::move(nb);
        }
      }
    }
    if (best_nb_fit > at_fit) {
      at = std::move(best_nb);
      at_fit = best_nb_fit;
      improved = true;
    }
  }
  return finish(eval, at, at_fit, config);
}

SelectionResult select_routes_random(const Router& router, std::span<const FlowSpec> flows,
                                     const SelectionConfig& config) {
  validate(config);
  Evaluator eval{router, flows, config};
  Rng rng(config.seed);
  Genotype best(flows.size(), 0);
  double best_fit = -std::numeric_limits<double>::infinity();
  for (int i = 0; i < std::max(1, config.eval_budget); ++i) {
    Genotype g(flows.size());
    for (auto& v : g) v = static_cast<std::uint8_t>(rng.uniform_int(config.choices.size()));
    const double f = eval.fitness(g);
    if (f > best_fit) {
      best_fit = f;
      best = std::move(g);
    }
  }
  return finish(eval, best, best_fit, config);
}

SelectionResult select_routes_exhaustive(const Router& router, std::span<const FlowSpec> flows,
                                         const SelectionConfig& config) {
  validate(config);
  const double space = std::pow(static_cast<double>(config.choices.size()),
                                static_cast<double>(flows.size()));
  if (space > 1e6) throw std::length_error("exhaustive search space too large");
  Evaluator eval{router, flows, config};
  Genotype g(flows.size(), 0);
  Genotype best = g;
  double best_fit = -std::numeric_limits<double>::infinity();
  const std::size_t total = static_cast<std::size_t>(space);
  for (std::size_t code = 0; code < total; ++code) {
    std::size_t rem = code;
    for (std::size_t i = 0; i < g.size(); ++i) {
      g[i] = static_cast<std::uint8_t>(rem % config.choices.size());
      rem /= config.choices.size();
    }
    const double f = eval.fitness(g);
    if (f > best_fit) {
      best_fit = f;
      best = g;
    }
  }
  return finish(eval, best, best_fit, config);
}

SelectionResult uniform_assignment(const Router& router, std::span<const FlowSpec> flows,
                                   RouteAlg alg, const SelectionConfig& config) {
  SelectionResult result;
  result.assignment.assign(flows.size(), alg);
  result.utility = route_assignment_utility(router, flows, result.assignment, config.utility,
                                            config.alloc, config.blend_min_weight);
  result.evaluations = 1;
  return result;
}

}  // namespace r2c2
