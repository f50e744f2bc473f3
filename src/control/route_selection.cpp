#include "control/route_selection.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <exception>
#include <limits>
#include <memory>
#include <mutex>
#include <stdexcept>

#include "common/thread_pool.h"
#include "obs/metrics.h"

namespace r2c2 {

namespace {

// Genotype: per-flow index into config.choices.
using Genotype = std::vector<std::uint8_t>;

// Hamming distance with an early exit once it can no longer beat `bound`
// (the scheduler only cares which lane is nearest, not the exact distance
// of the losers).
std::size_t bounded_hamming(const Genotype& a, const Genotype& b, std::size_t bound) {
  std::size_t d = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i] != b[i] && ++d >= bound) break;
  }
  return d;
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
  // One lane = everything one executing task needs to score genotypes with
  // zero shared mutable state: its own problem copy (row selections are
  // per-lane cursors), scratch arena, rate buffer, and the genotype its
  // row selection currently encodes. Lane 0 belongs to the calling thread;
  // lanes 1..workers to the pool's workers (by schedule, not by pin: a
  // stolen lane task still addresses its own lane's state). The waterfill
  // result depends only on the selected rows — never on scratch history or
  // which genotype a lane scored before — so every lane produces
  // bit-identical utilities.
  struct Lane {
    WaterfillProblem problem;
    WaterfillScratch scratch;
    RateAllocation alloc;
    Genotype current;  // the genotype this lane's row selection encodes
  };

  Evaluator(const Router& r, std::span<const FlowSpec> f, const SelectionConfig& c,
            ThreadPool* p = nullptr)
      : config(c), pool(p), memo(c.memo_max_bytes, c.memo_max_entries) {
    // All (flow, protocol-choice) link weights are derived once, into CSR
    // rows of one WaterfillProblem; evaluating a genotype then only flips
    // row selections for genes that differ from the lane's previous one
    // (delta fitness) and solves with a reused scratch arena. The Router
    // is never touched again. Worker lanes start as copies of lane 0 —
    // cheap (a handful of vectors) next to re-deriving link weights.
    lanes.resize(1);
    lanes[0].problem.build_with_choices(r, f, c.choices, c.alloc);
    lanes[0].current.assign(f.size(), 0);  // build_with_choices selects choice 0
    if (pool != nullptr) {
      for (int l = 1; l < pool->lanes(); ++l) lanes.push_back(lanes[0]);
    }
  }

  const SelectionConfig& config;
  ThreadPool* pool = nullptr;
  int evaluations = 0;
  detail::FitnessMemo memo;
  std::vector<Lane> lanes;
  // Solver stats. The atomics are bumped from concurrently running lane
  // tasks (relaxed: sums commute); the spec_* counters are caller-only.
  std::atomic<std::uint64_t> solves{0};
  std::atomic<std::uint64_t> delta_genes{0};
  std::uint64_t spec_children = 0;
  std::uint64_t spec_aborts = 0;

  double lane_fitness(Lane& lane, const Genotype& g) {
    const std::size_t changed = lane.problem.apply_choice_delta(lane.current, g);
    lane.current.assign(g.begin(), g.end());
    delta_genes.fetch_add(changed, std::memory_order_relaxed);
    solves.fetch_add(1, std::memory_order_relaxed);
    waterfill(lane.problem, lane.scratch, lane.alloc);
    return utility_of(lane.alloc.rate, config.utility, config.blend_min_weight);
  }

  double fitness(const Genotype& g) {
    const std::uint64_t h = detail::FitnessMemo::hash(g);
    if (const double* f = memo.find(h, g)) {
      memo.record_hit();
      return *f;
    }
    memo.record_miss();
    const double utility = lane_fitness(lanes[0], g);
    ++evaluations;
    memo.insert(h, g, utility);
    return utility;
  }

  // --- asynchronous batch evaluation -------------------------------------
  //
  // One generation's fitness work, launched lane-by-lane so the caller can
  // overlap speculative breeding of the next generation with the worker
  // lanes draining this one. Lifecycle: begin_batch (dedup, schedule,
  // launch workers, evaluate the caller's own share) -> [caller overlaps
  // other work, polling `done`] -> finish_batch (join, memo commit,
  // evaluation accounting). The Batch must stay at a stable address until
  // finish_batch returns — worker tasks hold a reference.
  struct Batch {
    struct Miss {
      const Genotype* genes = nullptr;
      std::uint64_t hash = 0;
      double fitness = 0.0;
    };
    static constexpr std::size_t kHit = static_cast<std::size_t>(-1);
    std::vector<Miss> misses;
    std::vector<std::size_t> ref;  // population index -> miss index, or kHit
    // done[u] set (release) after misses[u].fitness is written; the
    // caller's acquire load makes that value safe to read mid-batch.
    std::vector<std::atomic<std::uint32_t>> done;
    std::atomic<bool> failed{false};
    std::exception_ptr error;
    std::mutex error_m;
    bool launched = false;  // worker tasks in flight (finish must join)
  };

  // Deterministic nearest-Hamming scheduler: walks the deduped misses in
  // order and assigns each to the lane whose *projected* genotype (its
  // current one, updated as assignments are made) is nearest, capped at
  // ceil(misses / lanes) per lane so batches stay balanced. Elites and
  // crossover children differ from some recent genotype in a handful of
  // genes, so chaining nearest neighbours keeps per-lane deltas small.
  // Runs on the caller with deterministic inputs; the plan depends on the
  // lane count but the resulting fitness values do not.
  std::vector<std::vector<std::uint32_t>> schedule(const std::vector<Batch::Miss>& misses) {
    const std::size_t n_lanes = lanes.size();
    std::vector<std::vector<std::uint32_t>> plan(n_lanes);
    if (n_lanes == 1 || misses.size() <= 1) {
      plan[0].reserve(misses.size());
      for (std::uint32_t u = 0; u < misses.size(); ++u) plan[0].push_back(u);
      return plan;
    }
    const std::size_t cap = (misses.size() + n_lanes - 1) / n_lanes;
    std::vector<const Genotype*> projected(n_lanes);
    for (std::size_t l = 0; l < n_lanes; ++l) projected[l] = &lanes[l].current;
    for (std::uint32_t u = 0; u < misses.size(); ++u) {
      const Genotype& g = *misses[u].genes;
      std::size_t best_l = 0;
      std::size_t best_d = std::numeric_limits<std::size_t>::max();
      for (std::size_t l = 0; l < n_lanes; ++l) {
        if (plan[l].size() >= cap) continue;
        const std::size_t d = bounded_hamming(*projected[l], g, best_d);
        if (d < best_d) {
          best_d = d;
          best_l = l;
        }
      }
      plan[best_l].push_back(u);
      projected[best_l] = &g;
    }
    return plan;
  }

  void run_lane_list(Batch& b, std::size_t lane, const std::vector<std::uint32_t>& list) {
    try {
      for (const std::uint32_t u : list) {
        b.misses[u].fitness = lane_fitness(lanes[lane], *b.misses[u].genes);
        b.done[u].store(1, std::memory_order_release);
      }
    } catch (...) {
      bool expected = false;
      if (b.failed.compare_exchange_strong(expected, true)) {
        std::lock_guard lock(b.error_m);
        b.error = std::current_exception();
      }
    }
  }

  // Dedups the population against the memo and in-batch repeats (exactly
  // the serial one-at-a-time memo pattern: first occurrence = miss, every
  // repeat = hit), schedules the misses across lanes, launches the worker
  // lanes' lists, and evaluates lane 0's list on the caller. Memo hits are
  // final in `fit` on return; miss slots are filled by finish_batch.
  void begin_batch(Batch& b, std::span<const Genotype> population, std::vector<double>& fit) {
    fit.resize(population.size());
    b.ref.assign(population.size(), Batch::kHit);
    b.misses.clear();
    for (std::size_t i = 0; i < population.size(); ++i) {
      const Genotype& g = population[i];
      const std::uint64_t h = detail::FitnessMemo::hash(g);
      if (const double* f = memo.find(h, g)) {
        memo.record_hit();
        fit[i] = *f;
        continue;
      }
      std::size_t u = 0;
      for (; u < b.misses.size(); ++u) {
        if (b.misses[u].hash == h && *b.misses[u].genes == g) break;
      }
      if (u == b.misses.size()) {
        memo.record_miss();
        b.misses.push_back(Batch::Miss{&g, h, 0.0});
      } else {
        memo.record_hit();  // in-batch repeat: a hit under serial semantics
      }
      b.ref[i] = u;
    }
    b.done = std::vector<std::atomic<std::uint32_t>>(b.misses.size());
    const auto plan = schedule(b.misses);
    if (pool != nullptr) {
      for (std::size_t l = 1; l < plan.size(); ++l) {
        if (plan[l].empty()) continue;
        b.launched = true;
        pool->submit_on(static_cast<int>(l), [this, &b, l, list = plan[l]](int) {
          run_lane_list(b, l, list);
        });
      }
    }
    run_lane_list(b, 0, plan[0]);
  }

  // Joins the batch, commits memo insertions and the evaluation count in
  // miss (dedup) order — the order is fixed by the population alone, so
  // memo contents, eviction order and `evaluations` are identical at
  // every thread count — then fills the miss slots of `fit`.
  void finish_batch(Batch& b, std::vector<double>& fit) {
    if (b.launched) pool->wait();
    if (b.failed.load(std::memory_order_acquire)) {
      std::lock_guard lock(b.error_m);
      std::rethrow_exception(b.error);
    }
    for (const Batch::Miss& m : b.misses) {
      memo.insert(m.hash, *m.genes, m.fitness);
      ++evaluations;
    }
    for (std::size_t i = 0; i < b.ref.size(); ++i) {
      if (b.ref[i] != Batch::kHit) fit[i] = b.misses[b.ref[i]].fitness;
    }
  }

  // Synchronous convenience wrapper (final-population accounting).
  void fitness_batch(std::span<const Genotype> population, std::vector<double>& fit) {
    Batch b;
    begin_batch(b, population, fit);
    finish_batch(b, fit);
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
  result.stats.solves = eval.solves.load(std::memory_order_relaxed);
  result.stats.delta_genes = eval.delta_genes.load(std::memory_order_relaxed);
  result.stats.memo_hits = ms.hits;
  result.stats.memo_evictions = ms.evictions;
  result.stats.spec_children = eval.spec_children;
  result.stats.spec_aborts = eval.spec_aborts;
#if R2C2_TRACING_ENABLED
  if (config.metrics != nullptr) {
    obs::MetricsRegistry& m = *config.metrics;
    m.counter("ga.memo.hits").add(ms.hits);
    m.counter("ga.memo.misses").add(ms.misses);
    m.counter("ga.memo.evictions").add(ms.evictions);
    m.gauge("ga.memo.entries").set(static_cast<double>(ms.entries));
    m.gauge("ga.memo.bytes").set(static_cast<double>(ms.bytes));
    m.counter("ga.eval.solves").add(result.stats.solves);
    m.counter("ga.eval.delta_genes").add(result.stats.delta_genes);
    m.counter("ga.eval.spec_children").add(eval.spec_children);
    m.counter("ga.eval.spec_aborts").add(eval.spec_aborts);
  }
#endif
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
  if (pool == nullptr && config.threads > 1) {
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

  // Speculative breeding: while the lanes drain generation G's misses, the
  // caller breeds generation G+1's children against the values it already
  // has (memo hits plus landed misses), predicting the rest. Only the
  // tournament *outcomes* consume fitness, and no RNG draw count depends
  // on fitness, so a mispredicted child is re-bred ("aborted") afterwards
  // by replaying its RNG window against the final values — which restores
  // exactly the serial breeding result without disturbing any later
  // child's draws.
  struct Dep {
    std::uint32_t a = 0, b = 0;  // tournament contestants
    bool picked_a = false;
    bool final = false;  // both values were final at speculation time
  };
  struct SpecChild {
    Genotype genes;
    std::array<std::uint64_t, 4> rng_state{};  // before this child's draws
    std::vector<Dep> deps;
  };

  for (int gen = 0; gen < config.max_generations && stall < config.stall_generations; ++gen) {
    if (memetic && config.eval_budget > 0 && eval.evaluations >= config.eval_budget) break;
    Evaluator::Batch batch;
    eval.begin_batch(batch, population, fit);

    const int elite = std::min<int>(config.elite, static_cast<int>(population.size()));
    const std::size_t n_children = population.size() - static_cast<std::size_t>(elite);
    // Prediction for still-in-flight fitness values. Accuracy only affects
    // the abort rate (re-breeding cost), never the result.
    const double predicted = std::isinf(best_fit) ? 0.0 : best_fit;

    auto spec_value = [&](std::size_t i, bool& is_final) -> double {
      const std::size_t u = batch.ref[i];
      if (u == Evaluator::Batch::kHit) {
        is_final = true;
        return fit[i];
      }
      if (batch.done[u].load(std::memory_order_acquire) == 0) {
        // Opportunistically run one queued lane list before predicting.
        if (pool != nullptr) pool->try_help();
        if (batch.done[u].load(std::memory_order_acquire) == 0) {
          is_final = false;
          return predicted;
        }
      }
      is_final = true;
      return batch.misses[u].fitness;
    };

    // Breeds one child from `r`; speculative mode reads through spec_value
    // and records deps, replay mode reads the final `fit` directly.
    auto breed_child = [&](Rng& r, SpecChild* spec) -> Genotype {
      const auto tourney = [&]() -> std::size_t {
        const std::size_t a = r.uniform_int(population.size());
        const std::size_t b = r.uniform_int(population.size());
        bool fa_final = true, fb_final = true;
        double fa, fb;
        if (spec != nullptr) {
          fa = spec_value(a, fa_final);
          fb = spec_value(b, fb_final);
        } else {
          fa = fit[a];
          fb = fit[b];
        }
        const bool pick_a = fa >= fb;
        if (spec != nullptr) {
          spec->deps.push_back(Dep{static_cast<std::uint32_t>(a), static_cast<std::uint32_t>(b),
                                   pick_a, fa_final && fb_final});
        }
        return pick_a ? a : b;
      };
      const Genotype& pa = population[tourney()];
      const Genotype& pb = population[tourney()];
      Genotype child(pa.size());
      for (std::size_t i = 0; i < child.size(); ++i) {
        child[i] = r.bernoulli(0.5) ? pa[i] : pb[i];
        if (r.bernoulli(config.mutation_prob)) {
          child[i] = static_cast<std::uint8_t>(r.uniform_int(n_choices));
        }
      }
      return child;
    };

    std::vector<SpecChild> spec(n_children);
    for (SpecChild& c : spec) {
      c.rng_state = rng.state();
      c.genes = breed_child(rng, &c);
    }
    eval.spec_children += n_children;

    eval.finish_batch(batch, fit);

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
    std::vector<Genotype> elites;
    elites.reserve(static_cast<std::size_t>(elite));
    for (int e = 0; e < elite; ++e) elites.push_back(population[rank[static_cast<std::size_t>(e)]]);

    if (memetic && n_choices >= 2) {
      // Memetic step: first-improvement single-gene flips on the top
      // elites, each a Hamming-1 delta evaluation through the memo on
      // lane 0. Lamarckian — the improved genotypes replace their elite
      // slots — and driven by a per-generation forked RNG so the GA
      // stream (and hence the crossover trajectory) stays untouched.
      std::uint64_t fork = config.seed + 0x6d656d65ULL +
                           static_cast<std::uint64_t>(gen) * 0x9e3779b97f4a7c15ULL;
      Rng ls_rng(splitmix64(fork));
      const int k = std::min<int>(config.ls_elites, elite);
      for (int e = 0; e < k; ++e) {
        Genotype& g = elites[static_cast<std::size_t>(e)];
        double gf = fit[rank[static_cast<std::size_t>(e)]];
        for (int step = 0; step < config.ls_steps; ++step) {
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

    // Commit/abort the speculated children: a child is committed when
    // every tournament it ran would pick the same parent under the final
    // values; otherwise its RNG window is replayed against them.
    for (SpecChild& c : spec) {
      bool committed = true;
      for (const Dep& d : c.deps) {
        if (d.final) continue;
        if ((fit[d.a] >= fit[d.b]) != d.picked_a) {
          committed = false;
          break;
        }
      }
      if (!committed) {
        ++eval.spec_aborts;
        Rng replay;
        replay.set_state(c.rng_state);
        c.genes = breed_child(replay, nullptr);
      }
    }

    std::vector<Genotype> next;
    next.reserve(population.size());
    for (Genotype& e : elites) next.push_back(std::move(e));
    for (SpecChild& c : spec) next.push_back(std::move(c.genes));
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
    const double temp = config.anneal_t0 * std::pow(config.anneal_t1 / config.anneal_t0, frac);
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
