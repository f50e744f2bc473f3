// Concurrent experiment sweeps: run one independent simulation/search job
// per parameter point across a thread pool, collecting results in input
// order regardless of completion order.
//
// Jobs must be independent: each owns its sim/search state and only reads
// shared structures that are safe for concurrent readers (Topology, a
// warmed Router). The per-figure harnesses compute one
// result struct per point through run_sweep and print the table
// afterwards, so the output is byte-identical to the serial run.
//
// Lane count: R2C2_BENCH_THREADS=<n> sets the number of concurrent jobs
// (1 = serial); unset or 0 uses the machine's hardware concurrency.
#pragma once

#include <cstdlib>
#include <utility>
#include <vector>

#include "common/thread_pool.h"

namespace r2c2::bench {

inline int sweep_threads() {
  if (const char* s = std::getenv("R2C2_BENCH_THREADS")) {
    const int v = std::atoi(s);
    if (v >= 1) return v;
  }
  return ThreadPool::hardware_workers() + 1;
}

// Applies `fn` to every item, returning {fn(items[0]), fn(items[1]), ...}.
// fn runs concurrently on up to sweep_threads() lanes (the caller is one);
// results land in index-addressed slots, so order is preserved.
template <typename Item, typename Fn>
auto run_sweep(const std::vector<Item>& items, Fn&& fn)
    -> std::vector<decltype(fn(items[0]))> {
  using Result = decltype(fn(items[0]));
  std::vector<Result> results(items.size());
  const int threads = sweep_threads();
  if (threads <= 1 || items.size() <= 1) {
    for (std::size_t i = 0; i < items.size(); ++i) results[i] = fn(items[i]);
    return results;
  }
  ThreadPool pool(threads - 1);
  pool.parallel_for(items.size(), [&](std::size_t i, int) { results[i] = fn(items[i]); });
  return results;
}

}  // namespace r2c2::bench
