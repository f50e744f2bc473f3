// Deterministic pseudo-random number generation for experiments.
//
// All randomness in the repository flows through Rng (xoshiro256**) so that
// every simulation, emulation and benchmark run is reproducible from a seed.
#pragma once

#include <array>
#include <cmath>
#include <cstdint>
#include <limits>

namespace r2c2 {

// splitmix64: used to expand a single 64-bit seed into xoshiro state and as
// a cheap standalone hash for deterministic per-object seeding.
constexpr std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// xoshiro256** by Blackman & Vigna: fast, high-quality, 2^256-1 period.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x2c2c2c2cULL) { reseed(seed); }

  void reseed(std::uint64_t seed) {
    std::uint64_t sm = seed;
    for (auto& word : state_) word = splitmix64(sm);
  }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return std::numeric_limits<result_type>::max(); }

  result_type operator()() {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  // Uniform double in [0, 1). 53 bits of entropy.
  double uniform() { return static_cast<double>((*this)() >> 11) * 0x1.0p-53; }

  // Uniform double in [lo, hi).
  double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

  // Uniform integer in [0, n). Unbiased via rejection (Lemire-style).
  std::uint64_t uniform_int(std::uint64_t n) {
    if (n == 0) return 0;
    // Rejection sampling on the top bits; bias is negligible only for tiny
    // n, so do it properly: retry while in the biased tail.
    const std::uint64_t threshold = (0 - n) % n;
    for (;;) {
      const std::uint64_t r = (*this)();
      if (r >= threshold) return r % n;
    }
  }

  // Uniform integer in [lo, hi] inclusive.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
    return lo + static_cast<std::int64_t>(uniform_int(static_cast<std::uint64_t>(hi - lo + 1)));
  }

  bool bernoulli(double p) { return uniform() < p; }

  // Full generator state, for snapshot/restore (src/snapshot/). A generator
  // constructed with any seed and then set_state(other.state()) produces
  // exactly the output stream `other` would have produced.
  const std::array<std::uint64_t, 4>& state() const { return state_; }
  void set_state(const std::array<std::uint64_t, 4>& state) { state_ = state; }
  // Snapshot field walk (src/snapshot/persist.h): the four state words.
  template <class Self, class V>
  static void persist(Self& s, V& v) {
    for (auto& word : s.state_) v.u64(word);
  }

  // Exponential with the given mean (= 1/lambda). Used for Poisson
  // inter-arrival times.
  double exponential(double mean) {
    double u;
    do {
      u = uniform();
    } while (u <= 0.0);
    return -mean * std::log(u);
  }

  // Pareto distribution with shape alpha and *mean* `mean` (alpha > 1).
  // The paper's workload: alpha = 1.05, mean 100 KB (Section 5.2).
  double pareto_with_mean(double alpha, double mean) {
    const double xm = mean * (alpha - 1.0) / alpha;  // scale parameter
    double u;
    do {
      u = uniform();
    } while (u <= 0.0);
    return xm / std::pow(u, 1.0 / alpha);
  }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::array<std::uint64_t, 4> state_{};
};

}  // namespace r2c2
