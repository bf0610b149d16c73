// Deterministic, fast random number generation.
//
// Every stochastic component in the library (weight init, data augmentation,
// device variation, homogenization search) takes an explicit Rng so that
// experiments are reproducible from a single seed. The generator is a
// splitmix64-seeded xoshiro256** — small state, excellent statistical quality,
// and identical output on every platform (unlike std::mt19937 distributions,
// whose std::normal_distribution is implementation-defined).
#pragma once

#include <array>
#include <cmath>
#include <cstdint>
#include <numbers>

#include "common/check.hpp"

namespace sei {

/// splitmix64: used to expand a single seed into xoshiro state.
inline std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Deterministic PRNG with convenience distributions.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x5eed5eedULL) { reseed(seed); }

  void reseed(std::uint64_t seed) {
    std::uint64_t sm = seed;
    for (auto& s : state_) s = splitmix64(sm);
    has_cached_gauss_ = false;
  }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~0ULL; }

  /// Raw 64 random bits (xoshiro256**).
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

  /// Uniform double in [0, 1).
  double uniform() {
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

  /// Uniform integer in [0, n).
  std::uint64_t below(std::uint64_t n) {
    SEI_ASSERT(n > 0);
    // Lemire's multiply-shift rejection method (unbiased).
    std::uint64_t x = (*this)();
    __uint128_t m = static_cast<__uint128_t>(x) * n;
    auto lo = static_cast<std::uint64_t>(m);
    if (lo < n) {
      const std::uint64_t threshold = (0 - n) % n;
      while (lo < threshold) {
        x = (*this)();
        m = static_cast<__uint128_t>(x) * n;
        lo = static_cast<std::uint64_t>(m);
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t between(std::int64_t lo, std::int64_t hi) {
    SEI_ASSERT(lo <= hi);
    return lo + static_cast<std::int64_t>(
                    below(static_cast<std::uint64_t>(hi - lo) + 1));
  }

  /// Standard normal via Box–Muller with caching.
  double gaussian() {
    if (has_cached_gauss_) {
      has_cached_gauss_ = false;
      return cached_gauss_;
    }
    double u1 = uniform();
    while (u1 <= 0.0) u1 = uniform();
    const double u2 = uniform();
    const double r = std::sqrt(-2.0 * std::log(u1));
    const double theta = 2.0 * std::numbers::pi * u2;
    cached_gauss_ = r * std::sin(theta);
    has_cached_gauss_ = true;
    return r * std::cos(theta);
  }

  double gaussian(double mean, double stddev) {
    return mean + stddev * gaussian();
  }

  /// Advances the stream exactly as `n` gaussian() calls would, without
  /// evaluating the skipped values: a cached half is dropped, each whole
  /// pair replays only its uniform draws (u1's redraw on zero included),
  /// and an odd remainder draws a real pair so its second half is cached
  /// for the next call, as the eager calls would leave it.
  void skip_gaussians(std::uint64_t n) {
    if (n == 0) return;
    if (has_cached_gauss_) {
      has_cached_gauss_ = false;
      --n;
    }
    for (; n >= 2; n -= 2) {
      while (((*this)() >> 11) == 0) {
      }
      (void)(*this)();
    }
    if (n == 1) (void)gaussian();
  }

  /// Lognormal with the *multiplicative* sigma given in log-domain: a sample
  /// multiplies its nominal value by exp(sigma * N(0,1) - sigma^2/2), so the
  /// expected multiplier is 1 (energy-preserving device variation).
  double lognormal_multiplier(double sigma) {
    if (sigma <= 0.0) return 1.0;
    return std::exp(sigma * gaussian() - 0.5 * sigma * sigma);
  }

  bool bernoulli(double p) { return uniform() < p; }

  /// Fisher–Yates shuffle.
  template <typename Container>
  void shuffle(Container& c) {
    for (std::size_t i = c.size(); i > 1; --i) {
      const std::size_t j = static_cast<std::size_t>(below(i));
      using std::swap;
      swap(c[i - 1], c[j]);
    }
  }

  /// Independent child stream (for per-component reproducibility).
  Rng split() { return Rng((*this)() ^ 0x9e3779b97f4a7c15ULL); }

  /// Seed of counter-based stream `stream` of master seed `seed`. Two
  /// chained splitmix64 passes: for a fixed seed the map stream → seed is a
  /// bijection, so distinct streams never collide and neighbouring stream
  /// ids are fully decorrelated.
  static std::uint64_t stream_seed(std::uint64_t seed, std::uint64_t stream) {
    std::uint64_t s = seed;
    const std::uint64_t h = splitmix64(s);
    s = h ^ (stream + 0x9e3779b97f4a7c15ULL);
    return splitmix64(s);
  }

  /// Counter-based stream splitting: the returned generator depends only on
  /// (seed, stream), never on how many draws any other stream consumed —
  /// the basis of order-independent, parallel-safe evaluation (see
  /// docs/parallelism.md).
  static Rng fork(std::uint64_t seed, std::uint64_t stream) {
    return Rng(stream_seed(seed, stream));
  }

 private:
  static std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::array<std::uint64_t, 4> state_{};
  double cached_gauss_ = 0.0;
  bool has_cached_gauss_ = false;
};

}  // namespace sei
