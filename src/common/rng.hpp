// Deterministic pseudo-random number generation for simulations.
//
// Every stochastic component in the library draws from an explicitly passed
// `Rng` so that experiments are reproducible from a single seed and
// independent substreams can be split off per device / per trial without
// correlation (SplitMix64 seeding of xoshiro256**, following Blackman &
// Vigna's recommendations).
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "common/error.hpp"

namespace zeiot {

/// xoshiro256** PRNG with SplitMix64 seeding.
///
/// Satisfies std::uniform_random_bit_generator so it can also be handed to
/// <random> distributions, but the member helpers below are preferred: they
/// are deterministic across standard library implementations.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds the four 64-bit words of state from `seed` via SplitMix64.
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~std::uint64_t{0}; }

  /// Next raw 64-bit output.
  std::uint64_t operator()();

  /// Derives an independent child stream (for per-device randomness).
  /// Children with different `stream_id`s are statistically uncorrelated.
  Rng split(std::uint64_t stream_id);

  /// Uniform double in [0, 1).
  double uniform();
  /// Uniform double in [lo, hi).  Requires lo <= hi.
  double uniform(double lo, double hi);
  /// Uniform integer in [lo, hi] inclusive.  Requires lo <= hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);
  /// Standard normal via Marsaglia polar method.
  double normal();
  /// Normal with given mean and standard deviation (sigma >= 0).
  double normal(double mean, double sigma);
  /// Exponential with rate lambda > 0 (mean 1/lambda).
  double exponential(double lambda);
  /// Bernoulli trial with success probability p in [0, 1].
  bool bernoulli(double p);
  /// Poisson-distributed count with mean >= 0 (Knuth for small means,
  /// normal approximation above 60).
  int poisson(double mean);

  /// Index drawn from the (unnormalised, non-negative) weights.
  std::size_t weighted_index(std::span<const double> weights);

  /// Fisher–Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      const auto j =
          static_cast<std::size_t>(uniform_int(0, static_cast<std::int64_t>(i) - 1));
      std::swap(v[i - 1], v[j]);
    }
  }

  /// Returns indices 0..n-1 in random order.
  std::vector<std::size_t> permutation(std::size_t n);

 private:
  std::array<std::uint64_t, 4> state_{};
  // Cached second output of the polar method.
  double cached_normal_ = 0.0;
  bool has_cached_normal_ = false;
};

/// Rng(seed).split(a).split(b).split(c).uniform(), bit for bit, without
/// building the four generators: a fresh Rng's split() reads only its
/// first output, which is one SplitMix64 word of the seed.  The keyed
/// per-event draw of simulations that must not depend on call order.
double keyed_uniform(std::uint64_t seed, std::uint64_t a, std::uint64_t b,
                     std::uint64_t c);

}  // namespace zeiot
