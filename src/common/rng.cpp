#include "common/rng.hpp"

#include <cmath>

namespace zeiot {

namespace {

std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

constexpr std::uint64_t kSplitMix = 0x632be59bd9b4e019ULL;  // split()'s key mix

/// The first output of Rng(seed): xoshiro256** of state word 1, the second
/// SplitMix64 word of the seed.
std::uint64_t first_output(std::uint64_t seed) {
  splitmix64(seed);
  return rotl(splitmix64(seed) * 5, 7) * 9;
}

}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t s = seed;
  for (auto& w : state_) w = splitmix64(s);
}

std::uint64_t Rng::operator()() {
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

Rng Rng::split(std::uint64_t stream_id) {
  // Mix the stream id into a fresh SplitMix64 seed derived from this
  // generator's own output so sibling streams differ even for id 0.
  const std::uint64_t base = (*this)();
  return Rng(base ^ (kSplitMix * (stream_id + 1)));
}

double Rng::uniform() {
  // 53 random bits -> double in [0,1).
  return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) {
  ZEIOT_CHECK_MSG(lo <= hi, "uniform(lo,hi) requires lo <= hi");
  return lo + (hi - lo) * uniform();
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  ZEIOT_CHECK_MSG(lo <= hi, "uniform_int(lo,hi) requires lo <= hi");
  const auto range = static_cast<std::uint64_t>(hi - lo) + 1;
  if (range == 0) return static_cast<std::int64_t>((*this)());  // full range
  // Lemire-style rejection to avoid modulo bias.
  std::uint64_t x = (*this)();
  __uint128_t m = static_cast<__uint128_t>(x) * range;
  auto l = static_cast<std::uint64_t>(m);
  if (l < range) {
    const std::uint64_t t = (0 - range) % range;
    while (l < t) {
      x = (*this)();
      m = static_cast<__uint128_t>(x) * range;
      l = static_cast<std::uint64_t>(m);
    }
  }
  return lo + static_cast<std::int64_t>(m >> 64);
}

double Rng::normal() {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return cached_normal_;
  }
  double u, v, s;
  do {
    u = uniform(-1.0, 1.0);
    v = uniform(-1.0, 1.0);
    s = u * u + v * v;
  } while (s >= 1.0 || s == 0.0);
  const double f = std::sqrt(-2.0 * std::log(s) / s);
  cached_normal_ = v * f;
  has_cached_normal_ = true;
  return u * f;
}

double Rng::normal(double mean, double sigma) {
  ZEIOT_CHECK_MSG(sigma >= 0.0, "normal() requires sigma >= 0");
  return mean + sigma * normal();
}

double Rng::exponential(double lambda) {
  ZEIOT_CHECK_MSG(lambda > 0.0, "exponential() requires lambda > 0");
  return -std::log(1.0 - uniform()) / lambda;
}

bool Rng::bernoulli(double p) {
  ZEIOT_CHECK_MSG(p >= 0.0 && p <= 1.0, "bernoulli() requires p in [0,1]");
  return uniform() < p;
}

int Rng::poisson(double mean) {
  ZEIOT_CHECK_MSG(mean >= 0.0, "poisson() requires mean >= 0");
  if (mean == 0.0) return 0;
  if (mean > 60.0) {
    // Normal approximation with continuity correction; adequate for the
    // traffic models this library feeds.
    const double x = normal(mean, std::sqrt(mean));
    return x < 0.0 ? 0 : static_cast<int>(x + 0.5);
  }
  const double limit = std::exp(-mean);
  int k = 0;
  double p = 1.0;
  do {
    ++k;
    p *= uniform();
  } while (p > limit);
  return k - 1;
}

std::size_t Rng::weighted_index(std::span<const double> weights) {
  ZEIOT_CHECK_MSG(!weights.empty(), "weighted_index() requires weights");
  double total = 0.0;
  for (double w : weights) {
    ZEIOT_CHECK_MSG(w >= 0.0, "weighted_index() requires non-negative weights");
    total += w;
  }
  ZEIOT_CHECK_MSG(total > 0.0, "weighted_index() requires a positive weight");
  double r = uniform() * total;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    r -= weights[i];
    if (r < 0.0) return i;
  }
  return weights.size() - 1;  // numerical edge: all mass consumed
}

double keyed_uniform(std::uint64_t seed, std::uint64_t a, std::uint64_t b,
                     std::uint64_t c) {
  std::uint64_t s = first_output(seed) ^ (kSplitMix * (a + 1));
  s = first_output(s) ^ (kSplitMix * (b + 1));
  s = first_output(s) ^ (kSplitMix * (c + 1));
  return static_cast<double>(first_output(s) >> 11) * 0x1.0p-53;
}

std::vector<std::size_t> Rng::permutation(std::size_t n) {
  std::vector<std::size_t> idx(n);
  for (std::size_t i = 0; i < n; ++i) idx[i] = i;
  shuffle(idx);
  return idx;
}

}  // namespace zeiot
