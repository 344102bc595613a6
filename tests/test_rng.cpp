#include "common/rng.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <set>

namespace zeiot {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a() == b()) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformMeanNearHalf) {
  Rng rng(7);
  double s = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) s += rng.uniform();
  EXPECT_NEAR(s / n, 0.5, 0.01);
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-3.0, 5.5);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 5.5);
  }
}

TEST(Rng, UniformRejectsInvertedBounds) {
  Rng rng(9);
  EXPECT_THROW(rng.uniform(2.0, 1.0), Error);
}

TEST(Rng, UniformIntCoversFullRangeInclusive) {
  Rng rng(5);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.uniform_int(0, 5));
  EXPECT_EQ(seen.size(), 6u);
  EXPECT_EQ(*seen.begin(), 0);
  EXPECT_EQ(*seen.rbegin(), 5);
}

TEST(Rng, UniformIntSingleton) {
  Rng rng(5);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(rng.uniform_int(42, 42), 42);
}

TEST(Rng, UniformIntNegativeRange) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.uniform_int(-10, -5);
    EXPECT_GE(v, -10);
    EXPECT_LE(v, -5);
  }
}

TEST(Rng, NormalMoments) {
  Rng rng(13);
  double s = 0.0, s2 = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    s += x;
    s2 += x * x;
  }
  EXPECT_NEAR(s / n, 0.0, 0.02);
  EXPECT_NEAR(s2 / n, 1.0, 0.03);
}

TEST(Rng, NormalScaled) {
  Rng rng(13);
  double s = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) s += rng.normal(10.0, 2.0);
  EXPECT_NEAR(s / n, 10.0, 0.05);
}

TEST(Rng, NormalRejectsNegativeSigma) {
  Rng rng(13);
  EXPECT_THROW(rng.normal(0.0, -1.0), Error);
}

TEST(Rng, ExponentialMean) {
  Rng rng(17);
  double s = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) s += rng.exponential(2.0);
  EXPECT_NEAR(s / n, 0.5, 0.01);
}

TEST(Rng, ExponentialPositive) {
  Rng rng(17);
  for (int i = 0; i < 1000; ++i) EXPECT_GT(rng.exponential(1.0), 0.0);
}

TEST(Rng, ExponentialRejectsNonPositiveRate) {
  Rng rng(17);
  EXPECT_THROW(rng.exponential(0.0), Error);
}

TEST(Rng, BernoulliExtremes) {
  Rng rng(19);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(19);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, PoissonMeanSmall) {
  Rng rng(23);
  double s = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) s += rng.poisson(3.5);
  EXPECT_NEAR(s / n, 3.5, 0.06);
}

TEST(Rng, PoissonMeanLarge) {
  Rng rng(23);
  double s = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) s += rng.poisson(100.0);
  EXPECT_NEAR(s / n, 100.0, 0.5);
}

TEST(Rng, PoissonZeroMean) {
  Rng rng(23);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.poisson(0.0), 0);
}

TEST(Rng, WeightedIndexRespectsWeights) {
  Rng rng(29);
  const std::vector<double> w{1.0, 0.0, 3.0};
  int counts[3] = {0, 0, 0};
  const int n = 40000;
  for (int i = 0; i < n; ++i) ++counts[rng.weighted_index(w)];
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(static_cast<double>(counts[0]) / n, 0.25, 0.02);
  EXPECT_NEAR(static_cast<double>(counts[2]) / n, 0.75, 0.02);
}

TEST(Rng, WeightedIndexRejectsDegenerate) {
  Rng rng(29);
  const std::vector<double> zero{0.0, 0.0};
  EXPECT_THROW(rng.weighted_index(zero), Error);
  const std::vector<double> neg{1.0, -0.5};
  EXPECT_THROW(rng.weighted_index(neg), Error);
}

TEST(Rng, PermutationIsPermutation) {
  Rng rng(31);
  const auto p = rng.permutation(50);
  ASSERT_EQ(p.size(), 50u);
  std::set<std::size_t> s(p.begin(), p.end());
  EXPECT_EQ(s.size(), 50u);
  EXPECT_EQ(*s.rbegin(), 49u);
}

TEST(Rng, PermutationActuallyShuffles) {
  Rng rng(31);
  const auto p = rng.permutation(100);
  int fixed = 0;
  for (std::size_t i = 0; i < p.size(); ++i) {
    if (p[i] == i) ++fixed;
  }
  EXPECT_LT(fixed, 10);  // expected ~1 fixed point
}

TEST(Rng, SplitStreamsAreIndependent) {
  Rng parent(37);
  Rng a = parent.split(0);
  Rng b = parent.split(1);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a() == b()) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(Rng, SplitIsDeterministic) {
  Rng p1(41), p2(41);
  Rng a = p1.split(5);
  Rng b = p2.split(5);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, ShufflePreservesElements) {
  Rng rng(43);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7};
  auto sorted = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

// Property sweep: uniform_int stays in bounds across many ranges.
class RngRangeTest : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(RngRangeTest, UniformIntInBounds) {
  const auto [lo, hi] = GetParam();
  Rng rng(static_cast<std::uint64_t>(lo) * 31 + static_cast<std::uint64_t>(hi));
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.uniform_int(lo, hi);
    EXPECT_GE(v, lo);
    EXPECT_LE(v, hi);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Ranges, RngRangeTest,
    ::testing::Values(std::pair{0, 1}, std::pair{-1, 1}, std::pair{0, 100},
                      std::pair{-1000, 1000}, std::pair{5, 5},
                      std::pair{-7, -7}, std::pair{0, 1000000}));

TEST(Rng, KeyedUniformIsTheSplitChainsDraw) {
  // Bit for bit, over 10^5 random keys plus every combination of the
  // extreme keys 0 and UINT64_MAX (whose split mix multiplies by 0).
  constexpr std::uint64_t kMax = ~std::uint64_t{0};
  auto chain = [](std::uint64_t s, std::uint64_t a, std::uint64_t b,
                  std::uint64_t c) {
    return Rng(s).split(a).split(b).split(c).uniform();
  };
  for (const std::uint64_t s : {std::uint64_t{0}, kMax}) {
    for (const std::uint64_t a : {std::uint64_t{0}, kMax}) {
      for (const std::uint64_t b : {std::uint64_t{0}, kMax}) {
        for (const std::uint64_t c : {std::uint64_t{0}, kMax}) {
          ASSERT_EQ(keyed_uniform(s, a, b, c), chain(s, a, b, c));
        }
      }
    }
  }
  Rng keys(2024);
  for (int i = 0; i < 100000; ++i) {
    const std::uint64_t s = keys();
    // Small keys too, as a frame's hop and attempt numbers are.
    const std::uint64_t a = keys();
    const std::uint64_t b = keys() % 8;
    const std::uint64_t c = i % 2 == 0 ? keys() % 4 : keys();
    ASSERT_EQ(keyed_uniform(s, a, b, c), chain(s, a, b, c))
        << s << " " << a << " " << b << " " << c;
  }
}

}  // namespace
}  // namespace zeiot
