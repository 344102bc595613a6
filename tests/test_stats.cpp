#include "common/stats.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace zeiot {
namespace {

TEST(RunningStats, EmptyDefaults) {
  RunningStats s;
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(RunningStats, SingleSample) {
  RunningStats s;
  s.add(42.0);
  EXPECT_EQ(s.count(), 1u);
  EXPECT_DOUBLE_EQ(s.mean(), 42.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), 42.0);
  EXPECT_DOUBLE_EQ(s.max(), 42.0);
}

TEST(RunningStats, KnownMeanAndVariance) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);  // unbiased
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStats, MergeMatchesSequential) {
  Rng rng(3);
  RunningStats all, a, b;
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.normal(3.0, 2.0);
    all.add(x);
    (i % 2 == 0 ? a : b).add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(RunningStats, MergeWithEmpty) {
  RunningStats a, b;
  a.add(1.0);
  a.add(2.0);
  const double mean = a.mean();
  a.merge(b);
  EXPECT_DOUBLE_EQ(a.mean(), mean);
  b.merge(a);
  EXPECT_DOUBLE_EQ(b.mean(), mean);
}

TEST(Histogram, RejectsBadConstruction) {
  EXPECT_THROW(Histogram(1.0, 1.0, 10), Error);
  EXPECT_THROW(Histogram(0.0, 1.0, 0), Error);
}

TEST(Histogram, BinsAndClamping) {
  Histogram h(0.0, 10.0, 10);
  h.add(0.5);
  h.add(9.5);
  h.add(-100.0);  // clamps to first bin
  h.add(100.0);   // clamps to last bin
  EXPECT_EQ(h.bin_count(0), 2u);
  EXPECT_EQ(h.bin_count(9), 2u);
  EXPECT_EQ(h.total(), 4u);
}

TEST(Histogram, BinEdges) {
  Histogram h(0.0, 10.0, 5);
  EXPECT_DOUBLE_EQ(h.bin_low(0), 0.0);
  EXPECT_DOUBLE_EQ(h.bin_high(0), 2.0);
  EXPECT_DOUBLE_EQ(h.bin_low(4), 8.0);
  EXPECT_DOUBLE_EQ(h.bin_high(4), 10.0);
}

TEST(Histogram, QuantileOfUniformFill) {
  Histogram h(0.0, 100.0, 100);
  Rng rng(5);
  for (int i = 0; i < 100000; ++i) h.add(rng.uniform(0.0, 100.0));
  EXPECT_NEAR(h.quantile(0.5), 50.0, 2.0);
  EXPECT_NEAR(h.quantile(0.9), 90.0, 2.0);
  EXPECT_NEAR(h.quantile(0.1), 10.0, 2.0);
}

TEST(Histogram, QuantileEmptyReturnsLow) {
  Histogram h(2.0, 4.0, 4);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 2.0);
}

TEST(Histogram, PercentileMatchesQuantile) {
  Histogram h(0.0, 100.0, 100);
  Rng rng(11);
  for (int i = 0; i < 50000; ++i) h.add(rng.uniform(0.0, 100.0));
  EXPECT_DOUBLE_EQ(h.percentile(50.0), h.quantile(0.5));
  EXPECT_DOUBLE_EQ(h.percentile(95.0), h.quantile(0.95));
  EXPECT_DOUBLE_EQ(h.percentile(99.0), h.quantile(0.99));
  EXPECT_NEAR(h.percentile(50.0), 50.0, 2.0);
  EXPECT_NEAR(h.percentile(95.0), 95.0, 2.0);
}

TEST(Histogram, PercentileBounds) {
  Histogram h(0.0, 10.0, 10);
  h.add(5.0);
  EXPECT_DOUBLE_EQ(h.percentile(0.0), h.quantile(0.0));
  EXPECT_DOUBLE_EQ(h.percentile(100.0), h.quantile(1.0));
  EXPECT_THROW(h.percentile(-1.0), Error);
  EXPECT_THROW(h.percentile(100.5), Error);
}

TEST(Histogram, QuantileEdgesSkipEmptyLeadingAndTrailingBins) {
  // One sample in the middle bin: q=0 must report the low edge of the
  // first *occupied* bin (not lo_) and q=1 the high edge of the last
  // occupied bin (not hi_).
  Histogram h(0.0, 10.0, 10);
  h.add(5.5);  // bin 5: [5, 6)
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 5.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 6.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 5.5);  // uniform mass inside the bin
}

TEST(Histogram, QuantileSingleBucketInterpolatesLinearly) {
  Histogram h(2.0, 4.0, 1);
  h.add(3.0);
  h.add(3.5);
  // All mass in the only bin: q maps linearly across [lo, hi].
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 2.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.25), 2.5);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 3.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 4.0);
}

TEST(Histogram, QuantileNeverInterpolatesIntoEmptyBins) {
  // Bimodal: one sample in bin 0, one in bin 9, bins 1-8 empty.  Every
  // quantile must land inside an occupied bin — never in the (1, 9) gap.
  Histogram h(0.0, 10.0, 10);
  h.add(0.5);
  h.add(9.5);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 1.0);   // high edge of bin 0
  EXPECT_DOUBLE_EQ(h.quantile(0.75), 9.5);  // halfway through bin 9
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 10.0);
  for (double q : {0.1, 0.3, 0.5, 0.6, 0.8, 0.99}) {
    const double v = h.quantile(q);
    EXPECT_TRUE(v <= 1.0 || v >= 9.0) << "q=" << q << " -> " << v;
  }
}

TEST(Histogram, QuantileEmptyHistogramAllEdges) {
  Histogram h(2.0, 4.0, 4);
  EXPECT_DOUBLE_EQ(h.percentile(0.0), 2.0);
  EXPECT_DOUBLE_EQ(h.percentile(100.0), 2.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.37), 2.0);
}

TEST(Histogram, MergeAddsCounts) {
  Histogram a(0.0, 10.0, 10), b(0.0, 10.0, 10);
  a.add(1.0);
  a.add(2.5);
  b.add(2.5);
  b.add(9.9);
  a.merge(b);
  EXPECT_EQ(a.total(), 4u);
  EXPECT_EQ(a.bin_count(1), 1u);
  EXPECT_EQ(a.bin_count(2), 2u);
  EXPECT_EQ(a.bin_count(9), 1u);
}

TEST(Histogram, MergeRejectsMismatchedBinning) {
  Histogram a(0.0, 10.0, 10);
  Histogram b(0.0, 10.0, 5);
  Histogram c(0.0, 20.0, 10);
  EXPECT_THROW(a.merge(b), Error);
  EXPECT_THROW(a.merge(c), Error);
}

// Hand-computed p50/p99 regression pins over the population 1..100 for
// the nearest-rank convention (netexec/fleet/obs_report): p50 ->
// llround(49.5) = 50 (half-up) -> v[50] = 51; p99 -> llround(98.01) = 98
// -> v[98] = 99.
TEST(NearestRankQuantile, HandComputedP50P99) {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(static_cast<double>(i));
  EXPECT_DOUBLE_EQ(nearest_rank_quantile(v, 0.50), 51.0);
  EXPECT_DOUBLE_EQ(nearest_rank_quantile(v, 0.99), 99.0);
}

TEST(NearestRankQuantile, EdgesAndEmpty) {
  EXPECT_DOUBLE_EQ(nearest_rank_quantile({}, 0.5), 0.0);  // defined zero
  EXPECT_DOUBLE_EQ(nearest_rank_quantile({7.0}, 0.0), 7.0);
  EXPECT_DOUBLE_EQ(nearest_rank_quantile({7.0}, 1.0), 7.0);
  // Two samples: q=0.5 -> llround(0.5) = 1 (half-up), the upper one —
  // matching tools/obs_report.py's pinned percentile([1,2], 0.5) == 2.
  EXPECT_DOUBLE_EQ(nearest_rank_quantile({1.0, 2.0}, 0.5), 2.0);
  EXPECT_THROW(nearest_rank_quantile({1.0}, 1.5), Error);
}

}  // namespace
}  // namespace zeiot
