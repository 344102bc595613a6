#include "phy/full_duplex.hpp"

#include <gtest/gtest.h>

namespace zeiot::phy {
namespace {

radio::LogDistance model() { return radio::LogDistance(40.0, 2.5); }

TEST(FullDuplex, SicChainSums) {
  EXPECT_DOUBLE_EQ(kTotalSicDb, 110.0);
  EXPECT_DOUBLE_EQ(kResidualSiDbm, 20.0 - 110.0);
}

TEST(FullDuplex, SinrDecreasesWithDistance) {
  const auto m = model();
  double prev = backscatter_sinr_db(m, 0.5);
  for (double d = 1.0; d <= 16.0; d *= 2.0) {
    const double s = backscatter_sinr_db(m, d);
    EXPECT_LT(s, prev);
    prev = s;
  }
}

TEST(FullDuplex, DefaultApReachesMetres) {
  // The paper's testbeds work at metres; the model should agree with a
  // 110 dB SIC chain and a 5 dB decoding threshold.
  const double r = backscatter_range_m(model(), 5.0);
  EXPECT_GT(r, 1.0);
  EXPECT_LT(r, 100.0);
}

TEST(FullDuplex, UnreachableThresholdYieldsZeroRange) {
  // No tag distance reaches 100 dB of SINR, not even the closest one.
  EXPECT_DOUBLE_EQ(backscatter_range_m(model(), 100.0), 0.0);
}

TEST(FullDuplex, ReflectionLossReducesSinrOneForOne) {
  const auto m = model();
  const double a = backscatter_sinr_db(m, 3.0, 0.0);
  const double b = backscatter_sinr_db(m, 3.0, 6.0);
  EXPECT_NEAR(a - b, 6.0, 0.2);
}

}  // namespace
}  // namespace zeiot::phy
