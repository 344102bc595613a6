#include <gtest/gtest.h>

#include "common/error.hpp"
#include "common/units.hpp"
#include "radio/link.hpp"
#include "radio/propagation.hpp"

namespace zeiot::radio {
namespace {

TEST(LogDistance, SlopeMatchesExponent) {
  LogDistance m(40.0, 3.0);
  EXPECT_NEAR(m.loss_db(1.0), 40.0, 1e-9);
  EXPECT_NEAR(m.loss_db(10.0), 70.0, 1e-9);
  EXPECT_NEAR(m.loss_db(100.0), 100.0, 1e-9);
}

TEST(LogDistance, RejectsBadParams) {
  EXPECT_THROW(LogDistance(40.0, 0.0), Error);
  EXPECT_THROW(LogDistance(40.0, 2.0, 0.0), Error);
}

TEST(LinkBudget, SnrConsistency) {
  LogDistance m(40.0, 2.0);
  TxSpec tx{20.0, 0.0};  // 100 mW
  RxSpec rx;
  // 10 m to the tag, 1 m back, lossless reflection.
  const auto b = compute_backscatter_link(m, tx, rx, 10.0, 1.0, 0.0);
  EXPECT_NEAR(b.rx_power_dbm, 20.0 - 60.0 - 40.0, 1e-9);
  EXPECT_NEAR(b.snr_db, b.rx_power_dbm - b.noise_dbm, 1e-9);
  EXPECT_NEAR(b.snr_linear, db_to_ratio(b.snr_db), 1e-6);
}

TEST(LinkBudget, ExtraLossReducesSnr) {
  LogDistance m(40.0, 2.0);
  TxSpec tx{0.0};
  RxSpec rx;
  const auto clean = compute_backscatter_link(m, tx, rx, 5.0, 5.0);
  const auto lossy = compute_backscatter_link(m, tx, rx, 5.0, 5.0, 6.0, 10.0);
  EXPECT_NEAR(clean.snr_db - lossy.snr_db, 10.0, 1e-9);
}

TEST(BackscatterBudget, DyadicLossExceedsOneWay) {
  LogDistance m(40.0, 2.0);
  TxSpec src{20.0};
  RxSpec rx;
  const double direct_dbm = src.power_dbm - m.loss_db(4.0);
  const auto tagged = compute_backscatter_link(m, src, rx, 2.0, 2.0);
  // Two path-loss legs plus reflection loss are always worse than the
  // single direct leg of the same total distance.
  EXPECT_LT(tagged.rx_power_dbm, direct_dbm);
}

TEST(BackscatterBudget, ReflectionLossCounts) {
  LogDistance m(40.0, 2.0);
  TxSpec src{20.0};
  RxSpec rx;
  const auto a = compute_backscatter_link(m, src, rx, 2.0, 3.0, 0.0);
  const auto b = compute_backscatter_link(m, src, rx, 2.0, 3.0, 6.0);
  EXPECT_NEAR(a.rx_power_dbm - b.rx_power_dbm, 6.0, 1e-9);
}

TEST(Sinr, InterferenceDominatesNoise) {
  // Strong interferer: SINR ~= SIR.
  const double v = sinr_db(-60.0, -65.0, -100.0);
  EXPECT_NEAR(v, 5.0, 0.1);
  // No interferer in practice: SINR ~= SNR.
  const double v2 = sinr_db(-60.0, -200.0, -90.0);
  EXPECT_NEAR(v2, 30.0, 0.1);
}

TEST(Harvesting, ScalesWithEfficiencyAndDistance) {
  LogDistance m(40.0, 2.0);
  TxSpec tx{30.0};  // 1 W carrier
  const double p1 = harvestable_power_watt(m, tx, 1.0, 0.3);
  const double p2 = harvestable_power_watt(m, tx, 2.0, 0.3);
  EXPECT_GT(p1, p2);
  EXPECT_NEAR(p1 / p2, 4.0, 0.01);  // exponent 2 -> inverse square
  EXPECT_NEAR(harvestable_power_watt(m, tx, 1.0, 0.6) / p1, 2.0, 0.01);
  EXPECT_THROW(harvestable_power_watt(m, tx, 1.0, 1.5), Error);
}

TEST(Harvesting, RealisticMicrowattRegime) {
  // 1 W transmitter at 5 m, indoor: harvested power should land in the
  // microwatt regime the paper quotes for backscatter devices.
  LogDistance m(40.0, 2.5);
  TxSpec tx{30.0};
  const double p = harvestable_power_watt(m, tx, 5.0, 0.3);
  EXPECT_GT(p, 1e-7);
  EXPECT_LT(p, 1e-3);
}

}  // namespace
}  // namespace zeiot::radio
