#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hpp"
#include "common/units.hpp"
#include "radio/ber.hpp"
#include "radio/link.hpp"
#include "radio/propagation.hpp"

namespace zeiot::radio {
namespace {

TEST(FreeSpace, KnownValueAt2p4GHz) {
  // FSPL(1 m, 2.4 GHz) ~= 40.05 dB.
  FreeSpace m(2.4e9);
  EXPECT_NEAR(m.loss_db(1.0), 40.05, 0.1);
  // +20 dB per decade of distance.
  EXPECT_NEAR(m.loss_db(10.0) - m.loss_db(1.0), 20.0, 1e-9);
}

TEST(FreeSpace, MonotonicInDistance) {
  FreeSpace m(2.4e9);
  double prev = m.loss_db(0.5);
  for (double d = 1.0; d < 100.0; d *= 1.7) {
    const double cur = m.loss_db(d);
    EXPECT_GT(cur, prev);
    prev = cur;
  }
}

TEST(FreeSpace, ClampsTinyDistances) {
  FreeSpace m(2.4e9);
  EXPECT_DOUBLE_EQ(m.loss_db(0.0), m.loss_db(0.1));
  EXPECT_DOUBLE_EQ(m.loss_db(0.01), m.loss_db(0.1));
}

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

TEST(IndoorWalls, AddsPerWallLoss) {
  IndoorWalls m(LogDistance(40.0, 2.5), 6.0);
  EXPECT_NEAR(m.loss_db(5.0, 2) - m.loss_db(5.0, 0), 12.0, 1e-9);
  EXPECT_DOUBLE_EQ(m.loss_db(5.0), m.loss_db(5.0, 0));
  EXPECT_THROW(m.loss_db(5.0, -1), Error);
}

TEST(Shadowing, ZeroSigmaIsZero) {
  Rng rng(1);
  EXPECT_DOUBLE_EQ(draw_shadowing_db(rng, 0.0), 0.0);
}

TEST(Shadowing, SigmaScales) {
  Rng rng(1);
  double s2 = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double x = draw_shadowing_db(rng, 4.0);
    s2 += x * x;
  }
  EXPECT_NEAR(std::sqrt(s2 / n), 4.0, 0.1);
}

TEST(ReceivedDbm, BudgetArithmetic) {
  LogDistance m(40.0, 2.0);
  // 0 dBm - 40 dB at 1 m = -40 dBm, plus gains.
  EXPECT_NEAR(received_dbm(m, 0.0, 1.0), -40.0, 1e-9);
  EXPECT_NEAR(received_dbm(m, 0.0, 1.0, 3.0, 2.0), -35.0, 1e-9);
}

TEST(QFunction, KnownValues) {
  EXPECT_NEAR(q_function(0.0), 0.5, 1e-12);
  EXPECT_NEAR(q_function(1.0), 0.1587, 1e-4);
  EXPECT_NEAR(q_function(3.0), 0.00135, 1e-5);
}

TEST(BerBpsk, KnownValues) {
  // BPSK at 0 dB Eb/N0: Q(sqrt(2)) ~= 0.0786.
  EXPECT_NEAR(ber_bpsk(1.0), 0.0786, 1e-3);
  // At 9.6 dB ~ 1e-5.
  EXPECT_NEAR(ber_bpsk(db_to_ratio(9.6)), 1e-5, 5e-6);
}

TEST(BerOok, HalfAtZeroSnr) {
  EXPECT_DOUBLE_EQ(ber_noncoherent_ook(0.0), 0.5);
  EXPECT_LT(ber_noncoherent_ook(10.0), 0.01);
}

TEST(Ber802154, BoundedAndMonotonic) {
  double prev = ber_802154(0.0);
  EXPECT_LE(prev, 0.5);
  for (double snr = 0.05; snr < 2.0; snr += 0.05) {
    const double cur = ber_802154(snr);
    EXPECT_LE(cur, prev + 1e-12);
    EXPECT_GE(cur, 0.0);
    prev = cur;
  }
  // DSSS gain makes 802.15.4 robust around 0 dB SNR and essentially
  // error-free a little above it.
  EXPECT_LT(ber_802154(1.0), 1e-3);
  EXPECT_LT(ber_802154(2.0), 1e-6);
}

TEST(PerFromBer, Basics) {
  EXPECT_DOUBLE_EQ(per_from_ber(0.0, 1000), 0.0);
  EXPECT_NEAR(per_from_ber(1e-3, 1000), 1.0 - std::pow(1.0 - 1e-3, 1000.0),
              1e-9);
  EXPECT_NEAR(per_from_ber(0.5, 1), 0.5, 1e-12);
  EXPECT_THROW(per_from_ber(1.5, 10), Error);
}

TEST(PerFromBer, MonotonicInLength) {
  double prev = 0.0;
  for (std::size_t bits = 8; bits <= 8192; bits *= 2) {
    const double per = per_from_ber(1e-4, bits);
    EXPECT_GT(per, prev);
    prev = per;
  }
}

// Property sweep: all BER functions decrease with SNR.
class BerMonotonicTest : public ::testing::TestWithParam<double> {};

TEST_P(BerMonotonicTest, HigherSnrNeverWorse) {
  const double snr = GetParam();
  const double snr2 = snr * 2.0;
  EXPECT_LE(ber_bpsk(snr2), ber_bpsk(snr) + 1e-15);
  EXPECT_LE(ber_noncoherent_ook(snr2), ber_noncoherent_ook(snr) + 1e-15);
  EXPECT_LE(ber_80211(snr2), ber_80211(snr) + 1e-15);
}

INSTANTIATE_TEST_SUITE_P(SnrGrid, BerMonotonicTest,
                         ::testing::Values(0.01, 0.1, 0.5, 1.0, 2.0, 4.0, 8.0,
                                           16.0));

TEST(LinkBudget, SnrConsistency) {
  LogDistance m(40.0, 2.0);
  TxSpec tx{20.0, 0.0};  // 100 mW
  RxSpec rx;
  const auto b = compute_link(m, tx, rx, 10.0);
  EXPECT_NEAR(b.rx_power_dbm, 20.0 - 60.0, 1e-9);
  EXPECT_NEAR(b.snr_db, b.rx_power_dbm - b.noise_dbm, 1e-9);
  EXPECT_NEAR(b.snr_linear, db_to_ratio(b.snr_db), 1e-6);
}

TEST(LinkBudget, ExtraLossReducesSnr) {
  LogDistance m(40.0, 2.0);
  TxSpec tx{0.0};
  RxSpec rx;
  const auto clean = compute_link(m, tx, rx, 5.0);
  const auto lossy = compute_link(m, tx, rx, 5.0, 10.0);
  EXPECT_NEAR(clean.snr_db - lossy.snr_db, 10.0, 1e-9);
}

TEST(BackscatterBudget, DyadicLossExceedsOneWay) {
  LogDistance m(40.0, 2.0);
  TxSpec src{20.0};
  RxSpec rx;
  const auto direct = compute_link(m, src, rx, 4.0);
  const auto tagged = compute_backscatter_link(m, src, rx, 2.0, 2.0);
  // Two path-loss legs plus reflection loss are always worse than the
  // single direct leg of the same total distance.
  EXPECT_LT(tagged.rx_power_dbm, direct.rx_power_dbm);
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
