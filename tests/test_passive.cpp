#include "sensing/passive/transducer.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"

namespace zeiot::sensing::passive {
namespace {

// -------------------------------------------------------------- bimetallic --

TEST(Bimetallic, SwitchesAtThreshold) {
  BimetallicTag tag(25.0, 1.0);
  EXPECT_FALSE(tag.update(24.0));
  EXPECT_TRUE(tag.update(25.5));
  // Hysteresis: stays closed just below threshold.
  EXPECT_TRUE(tag.update(24.5));
  EXPECT_FALSE(tag.update(23.5));
}

TEST(Bimetallic, RssiLevelsSeparate) {
  BimetallicTag tag(25.0);
  Rng rng(1);
  tag.update(30.0);
  double closed_mean = 0.0;
  for (int i = 0; i < 200; ++i) closed_mean += tag.observed_rssi_dbm(rng);
  closed_mean /= 200.0;
  tag.update(10.0);
  double open_mean = 0.0;
  for (int i = 0; i < 200; ++i) open_mean += tag.observed_rssi_dbm(rng);
  open_mean /= 200.0;
  EXPECT_GT(closed_mean, open_mean + 10.0);
}

TEST(Thermometer, DecodesWithinQuantization) {
  ThermometerArray arr(18.0, 2.0, 8);  // thresholds 18..32 C
  Rng rng(2);
  for (double truth : {19.0, 23.0, 27.5, 31.0}) {
    const auto rssi = arr.expose(truth, rng);
    const double est = arr.decode(rssi);
    EXPECT_NEAR(est, truth, arr.quantization_step_c())
        << "at true temperature " << truth;
  }
}

TEST(Thermometer, BelowRangeClamps) {
  ThermometerArray arr(18.0, 2.0, 8);
  Rng rng(3);
  const auto rssi = arr.expose(5.0, rng);
  EXPECT_LT(arr.decode(rssi), 18.0);
}

TEST(Thermometer, TracksRisingAndFallingSweep) {
  ThermometerArray arr(18.0, 1.0, 15);
  Rng rng(4);
  double max_err = 0.0;
  for (double t = 16.0; t <= 34.0; t += 0.5) {
    max_err = std::max(max_err, std::abs(arr.decode(arr.expose(t, rng)) - t));
  }
  for (double t = 34.0; t >= 16.0; t -= 0.5) {
    max_err = std::max(max_err, std::abs(arr.decode(arr.expose(t, rng)) - t));
  }
  // Quantization + hysteresis bound the worst error to ~2 steps.
  EXPECT_LT(max_err, 2.5);
}

TEST(Thermometer, RejectsBadConstruction) {
  EXPECT_THROW(ThermometerArray(18.0, 0.0, 8), Error);
  EXPECT_THROW(ThermometerArray(18.0, 1.0, 1), Error);
}

// ---------------------------------------------------------------- hydrogel --

TEST(Hydrogel, ReflectionMonotone) {
  HydrogelTag tag(25.0, 3.0);
  double prev = 0.0;
  for (double t = 10.0; t <= 40.0; t += 1.0) {
    const double r = tag.reflection(t);
    EXPECT_GT(r, prev);
    EXPECT_GE(r, 0.1);
    EXPECT_LE(r, 0.9);
    prev = r;
  }
}

TEST(Hydrogel, CalibratedDecodeAccurate) {
  HydrogelTag tag(25.0, 3.0);
  const auto cal = tag.calibrate(15.0, 35.0, 64);
  Rng rng(5);
  double max_err = 0.0;
  for (double truth = 17.0; truth <= 33.0; truth += 0.8) {
    const double rssi = tag.observed_rssi_dbm(truth, rng, 0.2);
    max_err = std::max(max_err, std::abs(cal.decode(rssi) - truth));
  }
  // Sub-degree accuracy in the steep transition band, worse at the tails;
  // overall within 2.5 C at 0.2 dB noise.
  EXPECT_LT(max_err, 2.5);
}

TEST(Hydrogel, DecodeClampsOutOfRange) {
  HydrogelTag tag(25.0, 3.0);
  const auto cal = tag.calibrate(15.0, 35.0, 32);
  EXPECT_DOUBLE_EQ(cal.decode(-100.0), 15.0);
  EXPECT_DOUBLE_EQ(cal.decode(0.0), 35.0);
}

TEST(Hydrogel, RejectsBadParams) {
  EXPECT_THROW(HydrogelTag(25.0, 0.0), Error);
  HydrogelTag tag(25.0, 3.0);
  EXPECT_THROW(tag.calibrate(30.0, 20.0, 16), Error);
  EXPECT_THROW(tag.calibrate(20.0, 30.0, 1), Error);
}

// --------------------------------------------------------------- vibration --

TEST(Vibration, WaveformShape) {
  Rng rng(6);
  const auto w = vibration_waveform(5.0, 2.0, rng);
  EXPECT_EQ(w.size(), static_cast<std::size_t>(2.0 * kVibrationSampleRateHz));
}

TEST(Vibration, FrequencyEstimateAccurate) {
  Rng rng(7);
  for (double truth : {2.0, 5.0, 10.0, 20.0}) {
    const auto w = vibration_waveform(truth, 5.0, rng);
    const double est = estimate_vibration_hz(w);
    EXPECT_NEAR(est, truth, 0.15 * truth) << "at " << truth << " Hz";
  }
}

TEST(Vibration, RejectsAboveNyquist) {
  Rng rng(8);
  EXPECT_THROW(vibration_waveform(120.0, 1.0, rng), Error);
}

TEST(Vibration, RejectsShortWaveform) {
  EXPECT_THROW(estimate_vibration_hz(std::vector<double>(4, -60.0)), Error);
}

TEST(Vibration, NoisyWaveformStillDecodes) {
  Rng rng(9);
  const auto w = vibration_waveform(8.0, 5.0, rng);
  EXPECT_NEAR(estimate_vibration_hz(w), 8.0, 2.0);
}

}  // namespace
}  // namespace zeiot::sensing::passive
