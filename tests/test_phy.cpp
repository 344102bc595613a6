#include <gtest/gtest.h>

#include <cmath>
#include <complex>

#include "phy/airtime.hpp"
#include "phy/beamforming.hpp"
#include "phy/csi_channel.hpp"

namespace zeiot::phy {
namespace {

TEST(Airtime, WlanFrame) {
  // 1500 B at 54 Mbps = 222 us payload + 20 us preamble.
  EXPECT_NEAR(dot11_frame_airtime_s(1500), 20e-6 + 1500.0 * 8.0 / 54e6,
              1e-9);
  EXPECT_GT(dot11_exchange_airtime_s(1500), dot11_frame_airtime_s(1500));
}

TEST(Airtime, ZigbeeMuchSlowerThanWlan) {
  EXPECT_GT(dot154_frame_airtime_s(100), 10.0 * dot11_frame_airtime_s(100));
}

TEST(Airtime, BackscatterSlowestOfAll) {
  // The paper: backscatter is much slower than WLAN, so a backscatter
  // frame outlasts the WLAN packet that carries it.
  EXPECT_GT(backscatter_frame_airtime_s(8), dot11_frame_airtime_s(1500));
}

CsiEnvironment small_env() {
  CsiEnvironment env;
  env.subcarriers = 8;  // keep the tests fast
  return env;
}

TEST(CsiChannel, ShapeMatchesEnvironment) {
  Rng rng(1);
  const auto env = small_env();
  const auto h = generate_csi(env, {4.0, 3.0}, 0.0, rng);
  EXPECT_EQ(h.subcarriers, env.subcarriers);
  EXPECT_EQ(h.rx, kCsiClientAntennas);
  EXPECT_EQ(h.tx, kCsiApAntennas);
  EXPECT_EQ(h.data.size(), static_cast<std::size_t>(8 * 3 * 4));
}

TEST(CsiChannel, BodyPositionChangesChannel) {
  Rng rng1(2), rng2(2);
  auto env = small_env();
  env.noise_sigma = 0.0;
  const auto h1 = generate_csi(env, {2.0, 2.0}, 0.0, rng1);
  const auto h2 = generate_csi(env, {6.0, 4.0}, 0.0, rng2);
  double diff = 0.0;
  for (std::size_t i = 0; i < h1.data.size(); ++i) {
    diff += std::abs(h1.data[i] - h2.data[i]);
  }
  EXPECT_GT(diff, 0.1);
}

TEST(CsiChannel, FrequencySelectivity) {
  Rng rng(3);
  auto env = small_env();
  env.noise_sigma = 0.0;
  const auto h = generate_csi(env, {4.0, 3.0}, 0.0, rng);
  // Multipath makes subcarriers differ.
  EXPECT_GT(std::abs(h.at(0, 0, 0) - h.at(7, 0, 0)), 1e-6);
}

TEST(CsiChannel, LosBlockageAttenuates) {
  Rng rng1(4), rng2(4);
  auto env = small_env();
  env.noise_sigma = 0.0;
  env.body_reflection = 0.0;  // isolate the blockage mechanism
  // Body directly on the AP-client line vs far away.
  const Point2D mid{(kCsiAp.x + kCsiClient.x) / 2.0,
                    (kCsiAp.y + kCsiClient.y) / 2.0};
  const auto blocked = generate_csi(env, mid, 0.0, rng1);
  const auto clear = generate_csi(env, {1.0, 5.5}, 0.0, rng2);
  double pb = 0.0, pc = 0.0;
  for (std::size_t i = 0; i < blocked.data.size(); ++i) {
    pb += std::norm(blocked.data[i]);
    pc += std::norm(clear.data[i]);
  }
  EXPECT_LT(pb, pc);
}

TEST(Beamforming, VColumnsOrthonormal) {
  Rng rng(5);
  const auto env = small_env();
  const auto h = generate_csi(env, {4.0, 3.0}, 0.0, rng);
  const auto v = beamforming_v(h, 0, 3);
  ASSERT_EQ(v.rows, 4);
  ASSERT_EQ(v.cols, 3);
  for (int a = 0; a < 3; ++a) {
    for (int b = 0; b < 3; ++b) {
      Cx dot{0.0, 0.0};
      for (int r = 0; r < 4; ++r) dot += std::conj(v.at(r, a)) * v.at(r, b);
      if (a == b) {
        EXPECT_NEAR(std::abs(dot), 1.0, 1e-6);
      } else {
        EXPECT_NEAR(std::abs(dot), 0.0, 1e-4);
      }
    }
  }
}

TEST(Beamforming, GivensAngleCount) {
  Rng rng(6);
  const auto env = small_env();
  const auto h = generate_csi(env, {4.0, 3.0}, 0.0, rng);
  const auto v = beamforming_v(h, 0, 3);
  const auto angles = givens_angles(v);
  // 4x3: 2 * (3 + 2 + 1) = 12 angles.
  EXPECT_EQ(angles.size(), 12u);
}

TEST(Beamforming, AngleRanges) {
  Rng rng(7);
  const auto env = small_env();
  for (int k = 0; k < env.subcarriers; ++k) {
    const auto h = generate_csi(env, {3.0, 4.0}, 0.05, rng);
    const auto angles = givens_angles(beamforming_v(h, k, 3));
    // Column i contributes nphi phis then nphi psis, i = 0..2, nphi = 3-i.
    std::size_t idx = 0;
    for (int i = 0; i < 3; ++i) {
      const int nphi = 3 - i;
      for (int a = 0; a < nphi; ++a) {
        EXPECT_GE(angles[idx], 0.0);
        EXPECT_LT(angles[idx], 2.0 * M_PI + 1e-9);
        ++idx;
      }
      for (int a = 0; a < nphi; ++a) {
        EXPECT_GE(angles[idx], 0.0);
        EXPECT_LE(angles[idx], M_PI / 2.0 + 1e-9);
        ++idx;
      }
    }
  }
}

TEST(Beamforming, ReconstructionRoundtrip) {
  Rng rng(8);
  const auto env = small_env();
  const auto h = generate_csi(env, {5.0, 2.5}, 0.0, rng);
  const auto v = beamforming_v(h, 2, 3);
  const auto angles = givens_angles(v);
  const auto v2 = reconstruct_v(angles, 4, 3);
  // Compression discards a per-column phase: compare |v^H v2| per column.
  for (int c = 0; c < 3; ++c) {
    Cx dot{0.0, 0.0};
    for (int r = 0; r < 4; ++r) dot += std::conj(v.at(r, c)) * v2.at(r, c);
    EXPECT_NEAR(std::abs(dot), 1.0, 1e-6);
  }
}

TEST(Beamforming, ReconstructRejectsWrongCount) {
  EXPECT_THROW(reconstruct_v(std::vector<double>(5, 0.0), 4, 3), Error);
}

TEST(Beamforming, QuantizePhiBounds) {
  for (int bits : {5, 7, 9}) {
    for (double phi = 0.0; phi < 2.0 * M_PI; phi += 0.37) {
      const double q = quantize_phi(phi, bits);
      EXPECT_GE(q, 0.0);
      EXPECT_LT(q, 2.0 * M_PI);
      // Error bounded by half a step.
      EXPECT_LE(std::abs(q - phi), M_PI / std::pow(2.0, bits - 1));
    }
  }
}

TEST(Beamforming, QuantizePsiBounds) {
  for (int bits : {5, 7}) {
    for (double psi = 0.0; psi <= M_PI / 2.0; psi += 0.11) {
      const double q = quantize_psi(psi, bits);
      EXPECT_GE(q, 0.0);
      EXPECT_LE(q, M_PI / 2.0);
      EXPECT_LE(std::abs(q - psi), M_PI / std::pow(2.0, bits + 1));
    }
  }
}

TEST(Beamforming, QuantizationIdempotent) {
  for (double phi = 0.1; phi < 6.2; phi += 0.41) {
    const double q = quantize_phi(phi, 7);
    EXPECT_NEAR(quantize_phi(q, 7), q, 1e-12);
  }
  for (double psi = 0.0; psi <= 1.57; psi += 0.13) {
    const double q = quantize_psi(psi, 5);
    EXPECT_NEAR(quantize_psi(q, 5), q, 1e-12);
  }
}

TEST(Beamforming, FeatureVectorIs624ForPaperConfig) {
  Rng rng(9);
  CsiEnvironment env;  // full 52 subcarriers, 4x3
  const auto h = generate_csi(env, {4.0, 3.0}, 0.0, rng);
  const auto f = compressed_feedback_features(h);
  EXPECT_EQ(f.size(), 624u);
}

TEST(Beamforming, FeaturesChangeWithBodyPosition) {
  Rng rng1(10), rng2(10);
  auto env = small_env();
  env.noise_sigma = 0.0;
  const auto f1 = compressed_feedback_features(
      generate_csi(env, {2.0, 2.0}, 0.0, rng1));
  const auto f2 = compressed_feedback_features(
      generate_csi(env, {6.0, 4.0}, 0.0, rng2));
  double diff = 0.0;
  for (std::size_t i = 0; i < f1.size(); ++i) diff += std::abs(f1[i] - f2[i]);
  EXPECT_GT(diff, 0.5);
}

}  // namespace
}  // namespace zeiot::phy
