// Multipath MIMO-OFDM channel model producing per-subcarrier channel
// matrices — the synthetic stand-in for capturing real 802.11ac CSI
// feedback frames (paper Sec. IV.B, ref [8]).
//
// The environment is a rectangular room: rays are the line-of-sight path,
// first-order wall reflections (image method), and a scatterer for the
// human body whose position is the quantity the localization pipeline
// estimates.  Each ray contributes amplitude * exp(-j 2 pi f tau) per
// subcarrier and per antenna pair, so moving the body shifts both the
// amplitude and the phase structure of H — exactly the signal the
// compressed-beamforming angles encode.
#pragma once

#include <complex>
#include <vector>

#include "common/geometry.hpp"
#include "common/rng.hpp"

namespace zeiot::phy {

using Cx = std::complex<double>;

/// Channel matrices for all subcarriers: h[k] is rx_antennas x tx_antennas
/// (row-major).
struct CsiMatrix {
  int subcarriers = 0;
  int rx = 0;
  int tx = 0;
  std::vector<Cx> data;  // [k][r][t]

  Cx& at(int k, int r, int t);
  Cx at(int k, int r, int t) const;
};

/// The one room every CSI capture is taken in: an 8 m x 6 m room with the
/// AP and the client on its long axis, each a linear array along y.
inline constexpr Rect kCsiRoom{0.0, 0.0, 8.0, 6.0};
inline constexpr Point2D kCsiAp{0.5, 3.0};
inline constexpr Point2D kCsiClient{7.5, 3.0};
inline constexpr int kCsiApAntennas = 4;      // Nr of the fed-back V
inline constexpr int kCsiClientAntennas = 3;  // Nc (spatial streams)

/// The capture settings that vary: the localization patterns change the
/// array spacing and the noise, and the tests and microbenchmarks the
/// subcarrier count and the body's scatter.
struct CsiEnvironment {
  /// Antenna element spacing (metres) for the AP and client linear arrays.
  double antenna_spacing_m = 0.06;
  int subcarriers = 52;     // data subcarriers of a 20 MHz VHT symbol
  /// Scattering strength of a human body (amplitude factor at 1 m).
  double body_reflection = 0.5;
  /// Measurement noise added to each H entry (std dev, relative).
  double noise_sigma = 0.02;
};

/// Generates one CSI snapshot.  `body` is the person's position;
/// `body_jitter_m` models posture/micro-movement (e.g. a walking person has
/// larger jitter, which the paper found *helps* classification).
CsiMatrix generate_csi(const CsiEnvironment& env, Point2D body,
                       double body_jitter_m, Rng& rng);

}  // namespace zeiot::phy
