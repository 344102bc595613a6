// Zero-energy sensing transducers (paper Sec. III.A Fig. 2(b) and
// Sec. III.C): physical structures that change the antenna impedance of a
// batteryless tag in response to the environment, so the quantity of
// interest is read directly off the backscattered signal — no electronics,
// no battery.
//
//  * BimetallicTag — a bimetallic switch opens/closes at a temperature
//    threshold (with mechanical hysteresis); an array of tags with
//    staggered thresholds forms a thermometer code readable over
//    backscatter RSSI.
//  * HydrogelTag — a stimuli-responsive hydrogel swells continuously with
//    temperature, smoothly modulating the reflection amplitude; decoded by
//    inverting a calibration curve.
//  * VibrationTag — a spring-mass switch toggles the antenna load as the
//    structure oscillates, so the backscatter flicker rate *is* the
//    vibration frequency (application (v): wind and ground fluctuation of
//    sloping lands).
#pragma once

#include <vector>

#include "common/rng.hpp"

namespace zeiot::sensing::passive {

// ----------------------------------------------------------- bimetallic --

/// A single bimetallic backscatter switch.
class BimetallicTag {
 public:
  /// Switch closes above `threshold_c`, reopens `hysteresis_c` below it.
  BimetallicTag(double threshold_c, double hysteresis_c = 1.0);

  /// Updates mechanical state for ambient temperature `temp_c` and
  /// returns whether the switch is closed (reflective).
  bool update(double temp_c);
  bool closed() const { return closed_; }
  double threshold_c() const { return threshold_c_; }

  /// Observed backscatter RSSI for the current state (dBm + noise).
  double observed_rssi_dbm(Rng& rng, double noise_db = 1.0) const;

  /// RSSI levels of the two states (reflective vs absorptive).
  static constexpr double kClosedRssiDbm = -55.0;
  static constexpr double kOpenRssiDbm = -70.0;

 private:
  double threshold_c_;
  double hysteresis_c_;
  bool closed_ = false;
};

/// An array of bimetallic tags with staggered thresholds: a zero-energy
/// thermometer.
class ThermometerArray {
 public:
  /// Tags at thresholds lo, lo+step, ..., covering [lo, lo+step*(n-1)].
  ThermometerArray(double lo_c, double step_c, int n, double hysteresis_c = 1.0);

  /// Exposes the array to `temp_c` and returns the observed RSSI vector.
  std::vector<double> expose(double temp_c, Rng& rng, double noise_db = 1.0);

  /// Decodes a temperature estimate from observed RSSI levels: the count
  /// of closed switches maps to the threshold grid (midpoint convention).
  double decode(const std::vector<double>& rssi_dbm) const;

  int size() const { return static_cast<int>(tags_.size()); }
  double quantization_step_c() const { return step_c_; }

 private:
  std::vector<BimetallicTag> tags_;
  double lo_c_;
  double step_c_;
};

// -------------------------------------------------------------- hydrogel --

/// Continuous hydrogel transducer with a sigmoid swelling response.
class HydrogelTag {
 public:
  /// Swelling transitions around `center_c` over ~`width_c` degrees.
  HydrogelTag(double center_c, double width_c);

  /// Reflection amplitude in [0.1, 0.9] for a given temperature.
  double reflection(double temp_c) const;
  /// Observed RSSI (amplitude-modulated carrier + noise).
  double observed_rssi_dbm(double temp_c, Rng& rng,
                           double noise_db = 0.5) const;

  /// Builds a calibration table over [lo, hi] and returns a decoder
  /// functionally inverting observed RSSI back to temperature (clamped to
  /// the calibrated range).
  struct Calibration {
    std::vector<double> temp_c;
    std::vector<double> rssi_dbm;
    double decode(double rssi) const;
  };
  Calibration calibrate(double lo_c, double hi_c, int points) const;

 private:
  double center_c_;
  double width_c_;
};

// ------------------------------------------------------------- vibration --

/// Spring-mass backscatter switch: toggles at the structure's oscillation
/// between -55 dBm (closed) and -70 dBm (open); the reader samples its
/// RSSI at kVibrationSampleRateHz with 1.5 dB of noise.
inline constexpr double kVibrationSampleRateHz = 200.0;

/// Synthesises the observed RSSI waveform of a structure vibrating at
/// `freq_hz` for `duration_s`.
std::vector<double> vibration_waveform(double freq_hz, double duration_s,
                                       Rng& rng);

/// Estimates the vibration frequency from an observed waveform by counting
/// threshold crossings of the de-meaned signal.
double estimate_vibration_hz(const std::vector<double>& rssi_dbm);

}  // namespace zeiot::sensing::passive
