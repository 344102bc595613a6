#include "sensing/passive/transducer.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace zeiot::sensing::passive {

// ----------------------------------------------------------- bimetallic --

BimetallicTag::BimetallicTag(double threshold_c, double hysteresis_c)
    : threshold_c_(threshold_c), hysteresis_c_(hysteresis_c) {
  ZEIOT_CHECK_MSG(hysteresis_c >= 0.0, "hysteresis must be >= 0");
}

bool BimetallicTag::update(double temp_c) {
  if (!closed_ && temp_c >= threshold_c_) closed_ = true;
  else if (closed_ && temp_c < threshold_c_ - hysteresis_c_) closed_ = false;
  return closed_;
}

double BimetallicTag::observed_rssi_dbm(Rng& rng, double noise_db) const {
  const double level = closed_ ? kClosedRssiDbm : kOpenRssiDbm;
  return level + rng.normal(0.0, noise_db);
}

ThermometerArray::ThermometerArray(double lo_c, double step_c, int n,
                                   double hysteresis_c)
    : lo_c_(lo_c), step_c_(step_c) {
  ZEIOT_CHECK_MSG(n >= 2, "need >= 2 tags for a thermometer");
  ZEIOT_CHECK_MSG(step_c > 0.0, "threshold step must be > 0");
  for (int i = 0; i < n; ++i) {
    tags_.emplace_back(lo_c + step_c * i, hysteresis_c);
  }
}

std::vector<double> ThermometerArray::expose(double temp_c, Rng& rng,
                                             double noise_db) {
  std::vector<double> rssi;
  rssi.reserve(tags_.size());
  for (auto& tag : tags_) {
    tag.update(temp_c);
    rssi.push_back(tag.observed_rssi_dbm(rng, noise_db));
  }
  return rssi;
}

double ThermometerArray::decode(const std::vector<double>& rssi_dbm) const {
  ZEIOT_CHECK_MSG(rssi_dbm.size() == tags_.size(),
                  "reading arity mismatches the array");
  const double mid =
      (BimetallicTag::kClosedRssiDbm + BimetallicTag::kOpenRssiDbm) / 2.0;
  int closed = 0;
  for (double r : rssi_dbm) {
    if (r > mid) ++closed;
  }
  // `closed` switches on means temp in [lo + (closed-1)*step, lo + closed*step).
  if (closed == 0) return lo_c_ - step_c_ / 2.0;  // below the lowest threshold
  return lo_c_ + (static_cast<double>(closed) - 0.5) * step_c_;
}

// -------------------------------------------------------------- hydrogel --

HydrogelTag::HydrogelTag(double center_c, double width_c)
    : center_c_(center_c), width_c_(width_c) {
  ZEIOT_CHECK_MSG(width_c > 0.0, "transition width must be > 0");
}

double HydrogelTag::reflection(double temp_c) const {
  const double s = 1.0 / (1.0 + std::exp(-(temp_c - center_c_) / width_c_));
  return 0.1 + 0.8 * s;
}

double HydrogelTag::observed_rssi_dbm(double temp_c, Rng& rng,
                                      double noise_db) const {
  // Amplitude a scales received power by a^2 relative to a -50 dBm carrier
  // reflection at full amplitude.
  const double a = reflection(temp_c);
  return -50.0 + 20.0 * std::log10(a) + rng.normal(0.0, noise_db);
}

double HydrogelTag::Calibration::decode(double rssi) const {
  ZEIOT_CHECK_MSG(temp_c.size() == rssi_dbm.size() && temp_c.size() >= 2,
                  "calibration table too small");
  // rssi_dbm is monotone increasing in temp (swelling only grows);
  // binary-search the bracketing pair and interpolate.
  if (rssi <= rssi_dbm.front()) return temp_c.front();
  if (rssi >= rssi_dbm.back()) return temp_c.back();
  const auto it = std::lower_bound(rssi_dbm.begin(), rssi_dbm.end(), rssi);
  const auto hi = static_cast<std::size_t>(it - rssi_dbm.begin());
  const std::size_t lo = hi - 1;
  const double frac =
      (rssi - rssi_dbm[lo]) / std::max(1e-12, rssi_dbm[hi] - rssi_dbm[lo]);
  return temp_c[lo] + frac * (temp_c[hi] - temp_c[lo]);
}

HydrogelTag::Calibration HydrogelTag::calibrate(double lo_c, double hi_c,
                                                int points) const {
  ZEIOT_CHECK_MSG(hi_c > lo_c, "calibration range inverted");
  ZEIOT_CHECK_MSG(points >= 2, "need >= 2 calibration points");
  Calibration cal;
  for (int i = 0; i < points; ++i) {
    const double t = lo_c + (hi_c - lo_c) * i / (points - 1);
    cal.temp_c.push_back(t);
    cal.rssi_dbm.push_back(-50.0 + 20.0 * std::log10(reflection(t)));
  }
  return cal;
}

// ------------------------------------------------------------- vibration --

namespace {

// RSSI the reader sees with the switch closed and open, and its noise.
constexpr double kClosedRssiDbm = -55.0;
constexpr double kOpenRssiDbm = -70.0;
constexpr double kNoiseDb = 1.5;

}  // namespace

std::vector<double> vibration_waveform(double freq_hz, double duration_s,
                                       Rng& rng) {
  ZEIOT_CHECK_MSG(freq_hz > 0.0, "frequency must be > 0");
  ZEIOT_CHECK_MSG(duration_s > 0.0, "duration must be > 0");
  ZEIOT_CHECK_MSG(freq_hz < kVibrationSampleRateHz / 2.0,
                  "frequency above Nyquist for the tag's sample rate");
  std::vector<double> out;
  const auto n =
      static_cast<std::size_t>(duration_s * kVibrationSampleRateHz);
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double t = static_cast<double>(i) / kVibrationSampleRateHz;
    // The switch closes on the positive half of the oscillation.
    const bool closed = std::sin(2.0 * M_PI * freq_hz * t) > 0.0;
    out.push_back((closed ? kClosedRssiDbm : kOpenRssiDbm) +
                  rng.normal(0.0, kNoiseDb));
  }
  return out;
}

double estimate_vibration_hz(const std::vector<double>& rssi_dbm) {
  ZEIOT_CHECK_MSG(rssi_dbm.size() >= 8, "waveform too short");
  // De-mean, apply hysteresis thresholding (a third of the swing), and
  // count rising edges.
  double mean = 0.0;
  for (double v : rssi_dbm) mean += v;
  mean /= static_cast<double>(rssi_dbm.size());
  const double swing = (kClosedRssiDbm - kOpenRssiDbm) / 3.0;
  bool high = rssi_dbm.front() > mean;
  std::size_t rising = 0;
  for (double v : rssi_dbm) {
    if (!high && v > mean + swing / 2.0) {
      high = true;
      ++rising;
    } else if (high && v < mean - swing / 2.0) {
      high = false;
    }
  }
  const double duration =
      static_cast<double>(rssi_dbm.size()) / kVibrationSampleRateHz;
  return static_cast<double>(rising) / duration;
}

}  // namespace zeiot::sensing::passive
