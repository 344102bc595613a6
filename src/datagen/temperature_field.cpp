#include "datagen/temperature_field.hpp"

#include <cmath>

namespace zeiot::datagen {

namespace {

// The lounge: 25 x 17 cells sampled every 30 minutes.
constexpr int kCols = 25;
constexpr int kRows = 17;
constexpr double kSampleIntervalS = 1800.0;
// Comfort band; a map is uncomfortable when a kRegionKernel-sized region's
// mean leaves [kComfortLoC, kComfortHiC].
constexpr double kComfortLoC = 21.0;
constexpr double kComfortHiC = 27.5;
constexpr int kRegionKernel = 3;
// Occupancy clusters per map (Poisson mean) and their heat.
constexpr double kClustersMean = 1.2;
constexpr double kClusterHeatC = 4.0;
constexpr double kClusterSigmaCells = 1.6;
// Sensor noise per cell (degrees C).
constexpr double kSensorNoiseC = 0.25;
// Label noise: fraction of labels flipped (measurement/annotation
// ambiguity); caps the best achievable accuracy.
constexpr double kLabelNoise = 0.015;
// Seed of the dataset's random stream.
constexpr std::uint64_t kDatasetSeed = 2016;

/// Mean temperature of the `k`x`k` region with top-left (y, x).
double region_mean(const ml::Tensor& map, int y, int x, int k) {
  double s = 0.0;
  for (int dy = 0; dy < k; ++dy) {
    for (int dx = 0; dx < k; ++dx) {
      s += map.at({0, y + dy, x + dx});
    }
  }
  return s / static_cast<double>(k * k);
}

}  // namespace

TemperatureSample generate_temperature_sample(int t, Rng& rng) {
  const double day = static_cast<double>(t) * kSampleIntervalS / 86400.0;
  // Season: late-August warmth cooling toward late October (~ -6 C drift
  // over the two-month campaign), plus the diurnal cycle.
  const double season = 26.0 - 6.0 * day / 62.0;
  const double diurnal = 2.5 * std::sin(2.0 * M_PI * (day - 0.3));

  ml::Tensor map({1, kRows, kCols});
  // HVAC cooling zones: four fixed vents pulling toward a setpoint.
  const double vents[4][2] = {{0.2, 0.25}, {0.8, 0.25}, {0.2, 0.75},
                              {0.8, 0.75}};
  // Daytime solar gain along the x1 (window) wall.
  const double solar = std::max(0.0, std::sin(2.0 * M_PI * (day - 0.25))) * 2.0;

  for (int y = 0; y < kRows; ++y) {
    for (int x = 0; x < kCols; ++x) {
      const double fx = (static_cast<double>(x) + 0.5) / kCols;
      const double fy = (static_cast<double>(y) + 0.5) / kRows;
      double temp = season + diurnal;
      for (const auto& v : vents) {
        const double d2 = (fx - v[0]) * (fx - v[0]) * 4.0 +
                          (fy - v[1]) * (fy - v[1]) * 4.0;
        temp -= 2.2 * std::exp(-d2 / 0.12);
      }
      temp += solar * fx * fx;  // stronger near the window wall
      map.at({0, y, x}) = static_cast<float>(temp);
    }
  }

  // Occupancy heat clusters (meetings, crowds) — the local anomalies that
  // push regions out of the comfort band.
  const int clusters = rng.poisson(kClustersMean);
  for (int c = 0; c < clusters; ++c) {
    const double cy = rng.uniform(0.0, static_cast<double>(kRows));
    const double cx = rng.uniform(0.0, static_cast<double>(kCols));
    const double heat = kClusterHeatC * rng.uniform(0.6, 1.4);
    for (int y = 0; y < kRows; ++y) {
      for (int x = 0; x < kCols; ++x) {
        const double d2 = (y - cy) * (y - cy) + (x - cx) * (x - cx);
        map.at({0, y, x}) += static_cast<float>(
            heat * std::exp(-d2 / (2.0 * kClusterSigmaCells *
                                   kClusterSigmaCells)));
      }
    }
  }

  // Label before sensor noise: any region mean outside the comfort band.
  int discomfort = 0;
  for (int y = 0; y + kRegionKernel <= kRows && !discomfort; ++y) {
    for (int x = 0; x + kRegionKernel <= kCols; ++x) {
      const double m = region_mean(map, y, x, kRegionKernel);
      if (m < kComfortLoC || m > kComfortHiC) {
        discomfort = 1;
        break;
      }
    }
  }

  for (std::size_t i = 0; i < map.size(); ++i) {
    map[i] += static_cast<float>(rng.normal(0.0, kSensorNoiseC));
  }
  if (rng.bernoulli(kLabelNoise)) discomfort = 1 - discomfort;

  return {std::move(map), discomfort};
}

ml::Dataset generate_temperature_dataset(const TemperatureFieldConfig& cfg) {
  ZEIOT_CHECK_MSG(cfg.num_samples > 0, "need samples");
  Rng rng(kDatasetSeed);
  ml::Dataset ds;
  for (int t = 0; t < cfg.num_samples; ++t) {
    TemperatureSample s = generate_temperature_sample(t, rng);
    // Normalise to roughly unit scale around the comfort midpoint.
    const float mid =
        static_cast<float>((kComfortLoC + kComfortHiC) / 2.0);
    for (std::size_t i = 0; i < s.map.size(); ++i) {
      s.map[i] = (s.map[i] - mid) / 5.0f;
    }
    ds.add(std::move(s.map), s.discomfort);
  }
  return ds;
}

}  // namespace zeiot::datagen
