// Synthetic lounge temperature field — the substitute for the paper's
// MicroDeep experiment data (Sec. IV.C): a >1,400 m^2 lounge divided into
// 25 x 17 cells, measured every 30 minutes by 50 temperature sensors from
// Aug 26 to Oct 27 2016 (2,961 samples), labelled for "discomfort".
//
// The generator reproduces the statistical structure the CNN must exploit:
// a seasonal + diurnal base temperature, smooth HVAC cooling zones, solar
// gain along a window wall, and localized occupancy heat clusters.  A map
// is labelled "discomfort" when some local region departs the comfort band
// — a spatial pattern, so convolution genuinely helps.
#pragma once

#include "common/rng.hpp"
#include "ml/dataset.hpp"

namespace zeiot::datagen {

/// The lounge's field model (grid, season, comfort band, occupancy heat,
/// sensor and label noise) and the dataset's seed are fixed in
/// temperature_field.cpp; a dataset varies only in its length.
struct TemperatureFieldConfig {
  int num_samples = 2961;
};

struct TemperatureSample {
  ml::Tensor map;  // (1, 17, 25), degrees C
  int discomfort = 0;
};

/// Generates one sample at sample index `t` (30-minute steps from late
/// August).
TemperatureSample generate_temperature_sample(int t, Rng& rng);

/// Generates the full dataset (shape (1, 17, 25), labels {0, 1}).
/// Values are normalised to zero-mean/unit-ish scale for training.
ml::Dataset generate_temperature_dataset(const TemperatureFieldConfig& cfg);

}  // namespace zeiot::datagen
