#include "microdeep/quant.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "microdeep/unit_compute.hpp"

namespace zeiot::microdeep {

std::int8_t quantize_value(float v, float scale) {
  // Round and clamp in double, before any integer conversion, so a
  // quotient beyond every integer range saturates instead of overflowing.
  const double q = static_cast<double>(v) / static_cast<double>(scale);
  if (std::isnan(q)) return 0;
  return static_cast<std::int8_t>(std::clamp(std::round(q), -127.0, 127.0));
}

std::vector<float> calibrate_unit_activation_scales(
    ml::Network& net, const UnitGraph& graph, const ml::Tensor& calibration,
    int max_samples) {
  ZEIOT_CHECK_MSG(calibration.ndim() == 4,
                  "calibration batch must be (N,C,H,W)");
  ZEIOT_CHECK_MSG(max_samples > 0, "max_samples must be > 0");
  const auto& layers = graph.layers();
  ZEIOT_CHECK_MSG(!layers.empty(), "unit graph has no layers");

  // Unit layer k transmits its activations after any folded elementwise
  // layers, which is what unit_walk leaves in the table.
  ml::Tensor sample(std::vector<int>(calibration.shape().begin() + 1,
                                     calibration.shape().end()));
  std::vector<float> absmax(layers.size(), 0.0f);
  const int n = std::min(calibration.dim(0), max_samples);
  for (int s = 0; s < n; ++s) {
    const std::size_t offset = static_cast<std::size_t>(s) * sample.size();
    std::copy_n(calibration.data() + offset, sample.size(), sample.data());
    const ActTable acts = unit_walk(net, graph, sample);
    for (std::size_t l = 0; l < layers.size(); ++l) {
      const UnitId first = layers[l].first_unit;
      for (int i = 0; i < layers[l].num_units(); ++i) {
        for (const float v : acts[first + static_cast<UnitId>(i)]) {
          absmax[l] = std::max(absmax[l], std::fabs(v));
        }
      }
    }
  }
  std::vector<float> scales(layers.size(), 1.0f);
  for (std::size_t k = 0; k < layers.size(); ++k) {
    if (absmax[k] > 0.0f) scales[k] = absmax[k] / 127.0f;
  }
  return scales;
}

}  // namespace zeiot::microdeep
