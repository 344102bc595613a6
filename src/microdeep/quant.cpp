#include "microdeep/quant.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace zeiot::microdeep {

namespace {

float absmax_range(const float* p, std::size_t n) {
  float m = 0.0f;
  for (std::size_t i = 0; i < n; ++i) m = std::max(m, std::fabs(p[i]));
  return m;
}

/// Per-boundary activation absmax of `net` over (up to max_samples of) a
/// calibration batch: index 0 is the network input, index i+1 the output
/// of layer i.
std::vector<float> calibration_absmax(ml::Network& net,
                                      const ml::Tensor& calibration,
                                      int max_samples) {
  ZEIOT_CHECK_MSG(calibration.ndim() >= 2, "calibration batch must be (N,...)");
  ZEIOT_CHECK_MSG(max_samples > 0, "max_samples must be > 0");
  ml::Tensor cur = calibration;
  if (calibration.dim(0) > max_samples) {
    std::vector<int> sub_shape = calibration.shape();
    sub_shape[0] = max_samples;
    ml::Tensor sub(sub_shape);
    std::copy(calibration.data(), calibration.data() + sub.size(), sub.data());
    cur = std::move(sub);
  }
  std::vector<float> absmax;
  absmax.reserve(net.num_layers() + 1);
  absmax.push_back(absmax_range(cur.data(), cur.size()));
  for (std::size_t i = 0; i < net.num_layers(); ++i) {
    cur = net.layer(i).forward(cur, /*train=*/false);
    absmax.push_back(absmax_range(cur.data(), cur.size()));
  }
  return absmax;
}

}  // namespace

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
  const std::vector<float> absmax =
      calibration_absmax(net, calibration, max_samples);
  const std::size_t num_unit_layers = graph.layers().size();
  ZEIOT_CHECK_MSG(num_unit_layers >= 1, "unit graph has no layers");

  // Producing net layer per unit layer (unit layer 0 is the input itself).
  std::vector<std::size_t> producer(num_unit_layers, 0);
  for (std::size_t li = 0; li < net.num_layers(); ++li) {
    const int ul = graph.unit_layer_of_net_layer(li);
    if (ul > 0) producer[static_cast<std::size_t>(ul)] = li;
  }

  // Unit layer k transmits the values consumed by the net layer producing
  // unit layer k+1 — absmax boundary `producer[k+1]` (boundary i is the
  // input of net layer i).  The last unit layer transmits the network
  // output: the final boundary.  For k=0 this reduces to the raw input
  // (producer[1] is the first net layer, whose input boundary is 0).
  std::vector<float> scales(num_unit_layers, 1.0f);
  for (std::size_t k = 0; k < num_unit_layers; ++k) {
    const std::size_t boundary =
        (k + 1 < num_unit_layers) ? producer[k + 1] : absmax.size() - 1;
    ZEIOT_CHECK_MSG(boundary < absmax.size(), "calibration boundary overflow");
    const float am = absmax[boundary];
    scales[k] = am > 0.0f ? am / 127.0f : 1.0f;
  }
  return scales;
}

}  // namespace zeiot::microdeep
