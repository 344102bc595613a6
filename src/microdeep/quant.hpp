// The int8 activation grid of netexec's quantized transport.
//
// netexec's quantized transport sends every unit activation as ONE byte on
// the symmetric int8 grid; the grid's scale per unit layer comes from a
// static calibration pass (absmax over a calibration batch, walked through
// the per-unit kernels the nodes run).  A unit layer's transmitted values
// are the values the NEXT unit-producing net layer consumes — i.e. after
// any folded elementwise layers (ReLU, Flatten) have been applied —
// matching exactly what the executor moves between nodes.  The walk is
// scalar code, so the scales do not depend on the GEMM backend.
#pragma once

#include <cstdint>
#include <vector>

#include "microdeep/unit_graph.hpp"
#include "ml/tensor.hpp"

namespace zeiot::microdeep {

/// clamp(round_half_away(v / scale), -127, 127) — the symmetric int8 grid.
/// Out-of-range quotients (a tiny scale, an infinite v) saturate with
/// their own sign; NaN maps to 0.
std::int8_t quantize_value(float v, float scale);

/// Per-unit-layer activation scales (scale = absmax/127, 1.0 for all-zero
/// layers), indexed like graph.layers().  Runs microdeep::unit_walk
/// over (up to max_samples of) the (N,C,H,W) batch `calibration`.
std::vector<float> calibrate_unit_activation_scales(ml::Network& net,
                                                    const UnitGraph& graph,
                                                    const ml::Tensor& calibration,
                                                    int max_samples = 64);

}  // namespace zeiot::microdeep
