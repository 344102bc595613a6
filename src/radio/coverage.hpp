// Radio-propagation evaluation for deployment planning (paper Sec. V:
// "the radio wave propagation evaluation tools and network simulators can
// be used together to generate appropriate initial values depending on
// given location environments").
//
// For zero-energy fleets the planning question is concrete: where must
// the RF carriers (readers / APs) stand so that every tag position
// harvests enough power to operate?  This module rasterises harvestable
// power over the deployment area and greedily places carriers to maximise
// the covered fraction.
#pragma once

#include <vector>

#include "common/geometry.hpp"
#include "radio/link.hpp"

namespace zeiot::radio {

/// A placed RF carrier (power source).
struct Carrier {
  Point2D position{};
  TxSpec tx{30.0, 2.0};  // 1 W EIRP-ish default
};

/// Rasterised harvestable power over the area.
struct CoverageMap {
  Rect area{};
  int cols = 0;
  int rows = 0;
  /// Harvestable power (watts) per cell, row-major.
  std::vector<double> harvest_watt;

  double at(int col, int row) const;
  /// Fraction of cells at or above `threshold_watt`.
  double covered_fraction(double threshold_watt) const;
  /// Weakest cell's harvestable power.
  double worst_watt() const;
};

/// Computes the coverage map: per cell, the *sum* of harvested power from
/// all carriers through `model` with the given rectifier efficiency.
CoverageMap compute_coverage(const Rect& area, double cell_m,
                             const std::vector<Carrier>& carriers,
                             const LogDistance& model,
                             double rectifier_efficiency = 0.3);

/// Greedy carrier placement: repeatedly adds, from a grid of candidate
/// sites (`candidate_step_m` pitch), the carrier that most increases the
/// number of cells meeting `threshold_watt`, until `k` carriers are
/// placed or full coverage is reached.  Returns the chosen carriers.
std::vector<Carrier> greedy_place_carriers(
    const Rect& area, double cell_m, double candidate_step_m, int k,
    const LogDistance& model, double threshold_watt,
    const TxSpec& carrier_tx = {30.0, 2.0}, double rectifier_efficiency = 0.3);

}  // namespace zeiot::radio
