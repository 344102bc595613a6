#include "radio/coverage.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace zeiot::radio {

double CoverageMap::at(int col, int row) const {
  ZEIOT_CHECK(col >= 0 && col < cols && row >= 0 && row < rows);
  return harvest_watt[static_cast<std::size_t>(row * cols + col)];
}

double CoverageMap::covered_fraction(double threshold_watt) const {
  ZEIOT_CHECK_MSG(threshold_watt >= 0.0, "threshold must be >= 0");
  if (harvest_watt.empty()) return 0.0;
  std::size_t covered = 0;
  for (double w : harvest_watt) {
    if (w >= threshold_watt) ++covered;
  }
  return static_cast<double>(covered) /
         static_cast<double>(harvest_watt.size());
}

double CoverageMap::worst_watt() const {
  ZEIOT_CHECK_MSG(!harvest_watt.empty(), "empty coverage map");
  return *std::min_element(harvest_watt.begin(), harvest_watt.end());
}

CoverageMap compute_coverage(const Rect& area, double cell_m,
                             const std::vector<Carrier>& carriers,
                             const LogDistance& model,
                             double rectifier_efficiency) {
  ZEIOT_CHECK_MSG(cell_m > 0.0, "cell size must be > 0");
  ZEIOT_CHECK_MSG(area.width() > 0.0 && area.height() > 0.0,
                  "area must be non-degenerate");
  CoverageMap map;
  map.area = area;
  map.cols = std::max(1, static_cast<int>(area.width() / cell_m));
  map.rows = std::max(1, static_cast<int>(area.height() / cell_m));
  map.harvest_watt.assign(
      static_cast<std::size_t>(map.cols) * static_cast<std::size_t>(map.rows),
      0.0);
  for (int r = 0; r < map.rows; ++r) {
    for (int c = 0; c < map.cols; ++c) {
      const Point2D p{area.x0 + (c + 0.5) * area.width() / map.cols,
                      area.y0 + (r + 0.5) * area.height() / map.rows};
      double total = 0.0;
      for (const Carrier& carrier : carriers) {
        total += harvestable_power_watt(model, carrier.tx,
                                        distance(p, carrier.position),
                                        rectifier_efficiency);
      }
      map.harvest_watt[static_cast<std::size_t>(r * map.cols + c)] = total;
    }
  }
  return map;
}

std::vector<Carrier> greedy_place_carriers(const Rect& area, double cell_m,
                                           double candidate_step_m, int k,
                                           const LogDistance& model,
                                           double threshold_watt,
                                           const TxSpec& carrier_tx,
                                           double rectifier_efficiency) {
  ZEIOT_CHECK_MSG(k >= 1, "must place at least one carrier");
  ZEIOT_CHECK_MSG(candidate_step_m > 0.0, "candidate step must be > 0");
  ZEIOT_CHECK_MSG(threshold_watt > 0.0, "threshold must be > 0");

  // Candidate sites on a grid (interior points).
  std::vector<Point2D> candidates;
  for (double y = area.y0 + candidate_step_m / 2.0; y < area.y1;
       y += candidate_step_m) {
    for (double x = area.x0 + candidate_step_m / 2.0; x < area.x1;
         x += candidate_step_m) {
      candidates.push_back({x, y});
    }
  }
  ZEIOT_CHECK_MSG(!candidates.empty(), "no candidate sites in area");

  std::vector<Carrier> placed;
  CoverageMap current = compute_coverage(area, cell_m, placed, model,
                                         rectifier_efficiency);
  for (int round = 0; round < k; ++round) {
    if (current.covered_fraction(threshold_watt) >= 1.0) break;
    std::size_t best_site = 0;
    double best_covered = -1.0;
    CoverageMap best_map;
    for (std::size_t s = 0; s < candidates.size(); ++s) {
      std::vector<Carrier> trial = placed;
      trial.push_back({candidates[s], carrier_tx});
      CoverageMap m =
          compute_coverage(area, cell_m, trial, model, rectifier_efficiency);
      const double covered = m.covered_fraction(threshold_watt);
      if (covered > best_covered) {
        best_covered = covered;
        best_site = s;
        best_map = std::move(m);
      }
    }
    placed.push_back({candidates[best_site], carrier_tx});
    current = std::move(best_map);
  }
  return placed;
}

}  // namespace zeiot::radio
