// Device-free localization from 802.11ac compressed beamforming feedback
// (paper Sec. IV.B, ref [8]): where is the person, judged purely from how
// their body reshapes the Wi-Fi channel between an AP and its client?
//
// Demonstrates the full pipeline on one pattern and prints the confusion
// matrix over the candidate positions.  The bench sweeps all six
// behaviour x antenna patterns at the paper's 624-feature configuration.
//
// Build & run:  ./csi_localization
#include <iostream>

#include "sensing/csi/localization.hpp"

using namespace zeiot;
using namespace zeiot::sensing::csi;

int main() {
  phy::CsiEnvironment env;  // 52 subcarriers, 4-antenna AP, 3-stream client
  std::cout << "room " << phy::kCsiRoom.width() << " m x "
            << phy::kCsiRoom.height() << " m, AP at (" << phy::kCsiAp.x << ","
            << phy::kCsiAp.y << "), client at (" << phy::kCsiClient.x << ","
            << phy::kCsiClient.y << ")\n";

  LocalizationConfig cfg;
  cfg.num_positions = 7;       // the paper's seven spots
  cfg.frames_per_position = 30;
  const Pattern pattern{Behavior::Walking, AntennaConfig::Divergent};
  std::cout << "pattern: " << pattern.name() << ", "
            << env.subcarriers << " subcarriers -> 624-angle feedback\n\n";

  const auto result = run_localization(env, pattern, cfg);
  std::cout << "feature dimensionality (classifier-facing): "
            << result.feature_dim << "\n";
  std::cout << "localization accuracy over " << cfg.num_positions
            << " positions: " << result.accuracy << "\n\n";
  result.confusion.print(std::cout);
  return 0;
}
