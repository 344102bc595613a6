// Slope (landslide) monitoring with zero-energy devices — application (v)
// of paper Sec. III.C: "grasping wind speeds and ground fluctuation of
// sloping lands" — wired end to end across the library's subsystems:
//
//  1. plan the RF carrier placement so every tag position on the slope
//     harvests enough power (radio/coverage),
//  2. check the full-duplex reader actually decodes tags at those ranges
//     (phy/full_duplex),
//  3. read ground vibration through spring-switch backscatter tags
//     (sensing/passive) and decide whether the slope is trembling,
//  4. generate the collision-free collection schedule for the whole
//     deployment (mac/collection).
//
// Build & run:  ./slope_monitoring
#include <iostream>

#include "common/table.hpp"
#include "mac/collection.hpp"
#include "phy/full_duplex.hpp"
#include "radio/coverage.hpp"
#include "sensing/passive/transducer.hpp"

using namespace zeiot;

int main() {
  const Rect slope{0.0, 0.0, 30.0, 15.0};  // instrumented hillside strip
  radio::LogDistance model(40.0, 2.7);     // vegetation-heavy propagation

  // 1. Carrier placement: tags need >= 0.5 uW to operate.
  const auto carriers =
      radio::greedy_place_carriers(slope, 1.5, 3.0, 3, model, 0.5e-6);
  const auto map = radio::compute_coverage(slope, 1.5, carriers, model);
  std::cout << "placed " << carriers.size() << " carriers; "
            << Table::pct(map.covered_fraction(0.5e-6))
            << " of the slope harvests >= 0.5 uW\n";

  // 2. Reader feasibility: full-duplex AP decoding range vs tag spacing.
  const double range = phy::backscatter_range_m(model, 5.0);
  std::cout << "full-duplex reader decodes tags up to "
            << Table::num(range, 1) << " m (5 dB SINR threshold, "
            << phy::kTotalSicDb << " dB SIC)\n\n";

  // 3. Vibration sensing: three tags on the slope, one over a trembling
  //    section (7 Hz ground oscillation picks up before a slide).
  Rng rng(3);
  Table t({"tag", "true ground motion", "estimated frequency", "alert"});
  struct Site {
    const char* name;
    double freq_hz;
  };
  for (const Site& site : {Site{"upper slope", 0.8}, Site{"mid slope", 7.2},
                           Site{"toe", 1.1}}) {
    const auto waveform =
        sensing::passive::vibration_waveform(site.freq_hz, 8.0, rng);
    const double est = sensing::passive::estimate_vibration_hz(waveform);
    t.add_row({site.name, Table::num(site.freq_hz, 1) + " Hz",
               Table::num(est, 1) + " Hz", est > 4.0 ? "TREMBLING" : "ok"});
  }
  t.print(std::cout);

  // 4. Collection schedule: vibration tags report every 500 ms, soil
  //    moisture every 5 s, across two channels with recovery slots.
  std::vector<mac::DeviceRequirement> devices;
  mac::CollectionDeviceId id = 0;
  for (int k = 0; k < 6; ++k) {
    devices.push_back({id++, {5.0 * k, 5.0}, 0.5, 12});  // vibration
  }
  for (int k = 0; k < 8; ++k) {
    devices.push_back({id++, {3.5 * k, 10.0}, 5.0, 24});  // moisture
  }
  mac::CollectionConfig ccfg;
  ccfg.num_channels = 2;
  ccfg.interference_range_m = 40.0;
  const auto schedule = mac::synthesize_schedule(devices, ccfg);
  std::cout << "\ncollection schedule: "
            << (schedule.feasible ? "feasible" : schedule.failure_reason)
            << ", hyperperiod " << schedule.hyperperiod_s << " s, "
            << schedule.entries.size() << " transmissions, worst slack "
            << Table::num(schedule.worst_slack_s * 1e3, 1) << " ms\n";
  std::cout << "validator: "
            << (mac::validate_schedule(schedule, devices, ccfg).empty()
                    ? "clean"
                    : "VIOLATION")
            << "\n";
  return 0;
}
