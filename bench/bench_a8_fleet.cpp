// A8 — sharded fleet simulation at city scale.
//
// The paper's premise is *distributed* context recognition: thousands of
// zero-energy cells (backscatter tags, sensor-node CNNs) operating
// independently across a building or district.  This bench instantiates
// that fleet literally: >1M simulated devices across E6 backscatter
// cells, E1 lounge deployments, and E2 IR-array deployments, advanced
// concurrently over zeiot::par in bounded-memory waves, then aggregated
// with the slot-order merge that keeps every number bit-identical at any
// ZEIOT_THREADS.
//
// The headline row is devices simulated per wall-second
// (perf.a8.fleet.items_per_s), tracked in bench/trajectory/BENCH_0002.
#include <chrono>
#include <iostream>

#include "bench_report.hpp"
#include "common/table.hpp"
#include "fleet/fleet.hpp"

using namespace zeiot;
using fleet::DeploymentSpec;
using fleet::TemplateKind;

namespace {

obs::Observability g_obs;

DeploymentSpec e6_cell(std::uint64_t id, std::size_t tags) {
  DeploymentSpec spec;
  spec.kind = TemplateKind::BackscatterCellE6;
  spec.cell_id = id;
  spec.devices = tags;
  spec.horizon_s = 1.0;
  spec.wlan_rate_hz = 25.0;
  return spec;
}

DeploymentSpec inference_cell(TemplateKind kind, std::uint64_t id,
                              std::size_t samples) {
  DeploymentSpec spec;
  spec.kind = kind;
  spec.cell_id = id;
  spec.samples = samples;
  return spec;
}

struct KindRow {
  std::uint64_t cells = 0;
  std::uint64_t devices = 0;
  std::uint64_t work = 0;
  double acc_weighted = 0.0;  // weighted by work items
};

}  // namespace

int main(int argc, char** argv) {
  const auto args = bench::parse_bench_args(argc, argv);
  std::cout << "=== A8: sharded fleet simulation (city-scale claim) ===\n";

  // Full scale: ~15.5k backscatter cells x 64 tags (~992k zero-energy
  // devices) plus hundreds of CNN deployments — >1M devices in one run.
  const std::size_t e6_cells = args.smoke ? 48 : 15500;
  const std::size_t e6_tags = args.smoke ? 8 : 64;
  const std::size_t e1_cells = args.smoke ? 4 : 200;
  const std::size_t e2_cells = args.smoke ? 2 : 60;
  const std::size_t samples = args.smoke ? 1 : 2;

  fleet::FleetConfig cfg;
  cfg.seed = 11 + args.seed;
  cfg.obs = &g_obs;
  cfg.record_timing = true;
  cfg.deployments.reserve(e6_cells + e1_cells + e2_cells);
  for (std::size_t i = 0; i < e6_cells; ++i) {
    cfg.deployments.push_back(e6_cell(i, e6_tags));
  }
  for (std::size_t i = 0; i < e1_cells; ++i) {
    cfg.deployments.push_back(
        inference_cell(TemplateKind::LoungeE1, i, samples));
  }
  for (std::size_t i = 0; i < e2_cells; ++i) {
    cfg.deployments.push_back(
        inference_cell(TemplateKind::IrArrayE2, i, samples));
  }

  std::cout << "fleet: " << cfg.deployments.size() << " deployments ("
            << e6_cells << " E6 cells x " << e6_tags << " tags, " << e1_cells
            << " E1 lounges, " << e2_cells << " E2 arrays), wave size "
            << fleet::kFleetWaveSize << "\n";

  fleet::FleetSimulator sim(std::move(cfg));
  const auto t0 = std::chrono::steady_clock::now();
  const fleet::FleetResult res = sim.run();
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  KindRow rows[3];
  for (std::size_t i = 0; i < res.kind.size(); ++i) {
    KindRow& r = rows[res.kind[i]];
    r.cells += 1;
    r.devices += res.devices[i];
    r.work += res.work_items[i];
    r.acc_weighted += res.accuracy[i] * static_cast<double>(res.work_items[i]);
  }

  Table t({"template", "cells", "devices", "work items", "accuracy/delivery",
           "p50 (ms)", "p99 (ms)"});
  const char* names[3] = {"E1 lounge", "E2 IR array", "E6 backscatter"};
  for (int k : {2, 0, 1}) {
    const KindRow& r = rows[k];
    if (r.cells == 0) continue;
    t.add_row({names[k], std::to_string(r.cells), std::to_string(r.devices),
               std::to_string(r.work),
               Table::pct(r.work > 0
                              ? r.acc_weighted / static_cast<double>(r.work)
                              : 0.0),
               "-", "-"});
  }
  t.add_row({"fleet", std::to_string(res.kind.size()),
             std::to_string(res.total_devices),
             std::to_string(res.inference_count + res.e6_frames_generated),
             Table::pct(res.fleet_accuracy),
             Table::num(res.fleet_p50_latency_s * 1e3, 1),
             Table::num(res.fleet_p99_latency_s * 1e3, 1)});
  t.print(std::cout);

  const double devices_per_s =
      wall_s > 0.0 ? static_cast<double>(res.total_devices) / wall_s : 0.0;
  std::cout << "devices simulated: " << res.total_devices << " in "
            << Table::num(wall_s, 2) << " s  ("
            << Table::num(devices_per_s / 1e3, 1) << "k devices/s)\n"
            << "inference cells: accuracy " << Table::pct(res.fleet_accuracy)
            << ", p50 " << Table::num(res.fleet_p50_latency_s * 1e3, 1)
            << " ms, p99 " << Table::num(res.fleet_p99_latency_s * 1e3, 1)
            << " ms, energy/inference "
            << Table::num(res.energy_per_inference_j * 1e3, 3) << " mJ\n"
            << "E6 cells: delivery " << Table::pct(res.e6_delivery_ratio)
            << " over " << res.e6_frames_generated << " tag frames\n";

  bench::record_perf(g_obs, "a8.fleet", wall_s,
                     static_cast<double>(res.total_devices));
  bench::write_bench_report("bench_a8_fleet", g_obs);
  return 0;
}
