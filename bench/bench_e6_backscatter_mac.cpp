// E6 — Backscatter MAC for WLAN coexistence (paper Sec. IV.A, ref [64]).
//
// Paper claims: (i) uncoordinated backscatter on every WLAN packet
// consumes capacity and deteriorates WLAN performance; (ii) because
// backscatter is much slower than WLAN, its packet error rate rises when
// there is not enough WLAN traffic; (iii) the proposed cycle-registration
// MAC (EDF scheduling + dummy carrier packets) lets both coexist with low
// overhead.
//
// The bench sweeps offered WLAN load and fleet size for both MACs and
// prints the coexistence metrics that witness each claim.
#include <iostream>

#include "backscatter/coexistence.hpp"
#include "bench_report.hpp"
#include "common/table.hpp"
#include "fault/injector.hpp"

using namespace zeiot;
using namespace zeiot::backscatter;

namespace {

obs::Observability g_obs;
double g_duration_s = 60.0;   // --smoke shrinks the horizon
std::uint64_t g_seed = 11;    // --seed offsets the scenario seed

CoexistenceMetrics run(MacMode mode, double rate, std::size_t devices) {
  CoexistenceConfig cfg;
  cfg.mode = mode;
  cfg.duration_s = g_duration_s;
  cfg.wlan_rate_hz = rate;
  cfg.num_devices = devices;
  cfg.device_period_s = 1.0;
  cfg.seed = g_seed;
  CoexistenceSimulator sim(cfg);
  sim.set_observability(&g_obs);
  return sim.run();
}

fault::FaultSpec chaos_spec(double intensity) {
  fault::FaultSpec spec;
  spec.horizon_s = 60.0;
  spec.num_targets = 8;  // the tag fleet; WLAN faults target kInfrastructure
  spec.intensity = intensity;
  spec.node_death_rate = 3.0;
  spec.mean_downtime_s = 10.0;
  spec.drop_rate = 3.0;
  spec.drop_window_s = 4.0;
  spec.drop_probability = 0.6;
  spec.corrupt_rate = 2.0;
  spec.corrupt_window_s = 4.0;
  spec.corrupt_probability = 0.4;
  spec.seed = 777;
  return spec;
}

CoexistenceMetrics run_chaos(double intensity, obs::Observability* obs) {
  CoexistenceConfig cfg;
  cfg.mode = MacMode::Proposed;
  cfg.duration_s = g_duration_s;
  cfg.wlan_rate_hz = 50.0;
  cfg.num_devices = 8;
  cfg.device_period_s = 1.0;
  cfg.seed = g_seed;
  fault::FaultInjector inj(fault::generate_plan(chaos_spec(intensity)));
  if (obs != nullptr) inj.set_observability(obs);
  CoexistenceSimulator sim(cfg);
  sim.set_observability(obs);
  sim.set_fault_injector(&inj);
  return sim.run();
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = bench::parse_bench_args(argc, argv);
  if (args.smoke) g_duration_s = 5.0;
  g_seed += args.seed;
  std::cout << "=== E6: backscatter MAC coexistence (Sec. IV.A) ===\n";

  const std::vector<double> rates =
      args.smoke ? std::vector<double>{2.0, 50.0}
                 : std::vector<double>{2.0, 10.0, 50.0, 200.0, 800.0};
  const std::vector<std::size_t> fleets =
      args.smoke ? std::vector<std::size_t>{2, 8}
                 : std::vector<std::size_t>{2, 8, 16, 32, 64};
  const std::vector<double> intensities =
      args.smoke ? std::vector<double>{0.0, 1.0}
                 : std::vector<double>{0.0, 0.5, 1.0, 2.0, 4.0};

  std::cout << "\n--- sweep 1: WLAN offered load (8 devices, 1 s cycles) ---\n";
  Table t1({"wlan pkt/s", "MAC", "bs delivery", "bs latency (ms)",
            "wifi error", "wifi goodput (Mbps)", "dummy airtime",
            "channel util"});
  for (double rate : rates) {
    for (MacMode mode : {MacMode::Proposed, MacMode::Naive}) {
      const auto m = run(mode, rate, 8);
      t1.add_row({Table::num(rate, 0),
                  mode == MacMode::Proposed ? "proposed" : "naive",
                  Table::pct(m.delivery_ratio()),
                  Table::num(m.mean_latency_s * 1e3, 1),
                  Table::pct(m.wlan_error_rate()),
                  Table::num(m.wlan_goodput_bps / 1e6, 2),
                  Table::pct(m.dummy_airtime_fraction, 2),
                  Table::pct(m.utilization)});
    }
  }
  t1.print(std::cout);
  std::cout << "paper claim (ii): naive backscatter PER explodes at low WLAN "
               "load; the proposed MAC fills the gap with dummy carriers\n";

  std::cout << "\n--- sweep 2: fleet size (50 WLAN pkt/s) ---\n";
  Table t2({"devices", "MAC", "bs delivery", "bs collisions", "wifi error"});
  for (std::size_t devices : fleets) {
    for (MacMode mode : {MacMode::Proposed, MacMode::Naive}) {
      const auto m = run(mode, 50.0, devices);
      t2.add_row({std::to_string(devices),
                  mode == MacMode::Proposed ? "proposed" : "naive",
                  Table::pct(m.delivery_ratio()),
                  std::to_string(m.frames_collided),
                  Table::pct(m.wlan_error_rate())});
    }
  }
  t2.print(std::cout);
  std::cout << "paper claim (i)+(iii): uncoordinated tags collide and corrupt "
               "WLAN as the fleet grows; the granted MAC stays clean\n";

  // --- chaos sweep: injected deaths + message loss on the proposed MAC ---
  // Delivery-ratio degradation lands in the report as fault.chaos.* gauges
  // labeled by intensity; the run is replayable from the plan seed alone.
  std::cout << "\n--- sweep 3: fault intensity (proposed MAC, 50 pkt/s) ---\n";
  Table t3({"intensity", "bs delivery", "suppressed", "faulted",
            "wifi error"});
  for (double intensity : intensities) {
    const auto m = run_chaos(intensity, &g_obs);
    const obs::Labels il{{"intensity", Table::num(intensity, 1)}};
    auto& mm = g_obs.metrics();
    mm.gauge("fault.chaos.delivery_ratio", il).set(m.delivery_ratio());
    mm.gauge("fault.chaos.frames_suppressed", il)
        .set(static_cast<double>(m.frames_suppressed));
    mm.gauge("fault.chaos.frames_faulted", il)
        .set(static_cast<double>(m.frames_faulted));
    mm.gauge("fault.chaos.wlan_error_rate", il).set(m.wlan_error_rate());
    t3.add_row({Table::num(intensity, 1), Table::pct(m.delivery_ratio()),
                std::to_string(m.frames_suppressed),
                std::to_string(m.frames_faulted),
                Table::pct(m.wlan_error_rate())});
  }
  t3.print(std::cout);

  // Reproducibility contract: one intensity, two fresh recorders with room
  // for the whole run — the records (protocol + fault interleaving) must
  // match bit for bit.  The full 60 s run records about 22k spans and
  // instants.
  obs::Observability rep_a, rep_b;
  rep_a.enable_spans(1 << 16);
  rep_b.enable_spans(1 << 16);
  (void)run_chaos(2.0, &rep_a);
  (void)run_chaos(2.0, &rep_b);
  for (const obs::Observability* rep : {&rep_a, &rep_b}) {
    ZEIOT_CHECK_MSG(rep->spans().size() > 0 && rep->spans().dropped() == 0,
                    "chaos record must hold the whole run ("
                        << rep->spans().size() << " kept, "
                        << rep->spans().dropped() << " dropped)");
  }
  ZEIOT_CHECK_MSG(rep_a.spans().digest() == rep_b.spans().digest(),
                  "chaos record digest must be seed-reproducible");
  std::cout << "chaos record digest (intensity 2.0): "
            << rep_a.spans().digest() << " over " << rep_a.spans().size()
            << " records — identical across two runs\n";
  bench::write_bench_report("bench_e6_backscatter_mac", g_obs);
  return 0;
}
