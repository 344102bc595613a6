// E7 — The zero-energy feasibility numbers behind Figs. 1-2 and Sec. I.
//
// Paper claims: conventional radio needs tens-to-hundreds of mW and even
// BLE needs mW, while ambient backscatter cuts communication power to
// about 1/10,000 (~10 uW); sensing runs at uW to tens of uW, so an
// energy-harvesting device can sense and report indefinitely only if it
// backscatters.
//
// The bench computes (a) the power-per-technology table, (b) harvested
// power vs distance from an RF source, and (c) a day-long intermittent
// device simulation comparing achievable duty cycles.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <iostream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench_report.hpp"
#include "common/table.hpp"
#include "common/units.hpp"
#include "datagen/temperature_field.hpp"
#include "energy/device.hpp"
#include "energy/intermittent_task.hpp"
#include "fault/fault.hpp"
#include "fault/injector.hpp"
#include "microdeep/distributed.hpp"
#include "netexec/netexec.hpp"
#include "phy/airtime.hpp"
#include "radio/coverage.hpp"
#include "radio/link.hpp"

using namespace zeiot;

namespace {

/// Small feasible CNN for the drought sweep: same shape family as E1's
/// "feasible parameter set" but narrower, so the sweep's 9 faulted replays
/// stay cheap even in the full run.
ml::Network drought_cnn(Rng& rng) {
  ml::Network net;
  net.emplace<ml::Conv2D>(1, 2, 3, 1, rng);
  net.emplace<ml::ReLU>();
  net.emplace<ml::MaxPool2D>(2);
  net.emplace<ml::Flatten>();
  net.emplace<ml::Dense>(2 * 8 * 12, 8, rng);
  net.emplace<ml::ReLU>();
  net.emplace<ml::Dense>(8, 2, rng);
  return net;
}

bool bitwise_equal(const ml::Tensor& a, const ml::Tensor& b) {
  if (a.size() != b.size()) return false;
  return std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = bench::parse_bench_args(argc, argv);
  std::cout << "=== E7: zero-energy budget (Sec. I / Fig. 1-2) ===\n";
  obs::Observability obs;

  // (a) Power per communication technology (library defaults).
  energy::ActivityCosts costs;
  Table t1({"activity", "power", "ratio vs active radio"});
  t1.add_row({"active radio tx", Table::num(costs.active_tx_watt * 1e3, 1) + " mW",
              "1x"});
  t1.add_row({"BLE tx", Table::num(costs.ble_tx_watt * 1e3, 1) + " mW",
              Table::num(costs.active_tx_watt / costs.ble_tx_watt, 0) + "x less"});
  t1.add_row({"ambient backscatter tx",
              Table::num(costs.backscatter_tx_watt * 1e6, 1) + " uW",
              Table::num(costs.active_tx_watt / costs.backscatter_tx_watt, 0) +
                  "x less"});
  t1.add_row({"sensing", Table::num(costs.sense_watt * 1e6, 1) + " uW", "-"});
  t1.print(std::cout);
  std::cout << "paper: backscatter ~1/10,000 of conventional radio (~10 uW)\n";

  // (b) Harvestable RF power vs distance (1 W carrier, indoor).
  std::cout << "\n--- harvested power vs distance (1 W carrier, n=2.5) ---\n";
  radio::LogDistance indoor(40.0, 2.5);
  radio::TxSpec carrier{30.0};
  Table t2({"distance (m)", "harvested (uW)", "sustains backscatter duty"});
  for (double d : {1.0, 2.0, 4.0, 8.0, 16.0}) {
    const double p = radio::harvestable_power_watt(indoor, carrier, d);
    const double duty = p / costs.backscatter_tx_watt;
    t2.add_row({Table::num(d, 0), Table::num(p * 1e6, 2),
                duty >= 1.0 ? "continuous" : Table::pct(duty)});
  }
  t2.print(std::cout);

  // (c) A day of continuous context sensing (one report every 5 s) on a
  // weak indoor-light harvester: which radio keeps up?  An active radio
  // must wake, associate and transmit (~20 ms of radio-on time per
  // report); a backscatter tag only flips its switch for one frame.
  const int sensing_hours = args.smoke ? 1 : 24;
  std::cout << "\n--- " << sensing_hours
            << " h continuous sensing at 0.2 Hz (indoor light, "
               "10 uW peak) ---\n";
  phy::BackscatterPhy bs_phy;
  constexpr double kActiveRadioOnS = 20e-3;
  Table t3({"radio", "reports due", "reports delivered", "delivery",
            "energy per report"});
  for (const bool use_backscatter : {true, false}) {
    energy::IntermittentDevice dev(
        std::make_unique<energy::SolarHarvester>(10e-6, Rng(5 + args.seed)),
        energy::Capacitor(470e-6, 5.0), energy::HysteresisSwitch(3.0, 2.2));
    dev.set_observability(&obs, use_backscatter ? 0 : 1);
    const double report_airtime =
        use_backscatter ? bs_phy.frame_airtime_s(8) : kActiveRadioOnS;
    std::size_t due = 0, delivered = 0;
    for (int tick = 0; tick < sensing_hours * 60 * 12; ++tick) {  // every 5 s
      dev.advance(tick * 5.0);
      ++due;
      if (!dev.is_on()) continue;
      dev.try_sense(0.005);
      const bool ok = use_backscatter ? dev.try_backscatter(report_airtime)
                                      : dev.try_active_tx(report_airtime);
      if (ok) ++delivered;
    }
    const double per_report =
        use_backscatter ? costs.backscatter_tx_watt * report_airtime
                        : costs.active_tx_watt * report_airtime;
    t3.add_row({use_backscatter ? "backscatter" : "active 802.11",
                std::to_string(due), std::to_string(delivered),
                Table::pct(static_cast<double>(delivered) /
                           static_cast<double>(due)),
                Table::num(per_report * 1e6, 2) + " uJ"});
    obs.metrics()
        .gauge("energy.delivery_ratio",
               {{"radio", use_backscatter ? "backscatter" : "active"}})
        .set(static_cast<double>(delivered) / static_cast<double>(due));
  }
  t3.print(std::cout);
  std::cout << "paper: continuous zero-energy sensing is only viable with "
               "backscatter communication\n";

  // (d) Deployment planning (Sec. V): how many 1 W carriers does a
  // 20 m x 20 m space need so every tag position harvests >= 1 uW?
  std::cout << "\n--- carrier placement for harvesting coverage ---\n";
  Table t4({"carriers", "covered fraction (>= 1 uW)", "worst cell (uW)"});
  radio::LogDistance model(40.0, 2.5);
  const Rect area{0.0, 0.0, 20.0, 20.0};
  for (int k = 1; k <= 4; ++k) {
    const auto placed =
        radio::greedy_place_carriers(area, 1.0, 2.5, k, model, 1e-6);
    const auto map = radio::compute_coverage(area, 1.0, placed, model);
    t4.add_row({std::to_string(placed.size()),
                Table::pct(map.covered_fraction(1e-6)),
                Table::num(map.worst_watt() * 1e6, 2)});
  }
  t4.print(std::cout);

  // (e) Intermittent computing: the sense->classify->backscatter chain on
  // a capacitor too small for one uninterrupted run — checkpointing turns
  // a livelocked device into a working one.
  std::cout << "\n--- intermittent task chains (2.4 uF / 3.2 V buffer, 20 chains) "
               "---\n";
  Table t5({"harvest (uW)", "policy", "chains completed", "mean latency (s)",
            "tasks re-executed", "checkpoint energy (uJ)"});
  std::vector<std::pair<double, bool>> combos;
  for (double harvest_uw : {15.0, 40.0, 120.0}) {
    for (const bool checkpointed : {true, false}) {
      combos.emplace_back(harvest_uw, checkpointed);
    }
  }
  const auto sweep = bench::parallel_sweep(
      combos.size(), obs, [&](std::size_t i, obs::Observability&) {
        energy::IntermittentDevice dev(
            std::make_unique<energy::ConstantHarvester>(combos[i].first * 1e-6),
            energy::Capacitor(2.4e-6, 3.2),
            energy::HysteresisSwitch(3.0, 2.0));
        energy::IntermittentRunConfig rcfg;
        rcfg.policy = combos[i].second ? energy::CheckpointPolicy::EveryUnit
                                       : energy::CheckpointPolicy::None;
        rcfg.chain_timeout_s = 30.0;
        return energy::run_workload(dev, energy::default_context_chain(), rcfg,
                                    60.0, 20);
      });
  for (std::size_t i = 0; i < combos.size(); ++i) {
    const auto& ws = sweep[i];
    t5.add_row({Table::num(combos[i].first, 0),
                combos[i].second ? "checkpoint" : "volatile",
                std::to_string(ws.chains_completed) + "/20",
                ws.chains_completed > 0 ? Table::num(ws.mean_completion_s, 2)
                                        : "-",
                Table::num(ws.total_reexecutions, 0),
                Table::num(ws.checkpoint_overhead_j * 1e6, 1)});
  }
  t5.print(std::cout);
  std::cout << "takeaway: near the single-burst energy budget, volatile "
               "execution burns most of its harvest on re-executed work "
               "and starts missing chains; checkpointing trades a fixed "
               "commit overhead for bounded waste, and in fully starved "
               "regimes (tighter buffers - see tests/test_intermittent_"
               "task.cpp) it is the difference between completing and "
               "livelocking\n";
  // (f) Harvest-aware intermittent inference at network scale: the same
  // trade-off as (e), but for a whole distributed CNN over the event-driven
  // executor.  A trained temperature model runs network-in-the-loop while a
  // HarvestDrought window scales every node's intake down and a cell-wide
  // Brownout hits mid-inference.  Volatile nodes (policy none) lose their
  // in-flight work, miss shifted-less deadlines, and substitute stale
  // activations — accuracy and bitwise fidelity drop.  Checkpointed nodes
  // (every_unit / energy_adaptive) suspend, resume from NVM, and finish
  // correct-but-late for a measurable checkpoint energy overhead.
  std::cout << "\n--- netexec drought sweep: checkpoint policies under "
               "harvest droughts ---\n";
  const auto f0 = std::chrono::steady_clock::now();
  datagen::TemperatureFieldConfig field;
  ml::Dataset all = datagen::generate_temperature_dataset(field);
  {
    // 1/7 subsample in BOTH modes: training is scaffolding here, and keys
    // must stay identical between smoke and full for bench_compare.
    ml::Dataset sub;
    for (std::size_t i = 0; i < all.size(); i += 7) {
      sub.add(all.x(i), all.label(i));
    }
    all = std::move(sub);
  }
  Rng split_rng(21 + args.seed);
  auto [train, test] = all.stratified_split(split_rng, 0.8);
  Rng wsn_rng(22 + args.seed);
  const auto wsn = microdeep::WsnTopology::jittered_grid(
      Rect{0.0, 0.0, 50.0, 34.0}, 10, 5, wsn_rng);
  Rng net_rng(23 + args.seed);
  ml::Network net = drought_cnn(net_rng);
  microdeep::MicroDeepConfig mdc;
  mdc.assignment = microdeep::AssignmentKind::BalancedHeuristic;
  mdc.staleness = 0.0;  // exact training: intermittency, not staleness, is
                        // the variable under study here
  mdc.seed += args.seed;
  microdeep::MicroDeepModel md_model(net, wsn, {1, 17, 25}, mdc);
  {
    ml::Adam opt(0.004);
    ml::TrainConfig tcfg;
    tcfg.epochs = args.smoke ? 4 : 8;
    tcfg.batch_size = 32;
    tcfg.patience = 5;
    (void)md_model.train(train, test, tcfg, opt);
  }

  netexec::NetExecConfig base;
  base.channel.loss_per_hop = 0.0;  // lossless: fidelity isolates intermittency
  base.seed = 414 + args.seed;
  base.harvest.enabled = true;
  base.harvest.harvest_watt = 100e-6;
  base.harvest.initial_j = 50e-6;  // below admission for a checkpointed layer
  base.layer_deadline_s = 30.0;    // generous: nodes harvest in parallel

  // Uninterrupted reference outputs (fault-free, volatile).  With a lossless
  // channel the logits are policy-independent, so this one run is the
  // bitwise ground truth for all nine faulted arms.
  const std::size_t drought_samples =
      std::min<std::size_t>(args.smoke ? 8 : 32, test.size());
  // Stride through the test set: stratified_split emits per-class blocks,
  // so a head-of-set prefix would be single-label (a constant predictor
  // would look perfect).
  std::vector<std::size_t> sample_idx(drought_samples);
  for (std::size_t s = 0; s < drought_samples; ++s) {
    sample_idx[s] = s * test.size() / drought_samples;
  }
  std::vector<ml::Tensor> ref_out;
  {
    netexec::NetworkExecutor ref_exec(net, md_model.unit_graph(),
                                      md_model.assignment(), md_model.wsn(), base);
    for (std::size_t s = 0; s < drought_samples; ++s) {
      ref_out.push_back(ref_exec.run(test.x(sample_idx[s])).output);
    }
  }

  struct Severity {
    const char* tag;
    double severity;
  };
  const Severity severities[] = {{"s00", 0.0}, {"s40", 0.4}, {"s80", 0.8}};
  const energy::CheckpointPolicy policies[] = {
      energy::CheckpointPolicy::None, energy::CheckpointPolicy::EveryUnit,
      energy::CheckpointPolicy::EnergyAdaptive};
  // Hand-authored deterministic plan per severity: a long intake drought
  // scaling harvest to (1 - s), plus one cell-wide brownout window opening
  // 2 ms in (mid-flight for the first conv layer's frames), s * 80 ms long.
  const auto plan_for = [](double severity) {
    std::vector<fault::FaultEvent> events;
    if (severity > 0.0) {
      events.push_back({0.0, fault::FaultType::HarvestDrought,
                        fault::kAllTargets, 600.0, 1.0 - severity});
      events.push_back({2e-3, fault::FaultType::Brownout, fault::kAllTargets,
                        severity * 80e-3, 1.0});
    }
    return fault::FaultPlan(std::move(events));
  };

  struct DroughtCell {
    double accuracy = 0.0;
    double match_fraction = 0.0;
    double p50_latency_s = 0.0;
    double energy_per_inference_j = 0.0;
    double checkpoint_energy_per_inference_j = 0.0;
    double overdraw_per_inference_j = 0.0;
    std::uint64_t resumes = 0;
    std::uint64_t deferrals = 0;
    std::uint64_t starved = 0;
  };
  const std::size_t n_combos = std::size(severities) * std::size(policies);
  const auto drought = bench::parallel_sweep(
      n_combos, obs, [&](std::size_t i, obs::Observability&) {
        const auto& sev = severities[i / std::size(policies)];
        const auto policy = policies[i % std::size(policies)];
        netexec::NetExecConfig cfg = base;
        cfg.checkpoint.policy = policy;
        fault::FaultInjector injector(plan_for(sev.severity));
        cfg.fault = &injector;
        netexec::NetworkExecutor exec(net, md_model.unit_graph(),
                                      md_model.assignment(), md_model.wsn(), cfg);
        DroughtCell cell;
        std::vector<double> lats;
        std::size_t correct = 0, matched = 0;
        double energy = 0.0, ckpt = 0.0, overdraw = 0.0;
        for (std::size_t s = 0; s < drought_samples; ++s) {
          const auto r = exec.run(test.x(sample_idx[s]));
          if (static_cast<int>(r.output.argmax()) == test.label(sample_idx[s])) {
            ++correct;
          }
          if (bitwise_equal(r.output, ref_out[s])) ++matched;
          lats.push_back(r.latency_s);
          energy += r.energy_j;
          ckpt += r.checkpoint_energy_j;
          overdraw += r.overdraw_j;
          cell.resumes += r.resumes;
          cell.deferrals += r.deferrals;
          cell.starved += r.starved;
        }
        std::sort(lats.begin(), lats.end());
        const double n = static_cast<double>(drought_samples);
        cell.accuracy = static_cast<double>(correct) / n;
        cell.match_fraction = static_cast<double>(matched) / n;
        cell.p50_latency_s = lats[lats.size() / 2];
        cell.energy_per_inference_j = energy / n;
        cell.checkpoint_energy_per_inference_j = ckpt / n;
        cell.overdraw_per_inference_j = overdraw / n;
        return cell;
      });

  Table t6({"severity", "policy", "accuracy", "bitwise match", "p50 (s)",
            "energy/inf (uJ)", "ckpt/inf (uJ)", "overdraw/inf (uJ)",
            "resumes", "deferrals", "starved"});
  for (std::size_t i = 0; i < n_combos; ++i) {
    const auto& sev = severities[i / std::size(policies)];
    const auto policy = policies[i % std::size(policies)];
    const auto& cell = drought[i];
    t6.add_row({sev.tag, energy::checkpoint_policy_name(policy),
                Table::pct(cell.accuracy), Table::pct(cell.match_fraction),
                Table::num(cell.p50_latency_s, 3),
                Table::num(cell.energy_per_inference_j * 1e6, 1),
                Table::num(cell.checkpoint_energy_per_inference_j * 1e6, 1),
                Table::num(cell.overdraw_per_inference_j * 1e6, 1),
                Table::num(static_cast<double>(cell.resumes), 0),
                Table::num(static_cast<double>(cell.deferrals), 0),
                Table::num(static_cast<double>(cell.starved), 0)});
    const std::string key = std::string("e7.drought.") + sev.tag + "." +
                            energy::checkpoint_policy_name(policy);
    obs.metrics().gauge(key + ".accuracy").set(cell.accuracy);
    obs.metrics().gauge(key + ".match_fraction").set(cell.match_fraction);
    obs.metrics().gauge(key + ".p50_latency_s").set(cell.p50_latency_s);
    obs.metrics().gauge(key + ".energy_per_inference_j")
        .set(cell.energy_per_inference_j);
    obs.metrics().gauge(key + ".checkpoint_energy_per_inference_j")
        .set(cell.checkpoint_energy_per_inference_j);
    // Energy the drained capacitor did not have (netexec floors it at zero).
    obs.metrics().gauge(key + ".overdraw_per_inference_j")
        .set(cell.overdraw_per_inference_j);
    obs.metrics().gauge(key + ".resumes").set(static_cast<double>(cell.resumes));
    obs.metrics().gauge(key + ".deferrals").set(static_cast<double>(cell.deferrals));
  }
  t6.print(std::cout);
  bench::record_perf(obs, "e7.drought_sweep",
                     std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - f0)
                         .count(),
                     n_combos * drought_samples);
  std::cout << "takeaway: under droughts the volatile executor misses its "
               "unshifted deadlines and substitutes stale activations "
               "(bitwise match and accuracy fall), while both checkpoint "
               "policies resume from NVM and return the uninterrupted "
               "logits exactly — complete, correct, late — paying only the "
               "per-commit checkpoint energy\n";

  bench::write_bench_report("bench_e7_energy_budget", obs);
  return 0;
}
