// E1 — MicroDeep temperature experiment (paper Sec. IV.C).
//
// Paper setup: a >1,400 m^2 lounge divided into 25x17 cells, 50 temperature
// sensors, 2,961 samples (every 30 min, Aug 26 - Oct 27 2016), CNN trained
// to detect discomfort.
// Paper results: MicroDeep ~95% accuracy vs ~97% for the standard CNN with
// optimized hyperparameters, while MicroDeep's *maximal* per-node
// communication cost is just 13% of the standard (centralized) version's.
//
// This bench regenerates both rows: the standard CNN (optimal
// hyperparameters, everything at a sink node) and MicroDeep (feasible
// hyperparameters, heuristic balanced assignment, node-local updates).
#include <algorithm>
#include <chrono>
#include <iostream>

#include "bench_report.hpp"
#include "common/table.hpp"
#include "datagen/temperature_field.hpp"
#include "microdeep/distributed.hpp"
#include "microdeep/memory.hpp"
#include "microdeep/quant.hpp"
#include "netexec/netexec.hpp"

using namespace zeiot;
using microdeep::AssignmentKind;
using microdeep::MicroDeepConfig;
using microdeep::MicroDeepModel;
using microdeep::WsnTopology;

namespace {

ml::Network optimal_cnn(Rng& rng) {
  // "Optimal hyperparameters": wider conv, larger dense layer.
  ml::Network net;
  net.emplace<ml::Conv2D>(1, 8, 3, 1, rng);
  net.emplace<ml::ReLU>();
  net.emplace<ml::MaxPool2D>(2);
  net.emplace<ml::Flatten>();
  net.emplace<ml::Dense>(8 * 8 * 12, 32, rng);
  net.emplace<ml::ReLU>();
  net.emplace<ml::Dense>(32, 2, rng);
  return net;
}

ml::Network feasible_cnn(Rng& rng) {
  // "Feasible parameter set": sized so units map well onto 50 nodes.
  ml::Network net;
  net.emplace<ml::Conv2D>(1, 4, 3, 1, rng);
  net.emplace<ml::ReLU>();
  net.emplace<ml::MaxPool2D>(2);
  net.emplace<ml::Flatten>();
  net.emplace<ml::Dense>(4 * 8 * 12, 8, rng);
  net.emplace<ml::ReLU>();
  net.emplace<ml::Dense>(8, 2, rng);
  return net;
}

struct RunResult {
  double accuracy = 0.0;
  microdeep::CommCostReport cost;
  netexec::NetEvalResult netexec;  // filled only when netexec_obs != nullptr
  double netexec_wall_s = 0.0;     // wall time of that float replay
  netexec::NetEvalResult quant;    // same replay over 1-byte int8 frames
  std::size_t peak_memory_float = 0;  // peak per-node residency, 4-byte model
  std::size_t peak_memory_int8 = 0;   // same assignment, 1-byte model
};

/// Trains one variant and, when `netexec_obs` is set, replays the trained
/// model over the event-driven 802.15.4 network executor to add the
/// network-in-the-loop row (accuracy + latency percentiles + energy).
RunResult run(ml::Network net, const WsnTopology& wsn,
              const MicroDeepConfig& cfg, const ml::Dataset& train,
              const ml::Dataset& test, int epochs,
              obs::Observability* netexec_obs, std::size_t netexec_samples) {
  MicroDeepModel model(net, wsn, {1, 17, 25}, cfg);
  ml::Adam opt(0.004);
  ml::TrainConfig tcfg;
  tcfg.epochs = epochs;
  tcfg.batch_size = 32;
  tcfg.patience = 5;
  const auto hist = model.train(train, test, tcfg, opt);
  RunResult res;
  res.accuracy = hist.best_val_accuracy;
  res.cost = model.comm_cost();
  if (netexec_obs != nullptr) {
    netexec::NetExecConfig ncfg;
    ncfg.channel.loss_per_hop = 0.01;  // realistic but benign indoor link
    ncfg.seed = cfg.seed;
    ncfg.obs = netexec_obs;
    netexec::NetworkExecutor exec(net, model.unit_graph(), model.assignment(),
                                  model.wsn(), ncfg);
    const auto t0 = std::chrono::steady_clock::now();
    res.netexec = exec.evaluate(test, nullptr, netexec_samples);
    res.netexec_wall_s = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - t0)
                             .count();

    // Quantized-transport row: identical trained model and channel seed
    // (paired per-frame loss draws), but every inter-node frame carries one
    // byte per channel on a grid calibrated over the training set.  obs
    // stays with the float row, which owns the netexec.* gauges.
    std::vector<std::size_t> idx(std::min<std::size_t>(train.size(), 64));
    for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = i;
    const auto [calib, calib_labels] = train.batch(idx);
    netexec::NetExecConfig qcfg = ncfg;
    qcfg.obs = nullptr;
    qcfg.quantized_transport = true;
    qcfg.act_scales =
        microdeep::calibrate_unit_activation_scales(net, model.unit_graph(),
                                                    calib);
    netexec::NetworkExecutor qexec(net, model.unit_graph(), model.assignment(),
                                   model.wsn(), qcfg);
    res.quant = qexec.evaluate(test, nullptr, netexec_samples);

    // Peak per-node residency of the deployed assignment under the 4-byte
    // (float) and 1-byte (int8) memory models.
    const auto fm =
        microdeep::make_node_memory_model(net, model.unit_graph(), 4, 4);
    const auto qm =
        microdeep::make_node_memory_model(net, model.unit_graph(), 1, 1);
    res.peak_memory_float = microdeep::peak_node_memory(
        model.assignment(), model.wsn().num_nodes(), fm);
    res.peak_memory_int8 = microdeep::peak_node_memory(
        model.assignment(), model.wsn().num_nodes(), qm);
  }
  return res;
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = bench::parse_bench_args(argc, argv);
  std::cout << "=== E1: MicroDeep temperature experiment (Sec. IV.C) ===\n";
  obs::Observability obs;
  // One causal span tree per netexec inference (NetworkExecutor is the
  // only span emitter wired to this context).
  obs.enable_spans(1 << 17);
  datagen::TemperatureFieldConfig field;  // paper scale: 2,961 samples
  ml::Dataset all = datagen::generate_temperature_dataset(field);
  if (args.smoke) {  // ~15% of the samples keeps the smoke run in seconds
    ml::Dataset sub;
    for (std::size_t i = 0; i < all.size(); i += 7) sub.add(all.x(i), all.label(i));
    all = std::move(sub);
  }
  const int epochs = args.smoke ? 2 : 16;
  const std::size_t netexec_samples = args.smoke ? 40 : 200;
  Rng split_rng(1 + args.seed);
  auto [train, test] = all.stratified_split(split_rng, 0.8);
  std::cout << "dataset: " << all.size() << " samples (" << train.size()
            << " train / " << test.size() << " test), grid 25x17, 50 nodes\n";

  Rect area{0.0, 0.0, 50.0, 34.0};
  Rng wsn_rng(2 + args.seed);
  const auto wsn = WsnTopology::jittered_grid(area, 10, 5, wsn_rng);

  // Standard CNN: optimal hyperparameters, centralized at a sink.
  Rng rng_a(3 + args.seed);
  MicroDeepConfig central;
  central.assignment = AssignmentKind::Centralized;
  central.sink = 22;
  central.staleness = 0.0;  // exact centralized training
  const auto t0 = std::chrono::steady_clock::now();
  const auto standard = run(optimal_cnn(rng_a), wsn, central, train, test,
                            epochs, nullptr, 0);
  const auto t1 = std::chrono::steady_clock::now();
  const double standard_max = standard.cost.max_cost;

  // MicroDeep: feasible hyperparameters, heuristic balanced assignment,
  // node-local (stale) weight updates.  This row also runs network-in-the-
  // loop: the trained model over the event-driven 802.15.4 executor.
  Rng rng_b(3 + args.seed);
  MicroDeepConfig micro;
  micro.assignment = AssignmentKind::BalancedHeuristic;
  micro.staleness = 0.35;
  micro.seed += args.seed;
  micro.obs = &obs;  // the MicroDeep row is the paper-relevant series
  const auto microdeep_r = run(feasible_cnn(rng_b), wsn, micro, train, test,
                               epochs, &obs, netexec_samples);
  const auto t2 = std::chrono::steady_clock::now();

  // End-to-end training wall clock (items = training samples per second
  // aggregated over all epochs is noisy; report one full training run as
  // one item so bench_compare diffs the wall time directly).
  bench::record_perf(obs, "e1.standard_train",
                     std::chrono::duration<double>(t1 - t0).count(), 1.0);
  bench::record_perf(obs, "e1.microdeep_train",
                     std::chrono::duration<double>(t2 - t1).count(), 1.0);
  // The float netexec replay alone (spans on): inferences per wall second.
  bench::record_perf(obs, "e1.netexec", microdeep_r.netexec_wall_s,
                     static_cast<double>(microdeep_r.netexec.samples));

  Table t({"system", "accuracy", "max comm cost", "mean comm cost",
           "max vs standard"});
  t.add_row({"standard CNN (centralized, optimal params)",
             Table::pct(standard.accuracy), Table::num(standard.cost.max_cost, 0),
             Table::num(standard.cost.mean_cost, 1), "100%"});
  t.add_row({"MicroDeep (distributed, feasible params)",
             Table::pct(microdeep_r.accuracy),
             Table::num(microdeep_r.cost.max_cost, 0),
             Table::num(microdeep_r.cost.mean_cost, 1),
             Table::pct(microdeep_r.cost.max_cost / standard.cost.max_cost)});
  t.print(std::cout);
  std::cout << "paper: standard 97%, MicroDeep ~95%, max comm cost 13% of "
               "standard\n";

  // Network-in-the-loop row: the same trained MicroDeep model executed over
  // the event-driven 802.15.4 channel (1% per-hop loss, ARQ retries).
  const auto& nx = microdeep_r.netexec;
  const auto& qx = microdeep_r.quant;
  Table nt({"system", "accuracy", "p50 latency (ms)", "p99 latency (ms)",
            "energy/inference (uJ)", "degraded"});
  nt.add_row({"MicroDeep over 802.15.4 (netexec)", Table::pct(nx.accuracy),
              Table::num(nx.p50_latency_s * 1e3, 2),
              Table::num(nx.p99_latency_s * 1e3, 2),
              Table::num(nx.mean_energy_j * 1e6, 2),
              Table::pct(nx.degraded_fraction)});
  nt.add_row({"MicroDeep over 802.15.4 (int8 frames)", Table::pct(qx.accuracy),
              Table::num(qx.p50_latency_s * 1e3, 2),
              Table::num(qx.p99_latency_s * 1e3, 2),
              Table::num(qx.mean_energy_j * 1e6, 2),
              Table::pct(qx.degraded_fraction)});
  nt.print(std::cout);
  std::cout << "int8 transport: accuracy delta "
            << Table::pct(nx.accuracy - qx.accuracy) << ", energy "
            << Table::pct(qx.mean_energy_j / nx.mean_energy_j)
            << " of float; peak node memory "
            << microdeep_r.peak_memory_float << " B float -> "
            << microdeep_r.peak_memory_int8 << " B int8\n";
  std::cout << "netexec replay wall time: " << microdeep_r.netexec.samples
            << " inferences in " << Table::num(microdeep_r.netexec_wall_s, 3)
            << " s\n";

  // Root-span latency attribution (phases tile each inference's root span,
  // so every column sums to the corresponding latency percentile).
  Table bt({"latency phase", "p50 (ms)", "p99 (ms)"});
  bt.add_row({"compute", Table::num(nx.p50_breakdown.compute_s * 1e3, 3),
              Table::num(nx.p99_breakdown.compute_s * 1e3, 3)});
  bt.add_row({"airtime", Table::num(nx.p50_breakdown.airtime_s * 1e3, 3),
              Table::num(nx.p99_breakdown.airtime_s * 1e3, 3)});
  bt.add_row({"retry (backoff)", Table::num(nx.p50_breakdown.retry_s * 1e3, 3),
              Table::num(nx.p99_breakdown.retry_s * 1e3, 3)});
  bt.add_row({"idle (queueing/deadline)",
              Table::num(nx.p50_breakdown.idle_s * 1e3, 3),
              Table::num(nx.p99_breakdown.idle_s * 1e3, 3)});
  bt.print(std::cout);
  std::cout << "spans: " << obs.spans().size() << " recorded, "
            << obs.spans().root_count() << " roots (inferences), "
            << obs.spans().dropped() << " dropped\n";

  obs.metrics().gauge("bench.e1.standard_accuracy").set(standard.accuracy);
  obs.metrics().gauge("bench.e1.microdeep_accuracy").set(microdeep_r.accuracy);
  obs.metrics()
      .gauge("bench.e1.max_cost_vs_standard")
      .set(microdeep_r.cost.max_cost / standard_max);
  obs.metrics().gauge("bench.e1.quant.accuracy").set(qx.accuracy);
  obs.metrics()
      .gauge("bench.e1.quant.accuracy_delta")
      .set(nx.accuracy - qx.accuracy);
  obs.metrics()
      .gauge("bench.e1.quant.energy_per_inference_j")
      .set(qx.mean_energy_j);
  if (nx.mean_energy_j > 0.0) {
    obs.metrics()
        .gauge("bench.e1.quant.energy_vs_float_ratio")
        .set(qx.mean_energy_j / nx.mean_energy_j);
  }
  obs.metrics()
      .gauge("bench.e1.peak_node_memory_float_bytes")
      .set(static_cast<double>(microdeep_r.peak_memory_float));
  obs.metrics()
      .gauge("bench.e1.peak_node_memory_int8_bytes")
      .set(static_cast<double>(microdeep_r.peak_memory_int8));
  bench::write_bench_report("bench_e1_microdeep_temperature", obs);
  return 0;
}
