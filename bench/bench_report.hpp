// Shared reporting glue for the bench binaries.
//
// Every bench finishes by calling `write_bench_report(name, obs)`.  Before
// serializing, the helper runs a small deterministic *calibration workload*
// through the same instrumented paths — a 512-event simulator run and a
// short 3-station CSMA round — so that every `<bench>.metrics.json` carries
// a comparable core series regardless of which subsystems the bench itself
// exercises:
//
//   sim.events.scheduled / executed      (event-queue kernel counts)
//   mac.csma.*{stations=3}               (one MAC counter set)
//
// Benches that drive the simulator or MAC for real contribute additional
// (differently labeled) series on top.  The calibration uses fixed seeds and
// reads no clock, so it adds nothing that differs between two runs of the
// same binary.
#pragma once

#include <chrono>
#include <cstdint>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "mac/csma.hpp"
#include "obs/report.hpp"
#include "obs/sim_probe.hpp"
#include "par/parallel.hpp"
#include "sim/simulator.hpp"

namespace zeiot::bench {

/// Minimal CLI shared by every bench binary.
///
///   --smoke    shrink the workload to seconds (fewer epochs / trials /
///              sweep points) while still exercising every reporting path —
///              the ctest seed-sweep smoke test runs each bench this way
///   --seed N   offset the scenario seeds so independent smoke runs cover
///              different draws
///
/// Unknown arguments are ignored so wrappers can pass extra flags through.
struct BenchArgs {
  bool smoke = false;
  std::uint64_t seed = 0;
};

inline BenchArgs parse_bench_args(int argc, char** argv) {
  BenchArgs args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      args.smoke = true;
    } else if (arg == "--seed" && i + 1 < argc) {
      args.seed = std::stoull(argv[++i]);
    }
  }
  return args;
}

/// Records a wall-clock perf sample as the standard gauge pair
/// `perf.<key>.wall_s` / `perf.<key>.items_per_s`.  These are the series
/// tools/bench_compare diffs between runs, so keys must stay stable.
inline void record_perf(obs::Observability& obs, const std::string& key,
                        double wall_seconds, double items = 0.0) {
  obs.metrics().gauge("perf." + key + ".wall_s").set(wall_seconds);
  if (items > 0.0 && wall_seconds > 0.0) {
    obs.metrics()
        .gauge("perf." + key + ".items_per_s")
        .set(items / wall_seconds);
  }
}

/// Times `fn()` over `repeats` calls (after one untimed warmup) and returns
/// the mean wall-clock seconds per call.
template <typename Fn>
double time_workload(Fn&& fn, int repeats = 5) {
  fn();
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < repeats; ++i) fn();
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(t1 - t0).count() /
         static_cast<double>(repeats);
}

/// Runs `fn(i, point_obs)` for sweep points 0..points-1 on the worker pool.
/// Each point records into a private Observability; after the sweep the
/// per-point registries are merged into `obs` in point order, so the final
/// `<bench>.metrics.json` is byte-identical at any ZEIOT_THREADS value.
/// Returns the per-point results in point order.
template <typename Fn>
auto parallel_sweep(std::size_t points, obs::Observability& obs, Fn&& fn,
                    par::ThreadPool* pool = nullptr) {
  using T = decltype(fn(std::size_t{0}, obs));
  std::vector<std::unique_ptr<obs::Observability>> per(points);
  std::vector<std::optional<T>> out(points);
  par::parallel_for(
      points,
      [&](std::size_t i) {
        per[i] = std::make_unique<obs::Observability>();
        out[i].emplace(fn(i, *per[i]));
      },
      pool, /*grain=*/1);
  std::vector<T> results;
  results.reserve(points);
  for (std::size_t i = 0; i < points; ++i) {
    obs.metrics().merge(per[i]->metrics());
    results.push_back(std::move(*out[i]));
  }
  return results;
}

inline void run_calibration_probes(obs::Observability& obs) {
  // The probes run in a *private* context and contribute metrics only:
  // merging their spans into `obs` would pollute the bench's own
  // causal record (e.g. the root-span count of a netexec bench must equal
  // its inference count, not inferences + calibration rounds).
  obs::Observability calib;
  obs::SimulatorProbe probe(calib);
  sim::Simulator sim;
  sim.set_observer(&probe);
  Rng rng(12345);
  for (int i = 0; i < 512; ++i) {
    sim.schedule(rng.uniform(0.0, 100.0), [] {});
  }
  sim.run();

  mac::CsmaConfig csma;
  csma.num_stations = 3;  // label distinct from the populations a4 sweeps
  csma.seed = 99;
  (void)mac::simulate_csma(csma, 20000, &calib);
  obs.metrics().merge(calib.metrics());
}

/// Runs the calibration probes into `obs`, then writes
/// `<name>.metrics.json` (honouring ZEIOT_METRICS_DIR).  Before
/// serializing it surfaces the lossiness of the span recorder as the
/// `obs.spans.dropped` counter and prints a warning line when it
/// overflowed, so a truncated record never masquerades as a complete one
/// (tools/obs_report.py turns the warning into a CI failure).  Profiler
/// regions are published as prof.* gauges, and when spans were recorded
/// the sibling `<name>.spans.jsonl` + `<name>.trace.json` exports are
/// written too.
inline void write_bench_report(const std::string& name,
                               obs::Observability& obs) {
  run_calibration_probes(obs);
  obs.profiler().report(obs.metrics());
  if (obs.spans().dropped() > 0) {
    obs.metrics()
        .counter("obs.spans.dropped")
        .inc(static_cast<double>(obs.spans().dropped()));
    std::cerr << "WARNING: " << name << ": span recorder dropped "
              << obs.spans().dropped()
              << " spans; raise the enable_spans capacity\n";
  }
  const obs::Report report(name);
  report.write_file(obs);
  report.write_spans_file(obs.spans());
  report.write_chrome_trace_file(obs.spans());
}

}  // namespace zeiot::bench
