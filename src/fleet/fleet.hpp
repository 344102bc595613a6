// Sharded fleet simulator: thousands of independent deployments advanced
// concurrently over zeiot::par with a deterministic aggregation contract.
//
// A "fleet" is a list of DeploymentSpecs (see fleet/templates.hpp) — E1
// lounges, E2 IR arrays, E6 backscatter cells — each simulated in complete
// isolation: its own RNG substream (keyed by fleet seed + identity), its
// own event-driven simulator, its own per-slot obs::Observability.  The
// per-slot contexts are then merged into the fleet-level context in slot
// order, and scalar aggregates are folded sequentially in the same order,
// so the whole FleetResult is bit-identical for any ZEIOT_THREADS.
//
// Conformance properties (pinned by tests/test_fleet.cpp):
//  (1) a 1-deployment fleet reproduces the standalone executor /
//      coexistence simulator bit-for-bit;
//  (2) results and merged metric/span digests are identical at any worker
//      count and across reruns;
//  (3) a deployment's outcome is independent of fleet size and ordering.
//
// Memory is bounded for million-device runs: deployments are processed in
// fixed "waves" (only kFleetWaveSize per-slot contexts live at once — the
// wave layout is a pure function of the deployment count, so it cannot
// leak into results), and each deployment's event queue holds no more
// callback slots than its peak number of pending events.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "fleet/templates.hpp"
#include "obs/obs.hpp"
#include "par/parallel.hpp"

namespace zeiot::fleet {

/// Deployments simulated per wave; bounds live per-slot contexts.
inline constexpr std::size_t kFleetWaveSize = 1024;

struct FleetConfig {
  std::uint64_t seed = 1;
  std::vector<DeploymentSpec> deployments;

  /// Fleet-level sink for fleet.* metrics and the per-deployment contexts,
  /// merged in slot order (nullable, library convention).
  obs::Observability* obs = nullptr;

  /// Per-deployment span recorder capacity.  0 (the cheap default for
  /// large fleets) records nothing; otherwise each deployment records into
  /// its own recorder, merged into `obs` in slot order when `obs` records
  /// spans.
  std::size_t span_capacity = 0;

  /// Record wall-clock gauges (fleet.wall_s / fleet.devices_per_s).
  /// Wall time is host noise, so the byte-identity tests keep this off.
  bool record_timing = false;
};

/// Result of one deployment, in deployment-local terms.  For inference
/// cells (E1/E2) accuracy/latency/energy mean what NetEvalResult means;
/// for backscatter cells accuracy is the tag frame delivery ratio, latency
/// is the mean ready->delivered time, and energy is 0 (zero-energy tags).
struct DeploymentOutcome {
  TemplateKind kind = TemplateKind::BackscatterCellE6;
  std::uint64_t cell_id = 0;
  std::uint32_t devices = 0;
  std::uint64_t work_items = 0;  // inferences run, or tag frames generated
  double accuracy = 0.0;
  double p50_latency_s = 0.0;
  double p99_latency_s = 0.0;
  double energy_per_item_j = 0.0;
  std::uint64_t frames_lost = 0;  // abandoned (E1/E2) or expired+collided (E6)
  std::uint64_t frames_delivered = 0;  // E6 only: tag frames delivered
  /// Per-inference latencies in sample order (inference cells only) — the
  /// raw population the fleet-level percentiles are computed from.
  std::vector<double> latencies_s;
  std::uint64_t span_digest = 0;
  /// FNV-1a over every field above: the deployment's behavioral identity.
  /// Equal digests <=> bitwise-equal outcomes, which is how the
  /// conformance suite states fleet-size independence.
  std::uint64_t digest = 0;
};

/// Fleet-level aggregate.  Per-deployment columns are stored SoA in slot
/// order (== FleetConfig::deployments order); scalar aggregates are folded
/// sequentially in the same order.
struct FleetResult {
  // Per-deployment columns, one row per spec, slot order.
  std::vector<std::uint8_t> kind;
  std::vector<std::uint64_t> cell_id;
  std::vector<std::uint32_t> devices;
  std::vector<std::uint64_t> work_items;
  std::vector<double> accuracy;
  std::vector<double> p50_latency_s;
  std::vector<double> p99_latency_s;
  std::vector<double> energy_per_item_j;
  std::vector<std::uint64_t> digest;

  // Fleet aggregates.
  std::uint64_t total_devices = 0;
  std::uint64_t inference_count = 0;  // inferences across E1/E2 cells
  double fleet_accuracy = 0.0;        // inference-weighted mean
  /// Exact percentiles over the concatenated per-inference latency
  /// population (netexec's sorted llround(q*(n-1)) convention) — not an
  /// approximation from per-deployment summaries.
  double fleet_p50_latency_s = 0.0;
  double fleet_p99_latency_s = 0.0;
  double energy_per_inference_j = 0.0;
  std::uint64_t frames_lost = 0;
  std::uint64_t e6_cells = 0;
  std::uint64_t e6_frames_generated = 0;
  std::uint64_t e6_frames_delivered = 0;
  double e6_delivery_ratio = 0.0;

  // Filled only when FleetConfig::record_timing is set.
  double wall_s = 0.0;
  double devices_per_s = 0.0;
};

class FleetSimulator {
 public:
  /// Builds the shared immutable templates the configured deployments
  /// need (each kind once, fixed seeds) on the calling thread.
  explicit FleetSimulator(FleetConfig cfg);

  /// Simulates every deployment (chunked over `pool`, global pool when
  /// null) and aggregates in slot order.  Emits fleet.* gauges/counters
  /// and a fleet.latency_s histogram into cfg.obs when present.
  FleetResult run(par::ThreadPool* pool = nullptr);

  /// Simulates one deployment into `dep_obs` (nullable).  This is the
  /// exact function the fleet applies per slot — public so conformance
  /// tests can reconstruct any deployment standalone.  `pool` is handed
  /// to the nested netexec evaluation; inside a fleet region it must be
  /// the fleet's own pool so the nested run inlines (reentrant-region
  /// rule) instead of cross-calling another pool.  Results never depend
  /// on it (determinism contract).
  DeploymentOutcome run_deployment(const DeploymentSpec& spec,
                                   obs::Observability* dep_obs,
                                   par::ThreadPool* pool = nullptr);

  const FleetConfig& config() const { return cfg_; }

 private:
  // Non-const because NetworkExecutor takes ml::Network by mutable
  // reference; the executor only ever reads it (evaluate() is already
  // thread-parallel over one shared network).
  InferenceTemplate& require_template(TemplateKind kind);
  DeploymentOutcome run_inference_cell(const DeploymentSpec& spec,
                                       std::uint64_t dep_seed,
                                       obs::Observability* dep_obs,
                                       par::ThreadPool* pool);
  DeploymentOutcome run_backscatter_cell(const DeploymentSpec& spec,
                                         std::uint64_t dep_seed,
                                         obs::Observability* dep_obs);

  FleetConfig cfg_;
  std::unique_ptr<InferenceTemplate> lounge_;
  std::unique_ptr<InferenceTemplate> ir_array_;
};

}  // namespace zeiot::fleet
