// Differential fleet-conformance suite (ctest label: fleet).
//
// Three properties pin zeiot::fleet's isolation and determinism contract:
//  (1) Standalone identity — a 1-deployment fleet reproduces the
//      standalone NetworkExecutor / CoexistenceSimulator run bit-for-bit,
//      reconstructed here through the same pure template helpers.
//  (2) Schedule independence — fleet results and the merged metric and
//      span records are identical at 1 vs 4 worker threads and across
//      double runs.
//  (3) Fleet-size independence — a deployment's outcome digest depends
//      only on (fleet_seed, kind, cell_id, parameters): the same cell
//      alone, inside a 1000-cell fleet, or in a reversed ordering yields
//      the same digest.
#include "fleet/fleet.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>

#include "par/thread_pool.hpp"

namespace zeiot::fleet {
namespace {

/// Bitwise double equality (EXPECT_DOUBLE_EQ tolerates ulps; conformance
/// does not).
void expect_bits_equal(double a, double b, const char* what) {
  EXPECT_EQ(std::memcmp(&a, &b, sizeof(double)), 0)
      << what << ": " << a << " vs " << b;
}

DeploymentSpec lounge_spec(std::uint64_t cell_id, std::size_t samples = 2) {
  DeploymentSpec spec;
  spec.kind = TemplateKind::LoungeE1;
  spec.cell_id = cell_id;
  spec.samples = samples;
  return spec;
}

DeploymentSpec ir_spec(std::uint64_t cell_id, std::size_t samples = 2) {
  DeploymentSpec spec;
  spec.kind = TemplateKind::IrArrayE2;
  spec.cell_id = cell_id;
  spec.samples = samples;
  return spec;
}

DeploymentSpec cell_spec(std::uint64_t cell_id, std::size_t devices = 4,
                         double horizon_s = 0.5, double wlan_rate_hz = 40.0) {
  DeploymentSpec spec;
  spec.kind = TemplateKind::BackscatterCellE6;
  spec.cell_id = cell_id;
  spec.devices = devices;
  spec.horizon_s = horizon_s;
  spec.wlan_rate_hz = wlan_rate_hz;
  return spec;
}

/// Mixed fleet exercising all three templates in one run.
std::vector<DeploymentSpec> mixed_specs() {
  std::vector<DeploymentSpec> specs;
  specs.push_back(lounge_spec(0));
  specs.push_back(cell_spec(0));
  specs.push_back(ir_spec(1));
  specs.push_back(cell_spec(1, 8, 0.5, 80.0));
  specs.push_back(lounge_spec(2, 3));
  specs.push_back(cell_spec(2, 2, 0.25, 20.0));
  return specs;
}

// Room for the whole record: netexec records about 10k spans and instants
// per inference.
constexpr std::size_t kSlotRecordCapacity = 1 << 16;
constexpr std::size_t kFleetRecordCapacity = 1 << 20;

/// Asserts a record that a test compares or scans holds the whole run.
void expect_whole_record(const obs::Observability& o) {
  EXPECT_GT(o.spans().size(), 0u);
  EXPECT_EQ(o.spans().dropped(), 0u) << "record truncated; raise capacity";
}

struct FleetRun {
  FleetResult result;
  std::string metrics_json;
  std::uint64_t span_digest = 0;
};

FleetRun run_fleet(std::vector<DeploymentSpec> specs, std::size_t threads,
                   std::uint64_t seed = 11) {
  obs::Observability obs;
  obs.enable_spans(kFleetRecordCapacity);
  FleetConfig cfg;
  cfg.seed = seed;
  cfg.deployments = std::move(specs);
  cfg.obs = &obs;
  cfg.span_capacity = kSlotRecordCapacity;
  FleetSimulator fleet(std::move(cfg));
  par::ThreadPool pool(threads);
  FleetRun run;
  run.result = fleet.run(&pool);
  expect_whole_record(obs);
  run.metrics_json = obs.metrics().to_json();
  run.span_digest = obs.spans().digest();
  return run;
}

void expect_results_bitwise_equal(const FleetResult& a, const FleetResult& b) {
  ASSERT_EQ(a.kind.size(), b.kind.size());
  EXPECT_EQ(a.kind, b.kind);
  EXPECT_EQ(a.cell_id, b.cell_id);
  EXPECT_EQ(a.devices, b.devices);
  EXPECT_EQ(a.work_items, b.work_items);
  EXPECT_EQ(a.digest, b.digest);
  for (std::size_t i = 0; i < a.kind.size(); ++i) {
    expect_bits_equal(a.accuracy[i], b.accuracy[i], "accuracy");
    expect_bits_equal(a.p50_latency_s[i], b.p50_latency_s[i], "p50");
    expect_bits_equal(a.p99_latency_s[i], b.p99_latency_s[i], "p99");
    expect_bits_equal(a.energy_per_item_j[i], b.energy_per_item_j[i],
                      "energy");
  }
  EXPECT_EQ(a.total_devices, b.total_devices);
  EXPECT_EQ(a.inference_count, b.inference_count);
  expect_bits_equal(a.fleet_accuracy, b.fleet_accuracy, "fleet_accuracy");
  expect_bits_equal(a.fleet_p50_latency_s, b.fleet_p50_latency_s, "fleet_p50");
  expect_bits_equal(a.fleet_p99_latency_s, b.fleet_p99_latency_s, "fleet_p99");
  expect_bits_equal(a.energy_per_inference_j, b.energy_per_inference_j,
                    "fleet_energy");
  EXPECT_EQ(a.e6_frames_generated, b.e6_frames_generated);
  EXPECT_EQ(a.e6_frames_delivered, b.e6_frames_delivered);
  expect_bits_equal(a.e6_delivery_ratio, b.e6_delivery_ratio,
                    "e6_delivery_ratio");
}

// ---------------------------------------------------------------------------
// (1) Standalone identity.

TEST(FleetConformance, SingleLoungeDeploymentMatchesStandaloneExecutor) {
  const DeploymentSpec spec = lounge_spec(7, 3);
  const std::uint64_t fleet_seed = 21;

  // Standalone reference: reconstruct the deployment through the same
  // pure helpers, entirely outside FleetSimulator.
  const auto tmpl = make_lounge_template();
  const std::uint64_t dep_seed = deployment_seed(fleet_seed, spec);
  const ml::Dataset data = deployment_dataset(*tmpl, spec, dep_seed);
  obs::Observability ref_obs;
  netexec::NetworkExecutor exec(
      tmpl->net, tmpl->graph, tmpl->assignment, tmpl->wsn,
      deployment_netexec_config(dep_seed, &ref_obs));
  const netexec::NetEvalResult ref = exec.evaluate(data);

  FleetConfig cfg;
  cfg.seed = fleet_seed;
  cfg.deployments = {spec};
  obs::Observability fleet_obs;
  cfg.obs = &fleet_obs;
  FleetSimulator fleet(std::move(cfg));
  const FleetResult res = fleet.run();

  ASSERT_EQ(res.kind.size(), 1u);
  EXPECT_EQ(res.work_items[0], spec.samples);
  EXPECT_EQ(res.devices[0], tmpl->devices);
  expect_bits_equal(res.accuracy[0], ref.accuracy, "accuracy");
  expect_bits_equal(res.p50_latency_s[0], ref.p50_latency_s, "p50");
  expect_bits_equal(res.p99_latency_s[0], ref.p99_latency_s, "p99");
  expect_bits_equal(res.energy_per_item_j[0], ref.mean_energy_j, "energy");
  // Fleet-level percentiles over a single deployment reduce to the
  // deployment's own percentiles.
  expect_bits_equal(res.fleet_p50_latency_s, ref.p50_latency_s, "fleet p50");
  expect_bits_equal(res.fleet_p99_latency_s, ref.p99_latency_s, "fleet p99");
  ASSERT_EQ(ref.latencies_s.size(), spec.samples);
}

TEST(FleetConformance, SingleBackscatterCellMatchesStandaloneSimulator) {
  const DeploymentSpec spec = cell_spec(3, 6, 0.75, 60.0);
  const std::uint64_t fleet_seed = 9;

  const std::uint64_t dep_seed = deployment_seed(fleet_seed, spec);
  obs::Observability ref_obs;
  ref_obs.enable_spans(kSlotRecordCapacity);
  backscatter::CoexistenceSimulator sim(
      deployment_coexistence_config(spec, dep_seed));
  sim.set_observability(&ref_obs);
  const backscatter::CoexistenceMetrics ref = sim.run();

  FleetConfig cfg;
  cfg.seed = fleet_seed;
  cfg.deployments = {spec};
  obs::Observability fleet_obs;
  fleet_obs.enable_spans(kFleetRecordCapacity);
  cfg.obs = &fleet_obs;
  cfg.span_capacity = kSlotRecordCapacity;
  FleetSimulator fleet(std::move(cfg));
  const FleetResult res = fleet.run();

  ASSERT_EQ(res.kind.size(), 1u);
  EXPECT_EQ(res.work_items[0], ref.frames_generated);
  EXPECT_EQ(res.e6_frames_delivered, ref.frames_delivered);
  expect_bits_equal(res.accuracy[0], ref.delivery_ratio(), "delivery ratio");
  expect_bits_equal(res.p50_latency_s[0], ref.mean_latency_s, "mean latency");
  // The merged fleet record is exactly the standalone record: one
  // deployment, slot-order merge.
  expect_whole_record(ref_obs);
  expect_whole_record(fleet_obs);
  EXPECT_EQ(fleet_obs.spans().digest(), ref_obs.spans().digest());
}

// ---------------------------------------------------------------------------
// (2) Schedule independence: worker count and rerun.

TEST(FleetConformance, MixedFleetIdenticalAcrossThreadCountsAndReruns) {
  const FleetRun one = run_fleet(mixed_specs(), 1);
  const FleetRun four = run_fleet(mixed_specs(), 4);
  const FleetRun again = run_fleet(mixed_specs(), 4);

  expect_results_bitwise_equal(one.result, four.result);
  expect_results_bitwise_equal(four.result, again.result);
  // The merged records and metrics are byte-identical too (slot-order
  // merge; spans, instants and every metric a cell emits carry virtual
  // time or counts only).
  EXPECT_EQ(one.span_digest, four.span_digest);
  EXPECT_EQ(four.span_digest, again.span_digest);
  EXPECT_EQ(one.metrics_json, four.metrics_json);
  EXPECT_EQ(four.metrics_json, again.metrics_json);
}

TEST(FleetConformance, InferenceFleetMetricsJsonByteIdentical) {
  // Inference-only fleet: every metric netexec emits derives from virtual
  // time, so even the merged registry JSON is byte-identical.
  const std::vector<DeploymentSpec> specs = {lounge_spec(0), lounge_spec(1),
                                             ir_spec(0)};
  const FleetRun one = run_fleet(specs, 1);
  const FleetRun four = run_fleet(specs, 4);
  const FleetRun again = run_fleet(specs, 4);
  EXPECT_EQ(one.metrics_json, four.metrics_json);
  EXPECT_EQ(four.metrics_json, again.metrics_json);
}

// ---------------------------------------------------------------------------
// (3) Fleet-size and ordering independence.

TEST(FleetConformance, DeploymentDigestIndependentOfFleetSizeAndOrder) {
  std::vector<DeploymentSpec> big;
  for (std::uint64_t id = 0; id < 1000; ++id) {
    big.push_back(cell_spec(id, 2, 0.25, 20.0));
  }
  const std::uint64_t fleet_seed = 5;

  // Every deployment records, so each row's digest covers its record.
  auto run_with = [&](std::vector<DeploymentSpec> specs) {
    obs::Observability obs;
    obs.enable_spans(kFleetRecordCapacity);
    FleetConfig cfg;
    cfg.seed = fleet_seed;
    cfg.deployments = std::move(specs);
    cfg.obs = &obs;
    cfg.span_capacity = kSlotRecordCapacity;
    FleetSimulator fleet(std::move(cfg));
    FleetResult res = fleet.run();
    expect_whole_record(obs);
    return res;
  };

  const FleetResult full = run_with(big);

  // The same cell alone in a 1-deployment fleet.
  for (const std::uint64_t k : {std::uint64_t{0}, std::uint64_t{499},
                                std::uint64_t{999}}) {
    const FleetResult solo = run_with({big[k]});
    EXPECT_EQ(solo.digest[0], full.digest[k]) << "cell " << k;
  }

  // The whole fleet in reverse order: row i of the reversed run is row
  // n-1-i of the original, digest for digest.
  std::vector<DeploymentSpec> reversed(big.rbegin(), big.rend());
  const FleetResult rev = run_with(std::move(reversed));
  for (std::size_t i = 0; i < big.size(); ++i) {
    ASSERT_EQ(rev.digest[i], full.digest[big.size() - 1 - i]) << "row " << i;
  }
}

// ---------------------------------------------------------------------------
// run_deployment is the public per-slot function; it must agree with the
// fleet's own rows (the conformance suite's escape hatch for debugging a
// single cell out of a large fleet).

TEST(FleetConformance, RunDeploymentMatchesFleetRow) {
  const std::vector<DeploymentSpec> specs = mixed_specs();
  FleetConfig cfg;
  cfg.seed = 11;
  cfg.deployments = specs;
  obs::Observability obs;
  obs.enable_spans(kFleetRecordCapacity);
  cfg.obs = &obs;
  cfg.span_capacity = kSlotRecordCapacity;
  FleetSimulator fleet(std::move(cfg));
  const FleetResult res = fleet.run();
  expect_whole_record(obs);

  for (std::size_t i = 0; i < specs.size(); ++i) {
    obs::Observability dep_obs;
    dep_obs.enable_spans(fleet.config().span_capacity);
    const DeploymentOutcome out = fleet.run_deployment(specs[i], &dep_obs);
    expect_whole_record(dep_obs);
    EXPECT_EQ(out.digest, res.digest[i]) << "row " << i;
  }
}

}  // namespace
}  // namespace zeiot::fleet
