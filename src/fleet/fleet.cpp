#include "fleet/fleet.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "common/error.hpp"
#include "common/hash.hpp"
#include "common/stats.hpp"

namespace zeiot::fleet {

namespace {

/// netexec's percentile convention (common/stats nearest_rank_quantile),
/// shared so the 1-deployment fleet matches NetEvalResult bit-for-bit and
/// fleet-level percentiles stay on the same definition.  Empty populations
/// (every inference shed or terminated) aggregate to a defined zero.
double pct(std::vector<double> v, double q) {
  return nearest_rank_quantile(std::move(v), q);
}

void seal_digest(DeploymentOutcome& out) {
  Fnv1a f;
  f.mix(static_cast<std::uint64_t>(out.kind));
  f.mix(out.cell_id);
  f.mix(out.devices);
  f.mix(out.work_items);
  f.mix_bits(out.accuracy);
  f.mix_bits(out.p50_latency_s);
  f.mix_bits(out.p99_latency_s);
  f.mix_bits(out.energy_per_item_j);
  f.mix(out.frames_lost);
  f.mix(out.frames_delivered);
  for (const double lat : out.latencies_s) f.mix_bits(lat);
  f.mix(out.span_digest);
  out.digest = f.value();
}

void capture_record_digest(const obs::Observability* dep_obs,
                           DeploymentOutcome& out) {
  if (dep_obs != nullptr && dep_obs->spans_enabled()) {
    out.span_digest = dep_obs->spans().digest();
  }
}

}  // namespace

FleetSimulator::FleetSimulator(FleetConfig cfg) : cfg_(std::move(cfg)) {
  // Shared immutable templates are built once, eagerly, on this thread —
  // the parallel region below then only ever reads them.
  for (const DeploymentSpec& spec : cfg_.deployments) {
    if (spec.kind == TemplateKind::LoungeE1 && lounge_ == nullptr) {
      lounge_ = make_lounge_template();
    } else if (spec.kind == TemplateKind::IrArrayE2 && ir_array_ == nullptr) {
      ir_array_ = make_ir_array_template();
    }
  }
}

InferenceTemplate& FleetSimulator::require_template(TemplateKind kind) {
  InferenceTemplate* tmpl =
      kind == TemplateKind::LoungeE1 ? lounge_.get() : ir_array_.get();
  ZEIOT_CHECK_MSG(tmpl != nullptr,
                  "no template built for kind " << template_name(kind)
                                                << " (spec not in config?)");
  return *tmpl;
}

DeploymentOutcome FleetSimulator::run_deployment(const DeploymentSpec& spec,
                                                 obs::Observability* dep_obs,
                                                 par::ThreadPool* pool) {
  const std::uint64_t dep_seed = deployment_seed(cfg_.seed, spec);
  if (spec.kind == TemplateKind::BackscatterCellE6) {
    return run_backscatter_cell(spec, dep_seed, dep_obs);
  }
  return run_inference_cell(spec, dep_seed, dep_obs, pool);
}

DeploymentOutcome FleetSimulator::run_inference_cell(
    const DeploymentSpec& spec, std::uint64_t dep_seed,
    obs::Observability* dep_obs, par::ThreadPool* pool) {
  ZEIOT_CHECK_MSG(spec.samples > 0, "inference cell needs samples > 0");
  InferenceTemplate& tmpl = require_template(spec.kind);
  const ml::Dataset data = deployment_dataset(tmpl, spec, dep_seed);

  DeploymentOutcome out;
  out.kind = spec.kind;
  out.cell_id = spec.cell_id;
  out.devices = tmpl.devices;
  out.work_items = spec.samples;

  netexec::NetworkExecutor exec(tmpl.net, tmpl.graph, tmpl.assignment,
                                tmpl.wsn,
                                deployment_netexec_config(dep_seed, dep_obs));
  const netexec::NetEvalResult ev = exec.evaluate(data, pool);
  out.accuracy = ev.accuracy;
  out.p50_latency_s = ev.p50_latency_s;
  out.p99_latency_s = ev.p99_latency_s;
  out.energy_per_item_j = ev.mean_energy_j;
  out.frames_lost = ev.frames_lost;
  out.latencies_s = ev.latencies_s;
  capture_record_digest(dep_obs, out);
  seal_digest(out);
  return out;
}

DeploymentOutcome FleetSimulator::run_backscatter_cell(
    const DeploymentSpec& spec, std::uint64_t dep_seed,
    obs::Observability* dep_obs) {
  backscatter::CoexistenceSimulator sim(
      deployment_coexistence_config(spec, dep_seed));
  sim.set_observability(dep_obs);
  const backscatter::CoexistenceMetrics m = sim.run();

  DeploymentOutcome out;
  out.kind = spec.kind;
  out.cell_id = spec.cell_id;
  out.devices = static_cast<std::uint32_t>(spec.devices);
  out.work_items = m.frames_generated;
  // Backscatter cells map onto the shared columns as documented on
  // DeploymentOutcome: delivery ratio for accuracy, mean frame latency for
  // both percentiles, zero energy (the tags are zero-energy by design).
  out.accuracy = m.delivery_ratio();
  out.p50_latency_s = m.mean_latency_s;
  out.p99_latency_s = m.mean_latency_s;
  out.energy_per_item_j = 0.0;
  out.frames_lost =
      static_cast<std::uint64_t>(m.frames_expired) + m.frames_collided;
  out.frames_delivered = m.frames_delivered;
  capture_record_digest(dep_obs, out);
  seal_digest(out);
  return out;
}

FleetResult FleetSimulator::run(par::ThreadPool* pool) {
  const auto t0 = std::chrono::steady_clock::now();
  const std::size_t n = cfg_.deployments.size();
  ZEIOT_CHECK_MSG(n > 0, "fleet has no deployments");

  FleetResult res;
  res.kind.resize(n);
  res.cell_id.resize(n);
  res.devices.resize(n);
  res.work_items.resize(n);
  res.accuracy.resize(n);
  res.p50_latency_s.resize(n);
  res.p99_latency_s.resize(n);
  res.energy_per_item_j.resize(n);
  res.digest.resize(n);

  // Slot-order concatenation of every inference latency in the fleet —
  // the population behind the exact fleet-level percentiles.
  std::vector<double> all_latencies;
  double weighted_accuracy = 0.0;
  double total_energy = 0.0;

  // Waves bound live per-slot contexts to kFleetWaveSize.  The wave layout
  // is a pure function of n: results cannot depend on it beyond peak
  // memory, and the sequential merge below still runs in global slot
  // order because waves are processed in order.
  for (std::size_t wave_begin = 0; wave_begin < n;
       wave_begin += kFleetWaveSize) {
    const std::size_t wave_end = std::min(n, wave_begin + kFleetWaveSize);
    const std::size_t wave_n = wave_end - wave_begin;
    std::vector<std::unique_ptr<obs::Observability>> slots(wave_n);
    std::vector<DeploymentOutcome> outcomes(wave_n);

    par::parallel_for(
        wave_n,
        [&](std::size_t i) {
          if (cfg_.obs != nullptr) {
            slots[i] = std::make_unique<obs::Observability>();
            if (cfg_.span_capacity > 0) {
              slots[i]->enable_spans(cfg_.span_capacity);
            }
          }
          outcomes[i] = run_deployment(cfg_.deployments[wave_begin + i],
                                       slots[i].get(), pool);
        },
        pool);

    // Sequential slot-order fold: contexts, SoA rows, and the scalar
    // aggregates all see deployments in the same fixed order regardless
    // of the worker count.
    for (std::size_t i = 0; i < wave_n; ++i) {
      const std::size_t g = wave_begin + i;
      DeploymentOutcome& out = outcomes[i];
      if (slots[i] != nullptr) cfg_.obs->merge_from(*slots[i]);
      res.kind[g] = static_cast<std::uint8_t>(out.kind);
      res.cell_id[g] = out.cell_id;
      res.devices[g] = out.devices;
      res.work_items[g] = out.work_items;
      res.accuracy[g] = out.accuracy;
      res.p50_latency_s[g] = out.p50_latency_s;
      res.p99_latency_s[g] = out.p99_latency_s;
      res.energy_per_item_j[g] = out.energy_per_item_j;
      res.digest[g] = out.digest;

      res.total_devices += out.devices;
      res.frames_lost += out.frames_lost;
      if (out.kind == TemplateKind::BackscatterCellE6) {
        res.e6_cells += 1;
        res.e6_frames_generated += out.work_items;
        res.e6_frames_delivered += out.frames_delivered;
      } else {
        const auto items = static_cast<double>(out.work_items);
        res.inference_count += out.work_items;
        weighted_accuracy += out.accuracy * items;
        total_energy += out.energy_per_item_j * items;
        all_latencies.insert(all_latencies.end(), out.latencies_s.begin(),
                             out.latencies_s.end());
      }
    }
  }

  if (res.inference_count > 0) {
    const auto inf = static_cast<double>(res.inference_count);
    res.fleet_accuracy = weighted_accuracy / inf;
    res.energy_per_inference_j = total_energy / inf;
    res.fleet_p50_latency_s = pct(all_latencies, 0.50);
    res.fleet_p99_latency_s = pct(all_latencies, 0.99);
  }
  if (res.e6_frames_generated > 0) {
    res.e6_delivery_ratio = static_cast<double>(res.e6_frames_delivered) /
                            static_cast<double>(res.e6_frames_generated);
  }

  if (cfg_.record_timing) {
    const std::chrono::duration<double> dt =
        std::chrono::steady_clock::now() - t0;
    res.wall_s = dt.count();
    res.devices_per_s =
        res.wall_s > 0.0 ? static_cast<double>(res.total_devices) / res.wall_s
                         : 0.0;
  }

  if (cfg_.obs != nullptr) {
    auto& m = cfg_.obs->metrics();
    m.gauge("fleet.deployments").set(static_cast<double>(n));
    m.gauge("fleet.devices").set(static_cast<double>(res.total_devices));
    m.gauge("fleet.inferences").set(static_cast<double>(res.inference_count));
    m.gauge("fleet.accuracy").set(res.fleet_accuracy);
    m.gauge("fleet.p50_latency_s").set(res.fleet_p50_latency_s);
    m.gauge("fleet.p99_latency_s").set(res.fleet_p99_latency_s);
    m.gauge("fleet.energy_per_inference_j").set(res.energy_per_inference_j);
    m.gauge("fleet.e6.cells").set(static_cast<double>(res.e6_cells));
    m.gauge("fleet.e6.delivery_ratio").set(res.e6_delivery_ratio);
    m.counter("fleet.e6.frames_generated")
        .inc(static_cast<double>(res.e6_frames_generated));
    m.counter("fleet.e6.frames_delivered")
        .inc(static_cast<double>(res.e6_frames_delivered));
    m.counter("fleet.frames_lost").inc(static_cast<double>(res.frames_lost));
    auto& lat_hist = m.histogram("fleet.latency_s", 0.0, 2.0, 64);
    for (const double lat : all_latencies) lat_hist.observe(lat);
    if (cfg_.record_timing) {
      m.gauge("fleet.wall_s").set(res.wall_s);
      m.gauge("fleet.devices_per_s").set(res.devices_per_s);
    }
  }
  return res;
}

}  // namespace zeiot::fleet
