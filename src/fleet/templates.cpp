#include "fleet/templates.hpp"

#include "common/error.hpp"
#include "datagen/ir_gait.hpp"
#include "datagen/temperature_field.hpp"
#include "par/parallel.hpp"

namespace zeiot::fleet {

const char* template_name(TemplateKind kind) {
  switch (kind) {
    case TemplateKind::LoungeE1: return "lounge_e1";
    case TemplateKind::IrArrayE2: return "ir_array_e2";
    case TemplateKind::BackscatterCellE6: return "backscatter_e6";
  }
  return "unknown";
}

namespace {

// Template seeds are constants deliberately NOT derived from the fleet
// seed: the shared immutable context (weights, topology, sample pool) is
// part of the template's identity, while the fleet seed only steers
// per-deployment randomness.  This keeps deployment results a pure
// function of (fleet_seed, kind, cell_id, parameters).
constexpr std::uint64_t kLoungeNetSeed = 3;
constexpr std::uint64_t kLoungeWsnSeed = 2;
constexpr std::uint64_t kIrNetSeed = 200;

// Substream keys of the per-deployment seed derivation (arbitrary fixed
// tags; changing any is a behavior change for every fleet).
constexpr std::uint64_t kKindKeyBase = 0x5EED0001;
constexpr std::uint64_t kSampleKey = 0xDA7A;
constexpr std::uint64_t kExecKey = 0xE8EC;
constexpr std::uint64_t kCellKey = 0xCE11;

ml::Network lounge_feasible_cnn(Rng& rng) {
  // bench_e1's "feasible parameter set" CNN for the 25x17 grid / 50 nodes.
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

ml::Network ir_feasible_cnn(Rng& rng) {
  // bench_e2's "feasible parameter set" CNN for the 10x10 IR array.
  ml::Network net;
  net.emplace<ml::Conv2D>(10, 4, 3, 1, rng);
  net.emplace<ml::ReLU>();
  net.emplace<ml::MaxPool2D>(2);
  net.emplace<ml::Flatten>();
  net.emplace<ml::Dense>(4 * 5 * 5, 16, rng);
  net.emplace<ml::ReLU>();
  net.emplace<ml::Dense>(16, 2, rng);
  return net;
}

}  // namespace

std::unique_ptr<InferenceTemplate> make_lounge_template() {
  Rng net_rng(kLoungeNetSeed);
  Rng wsn_rng(kLoungeWsnSeed);
  datagen::TemperatureFieldConfig field;
  field.num_samples = 96;  // shared pool; deployments draw a few each
  return std::make_unique<InferenceTemplate>(
      lounge_feasible_cnn(net_rng), std::vector<int>{1, 17, 25},
      microdeep::WsnTopology::jittered_grid(Rect{0.0, 0.0, 50.0, 34.0}, 10, 5,
                                            wsn_rng),
      datagen::generate_temperature_dataset(field));
}

std::unique_ptr<InferenceTemplate> make_ir_array_template() {
  Rng net_rng(kIrNetSeed);
  datagen::IrGaitConfig gait;
  gait.num_streams = 6;
  gait.fall_streams = 3;
  gait.mirror_augment = false;
  return std::make_unique<InferenceTemplate>(
      ir_feasible_cnn(net_rng), std::vector<int>{10, 10, 10},
      microdeep::WsnTopology::grid(Rect{0.0, 0.0, 5.0, 5.0}, 10, 10),
      datagen::generate_ir_dataset(gait));
}

std::uint64_t deployment_seed(std::uint64_t fleet_seed,
                              const DeploymentSpec& spec) {
  Rng base(fleet_seed);
  Rng kind_stream =
      par::substream(base, kKindKeyBase + static_cast<std::uint64_t>(spec.kind));
  Rng cell_stream = par::substream(kind_stream, kCellKey ^ spec.cell_id);
  return cell_stream();
}

ml::Dataset deployment_dataset(const InferenceTemplate& tmpl,
                               const DeploymentSpec& spec,
                               std::uint64_t dep_seed) {
  ZEIOT_CHECK_MSG(tmpl.data.size() > 0, "template sample pool is empty");
  Rng base(dep_seed);
  Rng pick = par::substream(base, kSampleKey);
  ml::Dataset out;
  for (std::size_t i = 0; i < spec.samples; ++i) {
    const auto idx = static_cast<std::size_t>(pick.uniform_int(
        0, static_cast<std::int64_t>(tmpl.data.size()) - 1));
    out.add(tmpl.data.x(idx), tmpl.data.label(idx));
  }
  return out;
}

netexec::NetExecConfig deployment_netexec_config(std::uint64_t dep_seed,
                                                 obs::Observability* obs) {
  netexec::NetExecConfig cfg;
  cfg.channel.loss_per_hop = 0.01;  // benign indoor link, as in bench_e1/e2
  Rng base(dep_seed);
  cfg.seed = par::substream(base, kExecKey)();
  cfg.obs = obs;
  return cfg;
}

backscatter::CoexistenceConfig deployment_coexistence_config(
    const DeploymentSpec& spec, std::uint64_t dep_seed) {
  backscatter::CoexistenceConfig cfg;
  cfg.mode = backscatter::MacMode::Proposed;
  cfg.duration_s = spec.horizon_s;
  cfg.wlan_rate_hz = spec.wlan_rate_hz;
  cfg.num_devices = spec.devices;
  cfg.device_period_s = 1.0;
  cfg.seed = dep_seed;
  return cfg;
}

}  // namespace zeiot::fleet
