// Pins NetworkExecutor::run outputs to fixed digests.
//
// The other netexec suites compare executor paths against each other
// (resumed vs uninterrupted, 1 vs 4 threads, lossy vs ideal); a change
// that shifted both sides of such a comparison the same way would still
// pass them.  This suite compares against constants instead: on the fleet
// E1 and E2 templates at 1% loss it runs every combination of
//   float / int8 transport,
//   None or EveryUnit checkpointing, each with and without the harvest
//   model, or EnergyAdaptive (harvest on),
//   no fault / one brownout-plus-drought plan,
// digests the logits and every counter, energy and breakdown field of
// each NetInferenceResult, and compares one digest per combination with
// the value recorded when the suite was written.  A mismatch means the
// executor's observable behaviour changed.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <iterator>
#include <string>
#include <vector>

#include "common/hash.hpp"
#include "fault/injector.hpp"
#include "fleet/templates.hpp"
#include "microdeep/quant.hpp"
#include "netexec/netexec.hpp"

namespace zeiot {
namespace {

void mix_result(Fnv1a& d, const netexec::NetInferenceResult& r) {
  d.mix(r.output.size());
  for (std::size_t i = 0; i < r.output.size(); ++i) {
    const float f = r.output[i];
    std::uint32_t u;
    std::memcpy(&u, &f, sizeof(u));
    d.mix(u);
  }
  d.mix_bits(r.latency_s);
  d.mix(r.degraded ? 1 : 0);
  for (const std::uint64_t c :
       {r.messages, r.transmissions, r.retransmissions, r.frames_lost,
        r.late_frames, r.substitutions, r.checkpoints, r.checkpoint_bytes,
        r.resumes, r.suspensions, r.deferrals, r.starved}) {
    d.mix(c);
  }
  for (const double e :
       {r.energy_j, r.tx_energy_j, r.rx_energy_j, r.compute_energy_j,
        r.sense_energy_j, r.checkpoint_energy_j, r.breakdown.compute_s,
        r.breakdown.airtime_s, r.breakdown.retry_s, r.breakdown.idle_s,
        r.breakdown.checkpoint_s}) {
    d.mix_bits(e);
  }
}

/// A whole-cell harvest drought (intake scaled to 30%) plus a 30 ms
/// whole-cell brownout opening 2 ms in, while the first frames fly.
fault::FaultPlan brownout_and_drought() {
  return fault::FaultPlan(
      {fault::FaultEvent{0.0, fault::FaultType::HarvestDrought,
                         fault::kAllTargets, 600.0, 0.3},
       fault::FaultEvent{2e-3, fault::FaultType::Brownout, fault::kAllTargets,
                         30e-3, 1.0}});
}

/// One checkpoint arm: a policy, and the capacitor charge at t = 0 when
/// the harvest model is on (0 = off).  60 uJ runs the capacitor dry, so
/// admission defers and, under the drought, deadlines starve computes;
/// 150 uJ straddles the adaptive reserve, so EnergyAdaptive both makes and
/// skips output commits.
struct Arm {
  energy::CheckpointPolicy policy;
  double harvest_initial_j;
};
constexpr Arm kArms[] = {
    {energy::CheckpointPolicy::None, 0.0},
    {energy::CheckpointPolicy::None, 60e-6},
    {energy::CheckpointPolicy::EveryUnit, 0.0},
    {energy::CheckpointPolicy::EveryUnit, 60e-6},
    {energy::CheckpointPolicy::EnergyAdaptive, 150e-6},
};

std::string combo_name(bool int8, const Arm& arm, bool faulted) {
  return std::string(int8 ? "int8" : "float") + "/" +
         energy::checkpoint_policy_name(arm.policy) +
         (arm.harvest_initial_j > 0.0 ? "+harvest" : "") + "/" +
         (faulted ? "fault" : "clean");
}

/// Runs every combination on `tmpl` (three sequential inferences each, so
/// last-known memory carries across runs) and checks one digest per
/// combination against `want`, in (transport, arm, fault) order: per
/// transport (float, then int8), one {clean, fault} pair per arm of kArms.
void expect_pinned(fleet::InferenceTemplate& tmpl, std::uint64_t seed,
                   const std::vector<std::uint64_t>& want) {
  // int8 transport scales over the first 8 samples of the pool.
  const ml::Tensor calibration =
      tmpl.data.batch({0, 1, 2, 3, 4, 5, 6, 7}).first;
  const std::vector<float> scales =
      microdeep::calibrate_unit_activation_scales(tmpl.net, tmpl.graph,
                                                  calibration);

  std::size_t i = 0;
  for (const bool int8 : {false, true}) {
    for (const Arm& arm : kArms) {
      for (const bool faulted : {false, true}) {
        netexec::NetExecConfig cfg =
            fleet::deployment_netexec_config(seed, nullptr, arm.policy);
        if (arm.harvest_initial_j > 0.0) {
          cfg.harvest.enabled = true;
          cfg.harvest.initial_j = arm.harvest_initial_j;
        }
        if (int8) {
          cfg.quantized_transport = true;
          cfg.act_scales = scales;
        }
        fault::FaultInjector inj(brownout_and_drought());
        if (faulted) cfg.fault = &inj;
        netexec::NetworkExecutor exec(tmpl.net, tmpl.graph, tmpl.assignment,
                                      tmpl.wsn, cfg);
        Fnv1a d;
        for (std::size_t s = 0; s < 3; ++s) {
          mix_result(d, exec.run(tmpl.data.x(s)));
        }
        ASSERT_LT(i, want.size());
        EXPECT_EQ(d.value(), want[i])
            << combo_name(int8, arm, faulted) << ": got " << d.value() << "ULL";
        ++i;
      }
    }
  }
  EXPECT_EQ(i, want.size());
}

// Recorded from the executor when this suite was written.  Update them only
// for a change meant to alter netexec's outputs, and say so in its log.
constexpr std::uint64_t kLoungeE1[] = {
    // float none: clean, fault
    15773439297913035148ULL, 15773439297913035148ULL,
    // float none+harvest: clean, fault
    7389675419467254140ULL, 10985010706230149713ULL,
    // float every_unit: clean, fault
    5008215072391769079ULL, 5636287401228757318ULL,
    // float every_unit+harvest: clean, fault
    12771269837570019332ULL, 11614612302827269327ULL,
    // float adaptive+harvest: clean, fault
    9141630272105917691ULL, 10995019932810153383ULL,
    // int8 none: clean, fault
    10463255941717534641ULL, 10463255941717534641ULL,
    // int8 none+harvest: clean, fault
    14023388095072036002ULL, 13503146204582344109ULL,
    // int8 every_unit: clean, fault
    10900976860431441717ULL, 5607096015726682805ULL,
    // int8 every_unit+harvest: clean, fault
    7867161846076175682ULL, 5735016049514841733ULL,
    // int8 adaptive+harvest: clean, fault
    7378626221508667490ULL, 286225382890930895ULL,
};
constexpr std::uint64_t kIrArrayE2[] = {
    // float none: clean, fault
    10072477071984327370ULL, 10072477071984327370ULL,
    // float none+harvest: clean, fault
    10072477071984327370ULL, 10166153604724587451ULL,
    // float every_unit: clean, fault
    15751815114505940766ULL, 16903999209483806365ULL,
    // float every_unit+harvest: clean, fault
    16433612067418976840ULL, 7920877805195633121ULL,
    // float adaptive+harvest: clean, fault
    7142269663807043179ULL, 16304168541586450083ULL,
    // int8 none: clean, fault
    13091617634623078989ULL, 13091617634623078989ULL,
    // int8 none+harvest: clean, fault
    3013106702934928997ULL, 15996959182588104814ULL,
    // int8 every_unit: clean, fault
    1976008763571771904ULL, 9225989466226728286ULL,
    // int8 every_unit+harvest: clean, fault
    1646204807780820245ULL, 15204316589304797586ULL,
    // int8 adaptive+harvest: clean, fault
    18206678468639042628ULL, 17760373357687873900ULL,
};

TEST(NetexecPinned, LoungeE1) {
  auto tmpl = fleet::make_lounge_template();
  expect_pinned(*tmpl, 11, {std::begin(kLoungeE1), std::end(kLoungeE1)});
}

TEST(NetexecPinned, IrArrayE2) {
  auto tmpl = fleet::make_ir_array_template();
  expect_pinned(*tmpl, 12, {std::begin(kIrArrayE2), std::end(kIrArrayE2)});
}

}  // namespace
}  // namespace zeiot
