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
// executor's observable behaviour changed.  The capacitor overdraw is
// checked beside the digests, not mixed into them: it is exactly zero
// wherever the harvest model is off.
//
// The EqualTimeOrder cases pin the order of equal-time events under radio
// contention, where it is most fragile: frames waiting for a busy radio,
// arrivals and retries landing exactly on a radio-free instant, holders
// dying and reviving while frames wait, fault windows drawing the
// injector RNG per transmission.  Their digests also mix the PacketTx /
// PacketRx / MicroDeepHop instants and the span tree, as the two streams of
// tests/legacy_record.hpp they were recorded from, so a frame that leaves
// one position early or late changes them even when every result field
// happens to agree.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <iterator>
#include <string>
#include <vector>

#include "common/hash.hpp"
#include "fault/injector.hpp"
#include "fleet/templates.hpp"
#include "legacy_record.hpp"
#include "microdeep/quant.hpp"
#include "netexec/netexec.hpp"
#include "obs/obs.hpp"

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
            fleet::deployment_netexec_config(seed, nullptr);
        cfg.checkpoint.policy = arm.policy;
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
          const netexec::NetInferenceResult r = exec.run(tmpl.data.x(s));
          mix_result(d, r);
          if (arm.harvest_initial_j == 0.0) {
            for (const double j : r.overdraw_by_activity_j) EXPECT_EQ(j, 0.0);
            EXPECT_EQ(r.overdraw_j, 0.0);
          }
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

/// One equal-time-order case: a tweak of the template's deployment config
/// (1% loss, balanced-heuristic assignment) and an optional fault plan.
struct OrderCase {
  const char* name;
  bool centralized;  // assign_centralized(graph, wsn, 0) instead
  bool fixed_hop;    // fixed_hop_latency_s = unit_compute_s
  energy::CheckpointPolicy policy;
  std::vector<fault::FaultEvent> faults;
};

std::vector<OrderCase> order_cases(bool with_centralized) {
  using fault::FaultEvent;
  using fault::FaultType;
  using fault::kAllTargets;
  constexpr auto kNone = energy::CheckpointPolicy::None;
  std::vector<OrderCase> cases;
  cases.push_back({"balanced", false, false, kNone, {}});
  if (with_centralized) {
    // Every frame converges on node 0: the deepest relay queues.
    cases.push_back({"centralized", true, false, kNone, {}});
  }
  // Arrivals and computes land exactly on radio-free instants.
  cases.push_back({"fixed_hop", false, true, kNone, {}});
  // Relays die 3 ms in, with frames queued behind their radios, and come
  // back at 9 ms.
  std::vector<FaultEvent> relays;
  for (const std::uint32_t n : {1u, 2u, 5u, 8u}) {
    relays.push_back(FaultEvent{3e-3, FaultType::NodeDeath, n, 0.0, 1.0});
    relays.push_back(FaultEvent{9e-3, FaultType::NodeRevival, n, 0.0, 1.0});
  }
  cases.push_back({"relay_death", false, false, kNone, relays});
  // The injector draws per transmission, so its RNG order is the
  // transmission order.
  cases.push_back({"drop_window", false, false, kNone,
                   {FaultEvent{0.0, FaultType::MessageDrop, kAllTargets,
                               50e-3, 0.3}}});
  cases.push_back({"delay_window", false, false, kNone,
                   {FaultEvent{1e-3, FaultType::MessageDelay, kAllTargets,
                               20e-3, 0.5e-3}}});
  // Waiting frames of browned-out holders replay at revival.
  cases.push_back({"every_unit_brownout", false, false,
                   energy::CheckpointPolicy::EveryUnit,
                   {FaultEvent{2e-3, FaultType::Brownout, kAllTargets, 10e-3,
                               1.0}}});
  return cases;
}

/// Runs each case three times in sequence on one executor and checks one
/// digest per case (result fields, then the legacy trace and span stream
/// digests of the whole record) against `want`, in order_cases order.
void expect_order_pinned(fleet::InferenceTemplate& tmpl, std::uint64_t seed,
                         bool with_centralized,
                         const std::vector<std::uint64_t>& want) {
  const microdeep::Assignment centralized =
      microdeep::assign_centralized(tmpl.graph, tmpl.wsn, 0);
  const std::vector<OrderCase> cases = order_cases(with_centralized);
  ASSERT_EQ(cases.size(), want.size());
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const OrderCase& c = cases[i];
    obs::Observability obs;
    obs.enable_spans(1 << 18);
    netexec::NetExecConfig cfg = fleet::deployment_netexec_config(seed, &obs);
    cfg.checkpoint.policy = c.policy;
    if (c.centralized) cfg.layer_deadline_s = 5.0;
    if (c.fixed_hop) cfg.channel.fixed_hop_latency_s = cfg.unit_compute_s;
    fault::FaultInjector inj{fault::FaultPlan(c.faults)};
    if (!c.faults.empty()) cfg.fault = &inj;
    netexec::NetworkExecutor exec(
        tmpl.net, tmpl.graph, c.centralized ? centralized : tmpl.assignment,
        tmpl.wsn, cfg);
    Fnv1a d;
    for (std::size_t s = 0; s < 3; ++s) mix_result(d, exec.run(tmpl.data.x(s)));
    ASSERT_GT(obs.spans().size(), 0u) << c.name;
    ASSERT_EQ(obs.spans().dropped(), 0u) << c.name;
    d.mix(legacy::trace_digest(obs.spans()));
    d.mix(legacy::span_stream(obs.spans()).digest());
    EXPECT_EQ(d.value(), want[i]) << c.name << ": got " << d.value() << "ULL";
  }
}

TEST(NetexecPinned, HarvestReportsTheOverdrawOfReceiving) {
  // The E1 arm none+harvest (60 uJ, float, brownout and drought): the
  // capacitor runs dry, receiving keeps drawing from it, and the shortfall
  // shows up as rx overdraw.  The total is the sum over activities.
  auto tmpl = fleet::make_lounge_template();
  netexec::NetExecConfig cfg = fleet::deployment_netexec_config(11, nullptr);
  cfg.harvest.enabled = true;
  cfg.harvest.initial_j = 60e-6;
  fault::FaultInjector inj(brownout_and_drought());
  cfg.fault = &inj;
  netexec::NetworkExecutor exec(tmpl->net, tmpl->graph, tmpl->assignment,
                                tmpl->wsn, cfg);
  double rx = 0.0;
  for (std::size_t s = 0; s < 3; ++s) {
    const netexec::NetInferenceResult r = exec.run(tmpl->data.x(s));
    double sum = 0.0;
    for (const double j : r.overdraw_by_activity_j) {
      EXPECT_GE(j, 0.0);
      sum += j;
    }
    EXPECT_EQ(r.overdraw_j, sum);
    rx += r.overdraw_by_activity_j[static_cast<std::size_t>(
        netexec::Activity::Rx)];
  }
  EXPECT_GT(rx, 0.0);
}

TEST(NetexecPinned, LoungeE1) {
  auto tmpl = fleet::make_lounge_template();
  expect_pinned(*tmpl, 11, {std::begin(kLoungeE1), std::end(kLoungeE1)});
}

TEST(NetexecPinned, IrArrayE2) {
  auto tmpl = fleet::make_ir_array_template();
  expect_pinned(*tmpl, 12, {std::begin(kIrArrayE2), std::end(kIrArrayE2)});
}

// Recorded from the executor that re-polled a busy radio with one event per
// waiting frame; a radio queue must reproduce them unchanged.
constexpr std::uint64_t kOrderLoungeE1[] = {
    8789040979796226286ULL,  // balanced
    18053212004606496548ULL,  // centralized
    6700417433726143162ULL,  // fixed_hop
    3048285800777051367ULL,  // relay_death
    7740191458795277179ULL,  // drop_window
    1231909871041919735ULL,  // delay_window
    11295170795444387678ULL,  // every_unit_brownout
};
constexpr std::uint64_t kOrderIrArrayE2[] = {
    7585668663682426065ULL,  // balanced
    2642785401129785308ULL,  // fixed_hop
    17520608972311896736ULL,  // relay_death
    1194813184035715728ULL,  // drop_window
    9563517667866470753ULL,  // delay_window
    6476144506701686852ULL,  // every_unit_brownout
};

TEST(NetexecPinned, EqualTimeOrderLoungeE1) {
  auto tmpl = fleet::make_lounge_template();
  expect_order_pinned(*tmpl, 11, /*with_centralized=*/true,
                      {std::begin(kOrderLoungeE1), std::end(kOrderLoungeE1)});
}

TEST(NetexecPinned, EqualTimeOrderIrArrayE2) {
  auto tmpl = fleet::make_ir_array_template();
  expect_order_pinned(*tmpl, 12, /*with_centralized=*/false,
                      {std::begin(kOrderIrArrayE2), std::end(kOrderIrArrayE2)});
}

}  // namespace
}  // namespace zeiot
