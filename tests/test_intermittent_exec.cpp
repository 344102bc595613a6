// Harvest-aware intermittent execution in netexec: NVM checkpoint codec
// (round-trip + adversarial corruption), brownout suspend/resume with
// bit-identical completion, harvest-driven deferral determinism, and the
// checkpoint energy-accounting contract shared with energy/intermittent_task.
//
// Everything here is seeded; a failing property case names the seed needed
// to replay it (mirroring tests/test_ml_serialize_fuzz.cpp).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>

#include "common/error.hpp"
#include "energy/intermittent_task.hpp"
#include "fault/injector.hpp"
#include "netexec/checkpoint.hpp"
#include "netexec/netexec.hpp"
#include "par/thread_pool.hpp"

namespace zeiot {
namespace {

ml::Network make_net(std::uint64_t seed = 41) {
  Rng rng(seed);
  ml::Network net;
  net.emplace<ml::Conv2D>(1, 3, 3, 1, rng);
  net.emplace<ml::ReLU>();
  net.emplace<ml::MaxPool2D>(2);
  net.emplace<ml::Flatten>();
  net.emplace<ml::Dense>(3 * 3 * 3, 6, rng);
  net.emplace<ml::ReLU>();
  net.emplace<ml::Dense>(6, 2, rng);
  return net;
}

/// Non-movable bundle: the assignment keeps a pointer into `graph`, so the
/// members are built in place behind one stable address (the same contract
/// the fleet templates document).
struct Scenario {
  Scenario()
      : net(make_net()),
        graph(microdeep::UnitGraph::build(net, {1, 6, 6})),
        wsn(microdeep::WsnTopology::grid({0.0, 0.0, 10.0, 10.0}, 4, 4)),
        assignment(microdeep::assign_nearest(graph, wsn)) {}
  Scenario(const Scenario&) = delete;
  Scenario& operator=(const Scenario&) = delete;

  ml::Network net;
  microdeep::UnitGraph graph;
  microdeep::WsnTopology wsn;
  microdeep::Assignment assignment;
};

ml::Tensor make_sample(std::uint64_t seed = 7) {
  Rng rng(seed);
  ml::Tensor s({1, 6, 6});
  for (std::size_t i = 0; i < s.size(); ++i) {
    s[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
  }
  return s;
}

void expect_bitwise_equal(const ml::Tensor& a, const ml::Tensor& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    const float fa = a[i];
    const float fb = b[i];
    std::uint32_t ba = 0;
    std::uint32_t bb = 0;
    std::memcpy(&ba, &fa, sizeof(ba));
    std::memcpy(&bb, &fb, sizeof(bb));
    EXPECT_EQ(ba, bb) << "logit " << i << " differs in bits";
  }
}

/// Whole-cell supply failure: every node browns out inside [t0, t0 + dur).
fault::FaultPlan all_node_brownout(double t0, double dur) {
  return fault::FaultPlan(
      {fault::FaultEvent{t0, fault::FaultType::Brownout, fault::kAllTargets,
                         dur, 1.0}});
}

// -- Brownout suspend/resume ----------------------------------------------

TEST(IntermittentExec, BrownoutResumeBitIdenticalEveryUnit) {
  // A 50 ms all-node brownout lands at 1 ms — input frames are in flight,
  // the first unit layers are committed, the rest is not.  With per-unit
  // checkpoints the inference must suspend, resume from NVM at revival,
  // and produce logits bit-identical to the uninterrupted run: correct,
  // just late.
  Scenario sc;
  const auto sample = make_sample();

  netexec::NetExecConfig base;
  base.checkpoint.policy = energy::CheckpointPolicy::EveryUnit;
  base.seed = 77;

  netexec::NetworkExecutor clean(sc.net, sc.graph, sc.assignment, sc.wsn,
                                 base);
  const auto ref = clean.run(sample);
  ASSERT_FALSE(ref.degraded);
  EXPECT_EQ(ref.resumes, 0u);
  EXPECT_EQ(ref.suspensions, 0u);
  EXPECT_GT(ref.checkpoints, 0u) << "EveryUnit commits even without faults";

  auto faulted_run = [&] {
    fault::FaultInjector inj(all_node_brownout(1e-3, 50e-3));
    netexec::NetExecConfig cfg = base;
    cfg.fault = &inj;
    netexec::NetworkExecutor exec(sc.net, sc.graph, sc.assignment, sc.wsn,
                                  cfg);
    return exec.run(sample);
  };

  const auto r1 = faulted_run();
  expect_bitwise_equal(r1.output, ref.output);
  EXPECT_FALSE(r1.degraded);
  EXPECT_EQ(r1.substitutions, 0u);
  EXPECT_GT(r1.suspensions, 0u);
  EXPECT_GT(r1.resumes, 0u);
  EXPECT_GE(r1.checkpoints, ref.checkpoints);
  EXPECT_GT(r1.latency_s, ref.latency_s)
      << "a browned-out round cannot finish as fast as the clean one";
  EXPECT_GE(r1.latency_s, 51e-3)
      << "completion must wait for the revival at 51 ms";

  // Same plan, same seed, fresh executor: the whole realization replays.
  const auto r2 = faulted_run();
  expect_bitwise_equal(r2.output, r1.output);
  EXPECT_EQ(r2.latency_s, r1.latency_s);
  EXPECT_EQ(r2.checkpoints, r1.checkpoints);
  EXPECT_EQ(r2.checkpoint_bytes, r1.checkpoint_bytes);
  EXPECT_EQ(r2.resumes, r1.resumes);
  EXPECT_EQ(r2.suspensions, r1.suspensions);
}

TEST(IntermittentExec, BrownoutResumeBitIdenticalEnergyAdaptive) {
  // EnergyAdaptive with a comfortably charged capacitor commits only the
  // unrecoverable state (inputs + inbox); compute outputs stay volatile
  // and must be RE-COMPUTED after the brownout — the resumed values ground
  // on durable inputs, so the logits still match bit for bit.
  Scenario sc;
  const auto sample = make_sample(11);

  netexec::NetExecConfig base;
  base.checkpoint.policy = energy::CheckpointPolicy::EnergyAdaptive;
  base.harvest.enabled = true;
  base.harvest.initial_j = 0.5e-3;  // >> kAdaptiveReserveJ: skip output commits
  base.seed = 78;

  netexec::NetworkExecutor clean(sc.net, sc.graph, sc.assignment, sc.wsn,
                                 base);
  const auto ref = clean.run(sample);
  ASSERT_FALSE(ref.degraded);

  fault::FaultInjector inj(all_node_brownout(1e-3, 50e-3));
  netexec::NetExecConfig cfg = base;
  cfg.fault = &inj;
  netexec::NetworkExecutor exec(sc.net, sc.graph, sc.assignment, sc.wsn, cfg);
  const auto r = exec.run(sample);

  expect_bitwise_equal(r.output, ref.output);
  EXPECT_FALSE(r.degraded);
  EXPECT_GT(r.suspensions, 0u);
  EXPECT_GT(r.resumes, 0u);
  EXPECT_GT(r.latency_s, ref.latency_s);
}

TEST(IntermittentExec, NoCheckpointBrownoutDegrades) {
  // The control arm: harvesting makes the executor honour the brownout,
  // but with CheckpointPolicy::None there is nothing durable to resume
  // from — progress is wiped, nothing revives, and the unshifted layer
  // deadlines force substituted (degraded) outputs.
  Scenario sc;
  const auto sample = make_sample();

  fault::FaultInjector inj(all_node_brownout(1e-3, 50e-3));
  netexec::NetExecConfig cfg;
  cfg.harvest.enabled = true;
  cfg.harvest.initial_j = netexec::kCapacitorJ;  // full: never defer
  cfg.fault = &inj;
  netexec::NetworkExecutor exec(sc.net, sc.graph, sc.assignment, sc.wsn, cfg);
  const auto r = exec.run(sample);

  EXPECT_TRUE(r.degraded);
  EXPECT_GT(r.substitutions, 0u);
  EXPECT_GT(r.suspensions, 0u);
  EXPECT_EQ(r.resumes, 0u) << "None has no NVM image to revive from";
  EXPECT_EQ(r.checkpoints, 0u);
  EXPECT_EQ(r.checkpoint_bytes, 0u);
  EXPECT_EQ(r.checkpoint_energy_j, 0.0);
  EXPECT_EQ(r.output.size(), 2u) << "the event loop must still drain";
}

// -- Checkpoint codec ------------------------------------------------------

TEST(IntermittentExec, CheckpointSerializationRoundTrip) {
  for (std::uint64_t seed = 0; seed < 24; ++seed) {
    Rng rng(seed * 7919 + 1);
    netexec::NodeCheckpointState st;
    st.node = static_cast<std::uint32_t>(rng.uniform_int(0, 1000));
    st.plans_done = static_cast<std::uint32_t>(rng.uniform_int(0, 8));
    const auto n_entries = rng.uniform_int(0, 6);
    std::uint32_t unit = 0;
    for (std::int64_t i = 0; i < n_entries; ++i) {
      // Strictly increasing unit ids: the codec's canonical order.
      unit += static_cast<std::uint32_t>(rng.uniform_int(1, 50));
      netexec::CheckpointEntry e;
      e.unit = unit;
      const auto len = rng.uniform_int(1, 8);
      for (std::int64_t j = 0; j < len; ++j) {
        e.values.push_back(static_cast<float>(rng.uniform(-100.0, 100.0)));
      }
      st.entries.push_back(std::move(e));
    }

    const auto img = netexec::encode_checkpoint(st);
    EXPECT_EQ(img.size(), netexec::checkpoint_image_bytes(st))
        << "seed " << seed;

    netexec::NodeCheckpointState back;
    ASSERT_TRUE(netexec::decode_checkpoint(img.data(), img.size(), back))
        << "seed " << seed;
    EXPECT_TRUE(st == back) << "seed " << seed;

    const auto restored = netexec::restore_node_from_nvm(img, st.node);
    EXPECT_TRUE(restored == st) << "seed " << seed;

    // An image written by a different node must not be consumed.
    const auto foreign = netexec::restore_node_from_nvm(img, st.node + 1);
    EXPECT_EQ(foreign.node, st.node + 1) << "seed " << seed;
    EXPECT_EQ(foreign.plans_done, 0u) << "seed " << seed;
    EXPECT_TRUE(foreign.entries.empty()) << "seed " << seed;
  }

  // Blank NVM (factory fresh) restores to a clean state for the node.
  const auto clean = netexec::restore_node_from_nvm({}, 5);
  EXPECT_EQ(clean.node, 5u);
  EXPECT_EQ(clean.plans_done, 0u);
  EXPECT_TRUE(clean.entries.empty());
}

TEST(IntermittentExec, TruncationAndCorruptionFallBackClean) {
  // Strict decode: EVERY truncation and EVERY single-bit flip must fail the
  // frame (the FNV-1a-64 trailer detects all single-bit errors: the xor
  // step differs and the subsequent odd-prime multiplies are bijections),
  // and a reviving node falls back to a clean restart, never garbage.
  Rng rng(2024);
  netexec::NodeCheckpointState st;
  st.node = 3;
  st.plans_done = 2;
  std::uint32_t unit = 2;
  for (int i = 0; i < 3; ++i) {
    netexec::CheckpointEntry e;
    e.unit = unit;
    unit += 5;
    for (int j = 0; j < 4; ++j) {
      e.values.push_back(static_cast<float>(rng.uniform(-10.0, 10.0)));
    }
    st.entries.push_back(std::move(e));
  }
  const auto img = netexec::encode_checkpoint(st);
  ASSERT_GT(img.size(), 0u);

  netexec::NodeCheckpointState out;
  for (std::size_t len = 0; len < img.size(); ++len) {
    EXPECT_FALSE(netexec::decode_checkpoint(img.data(), len, out))
        << "truncation to " << len << " bytes decoded";
  }
  for (std::size_t bit = 0; bit < img.size() * 8; ++bit) {
    auto bad = img;
    bad[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    EXPECT_FALSE(netexec::decode_checkpoint(bad.data(), bad.size(), out))
        << "bit flip " << bit << " decoded";
    const auto rec = netexec::restore_node_from_nvm(bad, st.node);
    EXPECT_EQ(rec.node, st.node) << "bit " << bit;
    EXPECT_EQ(rec.plans_done, 0u) << "bit " << bit;
    EXPECT_TRUE(rec.entries.empty()) << "bit " << bit;
  }
}

// -- Energy accounting -----------------------------------------------------

TEST(IntermittentExec, CheckpointEnergyChargedExactlyOncePerCommit) {
  // Ledger invariant: the "checkpoint" activity total is exactly
  // commits * base_j + bytes * write_j_per_byte of the default
  // energy::CheckpointCosts — each commit charged once, nothing
  // double-counted across suspend/resume.
  Scenario sc;
  fault::FaultInjector inj(all_node_brownout(1e-3, 50e-3));
  netexec::NetExecConfig cfg;
  cfg.checkpoint.policy = energy::CheckpointPolicy::EveryUnit;
  cfg.fault = &inj;
  netexec::NetworkExecutor exec(sc.net, sc.graph, sc.assignment, sc.wsn, cfg);
  const auto r = exec.run(make_sample());

  EXPECT_GT(r.checkpoints, 0u);
  EXPECT_GT(r.checkpoint_bytes, 0u);
  const energy::CheckpointCosts c{};
  EXPECT_NEAR(r.checkpoint_energy_j,
              static_cast<double>(r.checkpoints) * c.base_j +
                  static_cast<double>(r.checkpoint_bytes) * c.write_j_per_byte,
              1e-12);
  EXPECT_GE(r.energy_j, r.checkpoint_energy_j)
      << "checkpoint energy is part of the node total";
}

TEST(IntermittentExec, RunChainSharesNetexecCheckpointCostModel) {
  // Both intermittent paths — the single-device task chains and the
  // distributed executor — must price a checkpointed byte identically:
  // both charge the default energy::CheckpointCosts by the same
  // base_j + bytes * write_j_per_byte formula (netexec's side is the
  // ledger invariant above).
  const energy::CheckpointCosts costs{};
  const auto chain = energy::default_context_chain();

  energy::IntermittentDevice dev(
      std::make_unique<energy::ConstantHarvester>(1e-3),
      energy::Capacitor(100e-6, 5.0, 4.5), energy::HysteresisSwitch(3.0, 2.0));
  energy::IntermittentRunConfig cfg;
  cfg.policy = energy::CheckpointPolicy::EveryUnit;
  cfg.checkpoint = costs;
  const auto st = energy::run_chain(dev, chain, cfg, 0.0);
  ASSERT_TRUE(st.completed);
  ASSERT_EQ(st.power_failures, 0u);

  double expected = 0.0;
  for (const auto& t : chain) expected += costs.energy_j(t.state_bytes);
  EXPECT_NEAR(st.checkpoint_energy_j, expected, 1e-12);
}

// -- Harvest-aware scheduling ---------------------------------------------

TEST(IntermittentExec, HarvestDeferralIdenticalAcrossThreadCounts) {
  // An empty capacitor under a µW trickle: every unit evaluation must be
  // deferred until the charge covers compute + checkpoint + first TX.  The
  // deferral schedule is pure virtual time, so evaluate() stays
  // bit-identical at any worker count.
  Scenario sc;
  netexec::NetExecConfig cfg;
  cfg.checkpoint.policy = energy::CheckpointPolicy::EveryUnit;
  cfg.harvest.enabled = true;
  cfg.harvest.initial_j = 0.0;
  cfg.harvest.harvest_watt = 2e-6;
  cfg.layer_deadline_s = 60.0;  // never force a starved compute
  cfg.seed = 5;

  {
    netexec::NetworkExecutor exec(sc.net, sc.graph, sc.assignment, sc.wsn,
                                  cfg);
    const auto r = exec.run(make_sample(3));
    EXPECT_GT(r.deferrals, 0u) << "an empty capacitor must defer";
    EXPECT_EQ(r.starved, 0u);
    EXPECT_FALSE(r.degraded);
    EXPECT_GT(r.latency_s, 0.5) << "waiting for charge dominates the round";
  }

  ml::Dataset data;
  for (int i = 0; i < 4; ++i) {
    data.add(make_sample(static_cast<std::uint64_t>(100 + i)), i % 2);
  }
  auto eval_with = [&](std::size_t threads) {
    par::ThreadPool pool(threads);
    netexec::NetworkExecutor exec(sc.net, sc.graph, sc.assignment, sc.wsn,
                                  cfg);
    return exec.evaluate(data, &pool);
  };
  const auto a = eval_with(1);
  const auto b = eval_with(4);

  EXPECT_EQ(a.accuracy, b.accuracy);
  EXPECT_GT(a.checkpoints, 0u);
  EXPECT_EQ(a.checkpoints, b.checkpoints);
  EXPECT_EQ(a.resumes, 0u);
  EXPECT_EQ(b.resumes, 0u);
  EXPECT_EQ(a.mean_checkpoint_energy_j, b.mean_checkpoint_energy_j);
  ASSERT_EQ(a.latencies_s.size(), b.latencies_s.size());
  for (std::size_t i = 0; i < a.latencies_s.size(); ++i) {
    EXPECT_EQ(a.latencies_s[i], b.latencies_s[i]) << "sample " << i;
  }
}

TEST(IntermittentExec, HarvestDroughtDelaysTheFirstComputeByItsLength) {
  // The harvest-ready solve: with an empty capacitor and no harvest at all
  // during [0, D), each node's first compute waits for D plus the time the
  // harvest then needs to cover its admission energy.  Lengthening the
  // drought by 0.3 s therefore starts the earliest compute exactly 0.3 s
  // later, up to the solve's 1 ns retry floor.  The solve jumps the whole
  // drought at once, so a compute waits through at most two deferrals (the
  // solve and one retry), however long the drought.
  Scenario sc;
  const auto sample = make_sample();
  struct DroughtRun {
    netexec::NetInferenceResult result;
    double first_compute_s = std::numeric_limits<double>::infinity();
    std::uint64_t computes = 0;
  };
  const auto run_with_drought = [&](double drought_s, double deadline_s) {
    fault::FaultInjector inj(fault::FaultPlan({fault::FaultEvent{
        0.0, fault::FaultType::HarvestDrought, fault::kAllTargets, drought_s,
        0.0}}));
    obs::Observability obs;
    obs.enable_spans(1 << 16);
    netexec::NetExecConfig cfg;
    cfg.channel.loss_per_hop = 0.0;
    cfg.harvest.enabled = true;
    cfg.harvest.initial_j = 0.0;
    cfg.layer_deadline_s = deadline_s;
    cfg.fault = &inj;
    cfg.obs = &obs;
    netexec::NetworkExecutor exec(sc.net, sc.graph, sc.assignment, sc.wsn,
                                  cfg);
    DroughtRun run;
    run.result = exec.run(sample);
    for (std::size_t i = 0; i < obs.spans().size(); ++i) {
      const obs::SpanEvent& e = obs.spans().at(i);
      if (e.kind == obs::SpanKind::NodeCompute) {
        run.first_compute_s = std::min(run.first_compute_s, e.t0);
        ++run.computes;
      }
    }
    return run;
  };

  const DroughtRun short_drought = run_with_drought(0.2, 2.0);
  const DroughtRun long_drought = run_with_drought(0.5, 2.0);
  for (const DroughtRun* run : {&short_drought, &long_drought}) {
    EXPECT_GT(run->result.deferrals, 0u) << "an empty capacitor must defer";
    EXPECT_LE(run->result.deferrals, 2 * run->computes);
    EXPECT_EQ(run->result.starved, 0u);
  }
  EXPECT_GT(short_drought.first_compute_s, 0.2);
  EXPECT_NEAR(long_drought.first_compute_s - short_drought.first_compute_s,
              0.3, 1e-9);

  // A drought that outlasts plan 0's deadline leaves its forced computes
  // on a dry capacitor: they are starved and the output is substituted.
  const DroughtRun starved = run_with_drought(0.5, 0.25);
  EXPECT_GT(starved.result.starved, 0u);
  EXPECT_TRUE(starved.result.degraded);
}

}  // namespace
}  // namespace zeiot
