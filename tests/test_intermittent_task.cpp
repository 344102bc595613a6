#include "energy/intermittent_task.hpp"

#include <gtest/gtest.h>

#include <memory>

namespace zeiot::energy {
namespace {

IntermittentDevice make_device(double harvest_watt, double cap_f = 100e-6,
                               double v_init = 0.0) {
  return IntermittentDevice(std::make_unique<ConstantHarvester>(harvest_watt),
                            Capacitor(cap_f, 5.0, v_init),
                            HysteresisSwitch(3.0, 2.0));
}

TEST(IntermittentTask, DefaultChainShape) {
  const auto chain = default_context_chain();
  ASSERT_EQ(chain.size(), 5u);
  EXPECT_EQ(chain.front().name, "sense");
  EXPECT_EQ(chain.back().name, "backscatter");
  for (const auto& t : chain) EXPECT_GT(t.energy_j(), 0.0);
}

TEST(IntermittentTask, AmpleEnergyCompletesImmediately) {
  auto dev = make_device(1e-3, 100e-6, 4.5);
  IntermittentRunConfig cfg;
  const auto st = run_chain(dev, default_context_chain(), cfg, 0.0);
  EXPECT_TRUE(st.completed);
  EXPECT_EQ(st.power_failures, 0u);
  EXPECT_EQ(st.tasks_reexecuted, 0u);
  // Completion ~= sum of task durations.
  EXPECT_NEAR(st.completion_time_s, 0.02 + 0.03 + 0.05 + 0.04 + 0.01, 0.05);
}

TEST(IntermittentTask, NoEnergyNeverCompletes) {
  auto dev = make_device(0.0);
  IntermittentRunConfig cfg;
  cfg.chain_timeout_s = 5.0;
  const auto st = run_chain(dev, default_context_chain(), cfg, 0.0);
  EXPECT_FALSE(st.completed);
}

TEST(IntermittentTask, WeakHarvestEventuallyCompletes) {
  // 30 uW harvest vs a chain needing ~8.3 uJ: charge-burst-charge cycles.
  auto dev = make_device(30e-6, 20e-6);
  IntermittentRunConfig cfg;
  cfg.chain_timeout_s = 300.0;
  const auto st = run_chain(dev, default_context_chain(), cfg, 0.0);
  EXPECT_TRUE(st.completed);
  EXPECT_GT(st.completion_time_s, 0.2);  // had to wait for harvest
}

TEST(IntermittentTask, CheckpointsBoundReexecutionWaste) {
  // A starved device (2 uF usable charge < whole-chain energy) browns out
  // mid-chain every time: without durable progress the chain restarts
  // from scratch forever; with checkpoints it crawls to completion.
  IntermittentRunConfig with_cp;
  with_cp.policy = CheckpointPolicy::EveryUnit;
  with_cp.chain_timeout_s = 120.0;
  IntermittentRunConfig no_cp = with_cp;
  no_cp.policy = CheckpointPolicy::None;

  auto dev_a = make_device(15e-6, 2e-6);
  auto dev_b = make_device(15e-6, 2e-6);
  const auto chain = default_context_chain();
  const auto sa = run_chain(dev_a, chain, with_cp, 0.0);
  const auto sb = run_chain(dev_b, chain, no_cp, 0.0);
  EXPECT_TRUE(sa.completed);
  EXPECT_FALSE(sb.completed);
  EXPECT_LT(sa.tasks_reexecuted, sb.tasks_reexecuted);
  EXPECT_GT(sa.checkpoint_energy_j, 0.0);
  EXPECT_DOUBLE_EQ(sb.checkpoint_energy_j, 0.0);
  EXPECT_GT(sa.power_failures, 0u);
}

TEST(IntermittentTask, RejectsEnergyAdaptivePolicy) {
  // EnergyAdaptive keys off a capacitor reserve that run_chain does not
  // model, so the shared policy enum's third value is refused up front.
  auto dev = make_device(1e-3, 100e-6, 4.5);
  IntermittentRunConfig cfg;
  cfg.policy = CheckpointPolicy::EnergyAdaptive;
  EXPECT_THROW(run_chain(dev, default_context_chain(), cfg, 0.0), Error);
}

TEST(IntermittentTask, PolicyLabels) {
  EXPECT_STREQ(checkpoint_policy_name(CheckpointPolicy::None), "none");
  EXPECT_STREQ(checkpoint_policy_name(CheckpointPolicy::EveryUnit),
               "every_unit");
  EXPECT_STREQ(checkpoint_policy_name(CheckpointPolicy::EnergyAdaptive),
               "adaptive");
}

TEST(IntermittentTask, UsefulEnergyCountsDistinctTasks) {
  auto dev = make_device(1e-3, 100e-6, 4.5);
  IntermittentRunConfig cfg;
  const auto chain = default_context_chain();
  const auto st = run_chain(dev, chain, cfg, 0.0);
  double expected = 0.0;
  for (const auto& t : chain) expected += t.energy_j();
  EXPECT_NEAR(st.useful_energy_j, expected, 1e-12);
}

TEST(IntermittentTask, WorkloadAggregates) {
  auto dev = make_device(200e-6, 100e-6);
  IntermittentRunConfig cfg;
  const auto ws =
      run_workload(dev, default_context_chain(), cfg, 2.0, 10);
  EXPECT_EQ(ws.chains_attempted, 10u);
  EXPECT_GT(ws.completion_ratio(), 0.8);
  EXPECT_GT(ws.mean_completion_s, 0.0);
}

TEST(IntermittentTask, WorkloadStarvesGracefully) {
  auto dev = make_device(1e-6, 20e-6);  // 1 uW: hopeless for this chain
  IntermittentRunConfig cfg;
  cfg.chain_timeout_s = 3.0;
  const auto ws = run_workload(dev, default_context_chain(), cfg, 5.0, 3);
  EXPECT_EQ(ws.chains_completed, 0u);
  EXPECT_DOUBLE_EQ(ws.completion_ratio(), 0.0);
}

TEST(IntermittentTask, RejectsBadArguments) {
  auto dev = make_device(1e-3);
  IntermittentRunConfig cfg;
  EXPECT_THROW(run_chain(dev, {}, cfg, 0.0), Error);
  cfg.tick_s = 0.0;
  EXPECT_THROW(run_chain(dev, default_context_chain(), cfg, 0.0), Error);
  IntermittentRunConfig cfg2;
  EXPECT_THROW(run_workload(dev, default_context_chain(), cfg2, 0.0, 3),
               Error);
}

}  // namespace
}  // namespace zeiot::energy
