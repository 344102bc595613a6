#include "mac/csma.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"

namespace zeiot::mac {
namespace {

CsmaConfig base(std::size_t stations) {
  CsmaConfig cfg;
  cfg.num_stations = stations;
  cfg.seed = 42;
  return cfg;
}

TEST(Csma, RejectsBadConfig) {
  auto cfg = base(0);
  EXPECT_THROW(simulate_csma(cfg, 1000), Error);
}

TEST(Csma, SingleStationNeverCollides) {
  const auto m = simulate_csma(base(1), 100000);
  EXPECT_EQ(m.collisions, 0u);
  EXPECT_GT(m.successes, 0u);
  EXPECT_DOUBLE_EQ(m.collision_probability, 0.0);
}

TEST(Csma, SingleStationThroughputNearOptimal) {
  // One saturated station only pays backoff overhead.
  const auto m = simulate_csma(base(1), 100000);
  EXPECT_GT(m.throughput, 0.7);
}

TEST(Csma, CollisionsGrowWithPopulation) {
  const auto m2 = simulate_csma(base(2), 200000);
  const auto m20 = simulate_csma(base(20), 200000);
  EXPECT_GT(m20.collision_probability, m2.collision_probability);
}

TEST(Csma, ThroughputDegradesUnderHeavyContention) {
  // The Bianchi-curve tail: throughput at 50 stations is below the
  // throughput at 5.
  const auto m5 = simulate_csma(base(5), 400000);
  const auto m50 = simulate_csma(base(50), 400000);
  EXPECT_LT(m50.throughput, m5.throughput);
}

TEST(Csma, SaturatedFairness) {
  auto cfg = base(8);
  const auto m = simulate_csma(cfg, 400000);
  EXPECT_GT(m.jain_fairness(), 0.9);
}

TEST(Csma, UnsaturatedLowLoadIsCollisionLight) {
  auto cfg = base(10);
  cfg.saturated = false;
  cfg.arrival_per_slot = 0.0005;
  const auto m = simulate_csma(cfg, 400000);
  EXPECT_LT(m.collision_probability, 0.1);
}

TEST(Csma, DropsOnlyUnderContention) {
  const auto m1 = simulate_csma(base(1), 200000);
  EXPECT_EQ(m1.drops, 0u);
  auto heavy = base(60);
  const auto mh = simulate_csma(heavy, 200000);
  EXPECT_GT(mh.drops, 0u);
}

TEST(Csma, DeterministicForSeed) {
  const auto a = simulate_csma(base(10), 100000);
  const auto b = simulate_csma(base(10), 100000);
  EXPECT_EQ(a.successes, b.successes);
  EXPECT_EQ(a.collisions, b.collisions);
}

TEST(Csma, MetricsConsistency) {
  const auto m = simulate_csma(base(10), 100000);
  EXPECT_GE(m.slots_simulated, 100000u);
  EXPECT_GE(m.throughput, 0.0);
  EXPECT_LE(m.throughput, 1.0);
  std::size_t sum = 0;
  for (std::size_t s : m.per_station_successes) sum += s;
  EXPECT_EQ(sum, m.successes);
}

TEST(Csma, JainFairnessBounds) {
  CsmaMetrics m;
  m.per_station_successes = {10, 10, 10};
  EXPECT_DOUBLE_EQ(m.jain_fairness(), 1.0);
  m.per_station_successes = {30, 0, 0};
  EXPECT_NEAR(m.jain_fairness(), 1.0 / 3.0, 1e-12);
}

// Property sweep: invariants hold across populations.
class CsmaSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(CsmaSweep, InvariantsHold) {
  const auto m = simulate_csma(base(GetParam()), 150000);
  EXPECT_GE(m.collision_probability, 0.0);
  EXPECT_LE(m.collision_probability, 1.0);
  EXPECT_GE(m.throughput, 0.0);
  EXPECT_LE(m.throughput, 1.0);
  EXPECT_GE(m.jain_fairness(), 0.0);
  EXPECT_LE(m.jain_fairness(), 1.0 + 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Populations, CsmaSweep,
                         ::testing::Values(1, 2, 4, 8, 16, 32, 64));

}  // namespace
}  // namespace zeiot::mac
