#include <gtest/gtest.h>

#include <set>
#include <string>

#include "sensing/csi/localization.hpp"

namespace zeiot::sensing::csi {
namespace {

TEST(Patterns, SixPatternsWithDistinctNames) {
  const auto ps = all_patterns();
  ASSERT_EQ(ps.size(), 6u);
  std::set<std::string> names;
  for (const auto& p : ps) names.insert(p.name());
  EXPECT_EQ(names.size(), 6u);
}

TEST(Patterns, NameFormat) {
  Pattern p{Behavior::Walking, AntennaConfig::Divergent};
  EXPECT_EQ(p.name(), "walking/divergent");
}

TEST(Positions, CountAndContainment) {
  const auto pos = default_positions(7);
  ASSERT_EQ(pos.size(), 7u);
  for (const auto& p : pos) EXPECT_TRUE(phy::kCsiRoom.contains(p));
  EXPECT_THROW(default_positions(1), Error);
}

LocalizationConfig fast_config() {
  LocalizationConfig cfg;
  cfg.num_positions = 4;
  cfg.frames_per_position = 14;
  cfg.seed = 5;
  return cfg;
}

phy::CsiEnvironment fast_env() {
  phy::CsiEnvironment env;
  env.subcarriers = 12;  // 12 * 12 angles = 144 features; fast
  return env;
}

TEST(Localization, BeatsChanceOnBestPattern) {
  const auto res = run_localization(
      fast_env(), {Behavior::Walking, AntennaConfig::Divergent},
      fast_config());
  EXPECT_GT(res.accuracy, 0.5);  // chance = 0.25
  EXPECT_EQ(res.confusion.total(),
            static_cast<std::size_t>(res.confusion.total()));
}

TEST(Localization, FeatureDimMatchesConfig) {
  const auto res = run_localization(
      fast_env(), {Behavior::Static, AntennaConfig::Divergent}, fast_config());
  // 12 subcarriers x 12 angles, each embedded as (cos, sin).
  EXPECT_EQ(res.feature_dim, 12u * 12u * 2u);
}

TEST(Localization, DivergentBeatsAligned) {
  // The paper's key finding: antenna orientation divergence improves the
  // device-free localization accuracy.
  auto cfg = fast_config();
  cfg.frames_per_position = 20;
  const auto div = run_localization(
      fast_env(), {Behavior::Walking, AntennaConfig::Divergent}, cfg);
  const auto ali = run_localization(
      fast_env(), {Behavior::Walking, AntennaConfig::Aligned}, cfg);
  EXPECT_GE(div.accuracy, ali.accuracy);
}

TEST(Localization, DeterministicForSeed) {
  const auto a = run_localization(
      fast_env(), {Behavior::Walking, AntennaConfig::Divergent},
      fast_config());
  const auto b = run_localization(
      fast_env(), {Behavior::Walking, AntennaConfig::Divergent},
      fast_config());
  EXPECT_DOUBLE_EQ(a.accuracy, b.accuracy);
}

TEST(Localization, RejectsDegenerateConfig) {
  auto cfg = fast_config();
  cfg.num_positions = 1;
  EXPECT_THROW(
      run_localization(fast_env(),
                       {Behavior::Static, AntennaConfig::Aligned}, cfg),
      Error);
  cfg = fast_config();
  cfg.frames_per_position = 2;
  EXPECT_THROW(
      run_localization(fast_env(),
                       {Behavior::Static, AntennaConfig::Aligned}, cfg),
      Error);
}

TEST(Localization, RunAllPatternsReturnsSix) {
  auto cfg = fast_config();
  cfg.frames_per_position = 8;
  cfg.num_positions = 3;
  const auto all = run_all_patterns(fast_env(), cfg);
  EXPECT_EQ(all.size(), 6u);
}

}  // namespace
}  // namespace zeiot::sensing::csi
