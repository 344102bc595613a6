#include "mac/collection.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"

namespace zeiot::mac {
namespace {

std::vector<DeviceRequirement> grid_devices(std::size_t n, double period_s,
                                            std::size_t bytes = 16,
                                            double spacing_m = 5.0) {
  std::vector<DeviceRequirement> devices;
  for (std::size_t i = 0; i < n; ++i) {
    devices.push_back({static_cast<CollectionDeviceId>(i),
                       {spacing_m * static_cast<double>(i % 8),
                        spacing_m * static_cast<double>(i / 8)},
                       period_s,
                       bytes});
  }
  return devices;
}

TEST(Collection, TransmissionDuration) {
  CollectionConfig cfg;
  cfg.channel_rate_bps = 250e3;
  cfg.overhead_s = 1e-3;
  EXPECT_NEAR(transmission_duration_s(cfg, 250), 1e-3 + 8e-3, 1e-9);
}

TEST(Collection, HyperperiodLcm) {
  EXPECT_NEAR(hyperperiod_s(grid_devices(1, 0.5)), 0.5, 1e-9);
  std::vector<DeviceRequirement> mixed{{0, {}, 0.5, 8}, {1, {0, 5}, 0.75, 8}};
  EXPECT_NEAR(hyperperiod_s(mixed), 1.5, 1e-9);
}

TEST(Collection, RejectsBadInput) {
  CollectionConfig cfg;
  EXPECT_THROW(synthesize_schedule({}, cfg), Error);
  auto dup = grid_devices(2, 1.0);
  dup[1].id = dup[0].id;
  EXPECT_THROW(synthesize_schedule(dup, cfg), Error);
  auto tiny = grid_devices(1, 1.0);
  tiny[0].period_s = 1e-4;
  EXPECT_THROW(synthesize_schedule(tiny, cfg), Error);
}

TEST(Collection, EasyCaseFeasibleAndValid) {
  const auto devices = grid_devices(10, 1.0);
  CollectionConfig cfg;
  const auto s = synthesize_schedule(devices, cfg);
  ASSERT_TRUE(s.feasible) << s.failure_reason;
  EXPECT_EQ(validate_schedule(s, devices, cfg), "");
  EXPECT_GT(s.worst_slack_s, 0.0);
  // 10 primaries + 10 recoveries per hyperperiod of 1 s.
  EXPECT_EQ(s.entries.size(), 20u);
}

TEST(Collection, MixedPeriodsScheduleEveryInstance) {
  std::vector<DeviceRequirement> devices{
      {0, {0, 0}, 0.25, 8}, {1, {5, 0}, 0.5, 8}, {2, {10, 0}, 1.0, 8}};
  CollectionConfig cfg;
  cfg.recovery_slots = 0;
  const auto s = synthesize_schedule(devices, cfg);
  ASSERT_TRUE(s.feasible) << s.failure_reason;
  EXPECT_EQ(validate_schedule(s, devices, cfg), "");
  // 4 + 2 + 1 instances over the 1 s hyperperiod.
  EXPECT_EQ(s.entries.size(), 7u);
}

TEST(Collection, InfeasibleOverloadReported) {
  // 100 devices at 10 ms cycles with 1 ms overhead cannot fit one channel.
  const auto devices = grid_devices(100, 0.01);
  CollectionConfig cfg;
  cfg.recovery_slots = 0;
  const auto s = synthesize_schedule(devices, cfg);
  EXPECT_FALSE(s.feasible);
  EXPECT_FALSE(s.failure_reason.empty());
  EXPECT_TRUE(s.entries.empty());
}

TEST(Collection, MoreChannelsRestoreFeasibility) {
  // 24 devices x 1.512 ms every 20 ms = 181% of one channel.
  const auto devices = grid_devices(24, 0.02, 16, 3.0);
  CollectionConfig one;
  one.recovery_slots = 0;
  CollectionConfig four = one;
  four.num_channels = 4;
  const auto s1 = synthesize_schedule(devices, one);
  const auto s4 = synthesize_schedule(devices, four);
  EXPECT_FALSE(s1.feasible);
  ASSERT_TRUE(s4.feasible) << s4.failure_reason;
  EXPECT_EQ(validate_schedule(s4, devices, four), "");
}

TEST(Collection, SpatialReuseAllowsOverlap) {
  // Two far-apart devices can share a channel simultaneously.
  std::vector<DeviceRequirement> devices{{0, {0, 0}, 0.1, 128},
                                         {1, {500, 0}, 0.1, 128}};
  CollectionConfig cfg;
  cfg.interference_range_m = 50.0;
  cfg.recovery_slots = 0;
  const auto s = synthesize_schedule(devices, cfg);
  ASSERT_TRUE(s.feasible);
  EXPECT_EQ(validate_schedule(s, devices, cfg), "");
  // Both primaries can start at t = 0 thanks to reuse.
  ASSERT_EQ(s.entries.size(), 2u);
  EXPECT_DOUBLE_EQ(s.entries[0].start_s, 0.0);
  EXPECT_DOUBLE_EQ(s.entries[1].start_s, 0.0);
}

TEST(Collection, InterferingDevicesSerialized) {
  std::vector<DeviceRequirement> devices{{0, {0, 0}, 0.1, 128},
                                         {1, {1, 0}, 0.1, 128}};
  CollectionConfig cfg;
  cfg.recovery_slots = 0;
  const auto s = synthesize_schedule(devices, cfg);
  ASSERT_TRUE(s.feasible);
  EXPECT_EQ(validate_schedule(s, devices, cfg), "");
  // Same channel -> disjoint in time.
  const auto& a = s.entries[0];
  const auto& b = s.entries[1];
  if (a.channel == b.channel) {
    EXPECT_TRUE(a.start_s + a.duration_s <= b.start_s + 1e-12 ||
                b.start_s + b.duration_s <= a.start_s + 1e-12);
  }
}

TEST(Collection, RecoverySlotsReserved) {
  const auto devices = grid_devices(4, 0.5);
  CollectionConfig cfg;
  cfg.recovery_slots = 2;
  const auto s = synthesize_schedule(devices, cfg);
  ASSERT_TRUE(s.feasible) << s.failure_reason;
  EXPECT_EQ(validate_schedule(s, devices, cfg), "");
  std::size_t recovery = 0;
  for (const auto& e : s.entries) recovery += e.recovery ? 1 : 0;
  EXPECT_EQ(recovery, 4u * 2u);  // per device per instance
}

TEST(Collection, UtilizationReported) {
  const auto devices = grid_devices(8, 1.0);
  CollectionConfig cfg;
  cfg.num_channels = 2;
  const auto s = synthesize_schedule(devices, cfg);
  ASSERT_TRUE(s.feasible);
  ASSERT_EQ(s.channel_utilization.size(), 2u);
  for (double u : s.channel_utilization) EXPECT_GE(u, 0.0);
}

TEST(Collection, ValidatorCatchesTampering) {
  const auto devices = grid_devices(4, 1.0);
  CollectionConfig cfg;
  cfg.recovery_slots = 0;
  auto s = synthesize_schedule(devices, cfg);
  ASSERT_TRUE(s.feasible);
  ASSERT_EQ(validate_schedule(s, devices, cfg), "");
  // Force two interfering entries to overlap.
  ASSERT_GE(s.entries.size(), 2u);
  s.entries[1].start_s = s.entries[0].start_s;
  s.entries[1].channel = s.entries[0].channel;
  EXPECT_NE(validate_schedule(s, devices, cfg), "");
}

// Property sweep: synthesize + validate across loads.
struct CollectionParam {
  std::size_t devices;
  double period;
  int channels;
};

// gtest (and ctest through gtest_discover_tests) names each case by its
// printed parameter.  Without this, it would print the struct's bytes,
// padding included, and the names would change from build to build.
void PrintTo(const CollectionParam& p, std::ostream* os) {
  *os << p.devices << "dev_" << p.period << "s_" << p.channels << "ch";
}

class CollectionSweep : public ::testing::TestWithParam<CollectionParam> {};

TEST_P(CollectionSweep, FeasibleSchedulesAlwaysValidate) {
  const auto p = GetParam();
  const auto devices = grid_devices(p.devices, p.period);
  CollectionConfig cfg;
  cfg.num_channels = p.channels;
  cfg.recovery_slots = 1;
  const auto s = synthesize_schedule(devices, cfg);
  if (s.feasible) {
    EXPECT_EQ(validate_schedule(s, devices, cfg), "");
  } else {
    EXPECT_FALSE(s.failure_reason.empty());
  }
}

INSTANTIATE_TEST_SUITE_P(
    Loads, CollectionSweep,
    ::testing::Values(CollectionParam{4, 0.5, 1}, CollectionParam{16, 0.5, 1},
                      CollectionParam{16, 0.5, 3}, CollectionParam{40, 0.2, 2},
                      CollectionParam{64, 1.0, 4},
                      CollectionParam{64, 0.05, 2}));

}  // namespace
}  // namespace zeiot::mac
