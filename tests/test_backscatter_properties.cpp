// Additional coexistence properties: the proposed MAC's qualitative
// guarantees across the operating envelope, and scheduler stress cases.
#include <gtest/gtest.h>

#include "backscatter/coexistence.hpp"

namespace zeiot::backscatter {
namespace {

CoexistenceConfig cfg_for(double rate, std::size_t devices, double period,
                          MacMode mode) {
  CoexistenceConfig cfg;
  cfg.mode = mode;
  cfg.duration_s = 20.0;
  cfg.wlan_rate_hz = rate;
  cfg.num_devices = devices;
  cfg.device_period_s = period;
  cfg.seed = 2025;
  return cfg;
}

TEST(CoexistenceProps, ProposedLatencyBoundedByCycle) {
  // A delivered frame is always delivered within its own cycle, so the
  // mean latency can never exceed the period.
  for (double rate : {3.0, 30.0, 300.0}) {
    const auto m =
        CoexistenceSimulator(cfg_for(rate, 6, 1.0, MacMode::Proposed)).run();
    EXPECT_LE(m.mean_latency_s, 1.0 + 1e-9) << "rate " << rate;
  }
}

TEST(CoexistenceProps, ProposedNeverCollides) {
  // Grants are exclusive: the only backscatter losses are noise, never
  // tag-vs-tag collisions; collision counter only carries noise losses,
  // bounded by noise_per fraction of grants.
  auto cfg = cfg_for(50.0, 16, 0.5, MacMode::Proposed);
  cfg.backscatter_noise_per = 0.0;
  const auto m = CoexistenceSimulator(cfg).run();
  EXPECT_EQ(m.frames_collided, 0u);
}

TEST(CoexistenceProps, ZeroNoiseProposedDeliversEverythingFeasible) {
  auto cfg = cfg_for(100.0, 4, 1.0, MacMode::Proposed);
  cfg.backscatter_noise_per = 0.0;
  const auto m = CoexistenceSimulator(cfg).run();
  EXPECT_GT(m.delivery_ratio(), 0.98);
  EXPECT_EQ(m.frames_expired, 0u);
}

TEST(CoexistenceProps, ShorterCyclesRaiseDummyOverheadAtLowLoad) {
  auto slow = cfg_for(2.0, 6, 4.0, MacMode::Proposed);
  auto fast = cfg_for(2.0, 6, 0.25, MacMode::Proposed);
  const auto ms = CoexistenceSimulator(slow).run();
  const auto mf = CoexistenceSimulator(fast).run();
  // 16x the demand with the same scarce WLAN carriers: the AP must inject
  // more dummy airtime.
  EXPECT_GT(mf.dummy_airtime_fraction, ms.dummy_airtime_fraction);
}

TEST(CoexistenceProps, NoWlanTrafficAtAll) {
  // Pure-dummy operation: the MAC must still serve every cycle.
  auto cfg = cfg_for(50.0, 6, 1.0, MacMode::Proposed);
  cfg.wlan_rate_hz = 0.0;
  const auto m = CoexistenceSimulator(cfg).run();
  EXPECT_EQ(m.wlan_offered, 0u);
  EXPECT_GT(m.delivery_ratio(), 0.9);
  EXPECT_GT(m.dummy_airtime_fraction, 0.0);
}

TEST(CoexistenceProps, NaiveStarvesWithoutCarriers) {
  auto cfg = cfg_for(50.0, 6, 1.0, MacMode::Naive);
  cfg.wlan_rate_hz = 0.0;
  const auto m = CoexistenceSimulator(cfg).run();
  EXPECT_DOUBLE_EQ(m.delivery_ratio(), 0.0);
}

TEST(CoexistenceProps, SeedChangesTrajectoriesButNotInvariants) {
  auto a = cfg_for(40.0, 8, 1.0, MacMode::Naive);
  auto b = a;
  b.seed = 777;
  const auto ma = CoexistenceSimulator(a).run();
  const auto mb = CoexistenceSimulator(b).run();
  EXPECT_NE(ma.frames_delivered, mb.frames_delivered);
  for (const auto& m : {ma, mb}) {
    EXPECT_LE(m.frames_delivered + m.frames_expired, m.frames_generated);
  }
}

TEST(CoexistenceProps, UtilizationGrowsWithEverything) {
  const auto quiet =
      CoexistenceSimulator(cfg_for(5.0, 2, 2.0, MacMode::Proposed)).run();
  const auto busy =
      CoexistenceSimulator(cfg_for(500.0, 16, 0.25, MacMode::Proposed)).run();
  EXPECT_GT(busy.utilization, quiet.utilization);
}

// ---- MAC-scheduling properties audited from the channel occupancy log ----

std::vector<mac::Transmission> entries_of_kind(const mac::Channel& ch,
                                               mac::Medium kind) {
  std::vector<mac::Transmission> out;
  for (const mac::Transmission& t : ch.log()) {
    if (t.kind == kind) out.push_back(t);
  }
  return out;
}

bool overlaps(const mac::Transmission& a, const mac::Transmission& b) {
  return a.start < b.end && b.start < a.end;
}

TEST(CoexistenceProps, ProposedGrantsAreMutuallyExclusiveWindows) {
  // The AP grants exactly one device per carrier opportunity, so no two
  // backscatter windows may ever overlap — a tag-vs-tag overlap would be
  // exactly the collision regime the proposed MAC eliminates.
  for (double rate : {2.0, 50.0, 400.0}) {
    CoexistenceSimulator sim(cfg_for(rate, 10, 0.5, MacMode::Proposed));
    sim.run();
    const auto grants =
        entries_of_kind(sim.channel(), mac::Medium::Backscatter);
    ASSERT_FALSE(grants.empty()) << "rate " << rate;
    for (std::size_t i = 1; i < grants.size(); ++i) {
      EXPECT_GE(grants[i].start, grants[i - 1].end - 1e-12)
          << "rate " << rate << ": grants " << i - 1 << " and " << i
          << " overlap";
    }
  }
}

TEST(CoexistenceProps, EveryGrantIsCoveredByCarrierAirtime) {
  // Ambient backscatter cannot transmit without a carrier: every granted
  // window must lie inside the union of WLAN and dummy carrier intervals
  // (the dummy-tail extension exists precisely to close this gap).
  CoexistenceSimulator sim(cfg_for(30.0, 8, 1.0, MacMode::Proposed));
  sim.run();
  const auto& log = sim.channel().log();
  std::vector<mac::Transmission> carriers;
  for (const auto& t : log) {
    if (t.kind == mac::Medium::Wlan || t.kind == mac::Medium::Dummy) {
      carriers.push_back(t);
    }
  }
  // Merge carrier intervals (log is start-ordered).
  std::vector<std::pair<double, double>> merged;
  for (const auto& c : carriers) {
    if (!merged.empty() && c.start <= merged.back().second + 1e-12) {
      merged.back().second = std::max(merged.back().second, c.end);
    } else {
      merged.emplace_back(c.start, c.end);
    }
  }
  const auto grants =
      entries_of_kind(sim.channel(), mac::Medium::Backscatter);
  ASSERT_FALSE(grants.empty());
  for (const auto& g : grants) {
    const bool covered =
        std::any_of(merged.begin(), merged.end(), [&](const auto& m) {
          return m.first <= g.start + 1e-12 && g.end <= m.second + 1e-12;
        });
    EXPECT_TRUE(covered) << "grant [" << g.start << ", " << g.end
                         << ") has no carrier under it";
  }
}

TEST(CoexistenceProps, EveryDeviceMeetsItsAcquisitionCycle) {
  // With zero noise and feasible capacity, every registered device must be
  // granted (and deliver) once per acquisition cycle — at least
  // floor(horizon / period) - 1 times per device over the horizon (the -1
  // absorbs the random cycle phase).
  auto cfg = cfg_for(50.0, 6, 1.0, MacMode::Proposed);
  cfg.backscatter_noise_per = 0.0;
  CoexistenceSimulator sim(cfg);
  const auto m = sim.run();
  EXPECT_EQ(m.frames_expired, 0u);
  const auto grants =
      entries_of_kind(sim.channel(), mac::Medium::Backscatter);
  std::vector<std::size_t> per_device(cfg.num_devices, 0);
  for (const auto& g : grants) {
    ASSERT_GE(g.source, 1u);  // backscatter sources are device id + 1
    ASSERT_LE(g.source, cfg.num_devices);
    ++per_device[g.source - 1];
  }
  const auto floor_cycles = static_cast<std::size_t>(
      cfg.duration_s / cfg.device_period_s);
  for (std::size_t d = 0; d < cfg.num_devices; ++d) {
    EXPECT_GE(per_device[d], floor_cycles - 1)
        << "device " << d << " missed acquisition cycles";
  }
}

TEST(CoexistenceProps, DummyCarriersNeverOverlapWlanPackets) {
  // Dummy carriers are gap fillers: the AP injects one only when the
  // channel is free (WLAN traffic below what the deadlines need), so no
  // dummy interval may overlap a WLAN exchange.
  for (double rate : {2.0, 50.0, 300.0}) {
    CoexistenceSimulator sim(cfg_for(rate, 8, 0.5, MacMode::Proposed));
    sim.run();
    const auto wlan = entries_of_kind(sim.channel(), mac::Medium::Wlan);
    const auto dummy = entries_of_kind(sim.channel(), mac::Medium::Dummy);
    for (const auto& d : dummy) {
      for (const auto& w : wlan) {
        EXPECT_FALSE(overlaps(d, w))
            << "rate " << rate << ": dummy [" << d.start << ", " << d.end
            << ") overlaps wlan [" << w.start << ", " << w.end << ")";
      }
    }
  }
}

TEST(CoexistenceProps, DummyInjectionOnlyFiresWhenWlanTrafficIsScarce) {
  // Abundant WLAN carriers satisfy the cycles for free; the dummy airtime
  // the AP spends must shrink as offered WLAN load grows, and be strictly
  // positive when carriers are scarce.
  auto scarce = cfg_for(1.0, 6, 0.5, MacMode::Proposed);
  auto plentiful = cfg_for(400.0, 6, 0.5, MacMode::Proposed);
  const auto ms = CoexistenceSimulator(scarce).run();
  const auto mp = CoexistenceSimulator(plentiful).run();
  EXPECT_GT(ms.dummy_airtime_fraction, 0.0);
  EXPECT_LT(mp.dummy_airtime_fraction, ms.dummy_airtime_fraction);
}

}  // namespace
}  // namespace zeiot::backscatter
