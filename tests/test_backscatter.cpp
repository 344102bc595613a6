#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "backscatter/bmac.hpp"
#include "backscatter/coexistence.hpp"
#include "common/hash.hpp"
#include "fault/fault.hpp"

namespace zeiot::backscatter {
namespace {

TEST(CycleScheduler, RegistersAndRejectsDuplicates) {
  CycleScheduler s;
  s.register_device({1, 1.0, 8});
  EXPECT_THROW(s.register_device({1, 2.0, 8}), Error);
  EXPECT_EQ(s.registrations().size(), 1u);
  EXPECT_DOUBLE_EQ(s.registration(1).period_s, 1.0);
  EXPECT_THROW(s.registration(9), Error);
}

TEST(CycleScheduler, RejectsBadRegistration) {
  CycleScheduler s;
  EXPECT_THROW(s.register_device({1, 0.0, 8}), Error);
  EXPECT_THROW(s.register_device({1, 1.0, 0}), Error);
}

TEST(CycleScheduler, EdfOrder) {
  CycleScheduler s;
  s.enqueue({1, 0.0, 5.0});
  s.enqueue({2, 0.0, 2.0});
  s.enqueue({3, 0.0, 8.0});
  std::size_t expired = 0;
  auto f = s.pop_earliest_deadline(0.0, 0.1, expired);
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(f->device, 2u);
  f = s.pop_earliest_deadline(0.0, 0.1, expired);
  EXPECT_EQ(f->device, 1u);
  EXPECT_EQ(expired, 0u);
}

TEST(CycleScheduler, SkipsUnmeetableDeadlines) {
  CycleScheduler s;
  s.enqueue({1, 0.0, 1.0});
  s.enqueue({2, 0.0, 10.0});
  std::size_t expired = 0;
  // At t=0.95 a 0.1s transmission cannot meet the 1.0 deadline.
  auto f = s.pop_earliest_deadline(0.95, 0.1, expired);
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(f->device, 2u);
  EXPECT_EQ(expired, 1u);
}

TEST(CycleScheduler, DropExpired) {
  CycleScheduler s;
  s.enqueue({1, 0.0, 1.0});
  s.enqueue({2, 0.0, 2.0});
  s.enqueue({3, 0.0, 3.0});
  EXPECT_EQ(s.drop_expired(2.5), 2u);
  EXPECT_EQ(s.pending_count(), 1u);
  EXPECT_DOUBLE_EQ(s.next_deadline(), 3.0);
}

TEST(CycleScheduler, NextDeadlineInfinityWhenEmpty) {
  CycleScheduler s;
  EXPECT_TRUE(std::isinf(s.next_deadline()));
  EXPECT_FALSE(s.has_pending());
}

TEST(CycleScheduler, EnqueueRejectsInvertedTimes) {
  CycleScheduler s;
  EXPECT_THROW(s.enqueue({1, 5.0, 4.0}), Error);
}

CoexistenceConfig base_config(MacMode mode) {
  CoexistenceConfig cfg;
  cfg.mode = mode;
  cfg.duration_s = 30.0;
  cfg.wlan_rate_hz = 150.0;
  cfg.num_devices = 6;
  cfg.device_period_s = 1.0;
  cfg.seed = 99;
  return cfg;
}

TEST(Coexistence, CountsAreConsistentProposed) {
  CoexistenceSimulator sim(base_config(MacMode::Proposed));
  const auto m = sim.run();
  EXPECT_GT(m.frames_generated, 0u);
  EXPECT_LE(m.frames_delivered + m.frames_expired + m.frames_collided,
            m.frames_generated);
  EXPECT_LE(m.wlan_delivered, m.wlan_offered + m.wlan_corrupted);
  EXPECT_GE(m.utilization, 0.0);
  EXPECT_LE(m.utilization, 1.0);
}

TEST(Coexistence, CountsAreConsistentNaive) {
  CoexistenceSimulator sim(base_config(MacMode::Naive));
  const auto m = sim.run();
  EXPECT_GT(m.frames_generated, 0u);
  // A frame can collide several times before expiring, so only the
  // terminal outcomes are bounded by the generation count.
  EXPECT_LE(m.frames_delivered + m.frames_expired, m.frames_generated);
  EXPECT_GE(m.delivery_ratio(), 0.0);
  EXPECT_LE(m.delivery_ratio(), 1.0);
}

TEST(Coexistence, ProposedDeliversUnderModerateLoad) {
  CoexistenceSimulator sim(base_config(MacMode::Proposed));
  const auto m = sim.run();
  EXPECT_GT(m.delivery_ratio(), 0.9);
}

TEST(Coexistence, ProposedBeatsNaiveAtLowWlanLoad) {
  // The paper: without enough WLAN traffic, uncoordinated backscatter
  // starves; the proposed MAC fills the gap with dummy packets.
  auto p = base_config(MacMode::Proposed);
  auto n = base_config(MacMode::Naive);
  p.wlan_rate_hz = n.wlan_rate_hz = 5.0;  // sparse carriers
  const auto mp = CoexistenceSimulator(p).run();
  const auto mn = CoexistenceSimulator(n).run();
  EXPECT_GT(mp.delivery_ratio(), mn.delivery_ratio() + 0.2);
}

TEST(Coexistence, ProposedUsesDummiesOnlyWhenNeeded) {
  auto low = base_config(MacMode::Proposed);
  low.wlan_rate_hz = 2.0;
  auto high = base_config(MacMode::Proposed);
  high.wlan_rate_hz = 400.0;
  const auto ml = CoexistenceSimulator(low).run();
  const auto mh = CoexistenceSimulator(high).run();
  EXPECT_GT(ml.dummy_airtime_fraction, mh.dummy_airtime_fraction);
}

TEST(Coexistence, NaiveCorruptsWlanMore) {
  auto p = base_config(MacMode::Proposed);
  auto n = base_config(MacMode::Naive);
  const auto mp = CoexistenceSimulator(p).run();
  const auto mn = CoexistenceSimulator(n).run();
  EXPECT_GT(mn.wlan_error_rate(), mp.wlan_error_rate());
}

TEST(Coexistence, NaiveCollidesWithManyDevices) {
  auto n = base_config(MacMode::Naive);
  n.num_devices = 20;
  const auto m = CoexistenceSimulator(n).run();
  EXPECT_GT(m.frames_collided, 0u);
}

TEST(Coexistence, DeterministicForSeed) {
  const auto m1 = CoexistenceSimulator(base_config(MacMode::Proposed)).run();
  const auto m2 = CoexistenceSimulator(base_config(MacMode::Proposed)).run();
  EXPECT_EQ(m1.frames_delivered, m2.frames_delivered);
  EXPECT_EQ(m1.wlan_delivered, m2.wlan_delivered);
  EXPECT_DOUBLE_EQ(m1.utilization, m2.utilization);
}

TEST(Coexistence, RejectsBadConfig) {
  auto cfg = base_config(MacMode::Proposed);
  cfg.num_devices = 0;
  EXPECT_THROW(CoexistenceSimulator{cfg}, Error);
  cfg = base_config(MacMode::Proposed);
  cfg.duration_s = 0.0;
  EXPECT_THROW(CoexistenceSimulator{cfg}, Error);
}

TEST(Coexistence, WlanGoodputScalesWithLoad) {
  auto lo = base_config(MacMode::Proposed);
  lo.wlan_rate_hz = 20.0;
  auto hi = base_config(MacMode::Proposed);
  hi.wlan_rate_hz = 200.0;
  const auto ml = CoexistenceSimulator(lo).run();
  const auto mh = CoexistenceSimulator(hi).run();
  EXPECT_GT(mh.wlan_goodput_bps, ml.wlan_goodput_bps * 2.0);
}

TEST(Coexistence, RecordClosesTheLastSimulatorStep) {
  // Every executed event belongs to exactly one sim_step span, the last
  // step included: run() closes it at the scenario horizon.
  auto cfg = base_config(MacMode::Proposed);
  cfg.duration_s = 5.0;
  obs::Observability obs;
  obs.enable_spans(1 << 16);
  CoexistenceSimulator sim(cfg);
  sim.set_observability(&obs);
  (void)sim.run();
  ASSERT_GT(obs.spans().size(), 0u);
  ASSERT_EQ(obs.spans().dropped(), 0u);

  double step_events = 0.0;
  const obs::SpanEvent* last_step = nullptr;
  const obs::SpanEvent* last_fired = nullptr;
  for (std::size_t i = 0; i < obs.spans().size(); ++i) {
    const obs::SpanEvent& s = obs.spans().at(i);
    if (s.kind == obs::SpanKind::SimStep) {
      step_events += s.a;
      last_step = &s;
    } else if (s.kind == obs::SpanKind::EventFired) {
      last_fired = &s;
    }
  }
  ASSERT_NE(last_step, nullptr);
  ASSERT_NE(last_fired, nullptr);
  EXPECT_EQ(step_events,
            obs.metrics().counter_value("sim.events.executed"));
  EXPECT_EQ(last_step->t0, last_fired->t0);
  EXPECT_EQ(last_step->t1, std::max(cfg.duration_s, last_step->t0));
}

// FNV-1a over every CoexistenceMetrics field in declaration order: counts
// by value, doubles by their bits, so any change to any output shows.
std::uint64_t metrics_digest(const CoexistenceMetrics& m) {
  Fnv1a h;
  h.mix(m.frames_generated);
  h.mix(m.frames_delivered);
  h.mix(m.frames_expired);
  h.mix(m.frames_collided);
  h.mix(m.frames_suppressed);
  h.mix(m.frames_faulted);
  h.mix_bits(m.mean_latency_s);
  h.mix(m.wlan_offered);
  h.mix(m.wlan_attempts);
  h.mix(m.wlan_delivered);
  h.mix(m.wlan_corrupted);
  h.mix_bits(m.wlan_goodput_bps);
  h.mix_bits(m.utilization);
  h.mix_bits(m.dummy_airtime_fraction);
  return h.value();
}

// The same over the channel occupancy log, which utilization and the
// CoexistenceProps audits read.  A medium is mixed as its index:
// WLAN 0, dummy 1, backscatter 2.
std::uint64_t log_digest(const mac::Channel& ch) {
  Fnv1a h;
  for (const mac::Transmission& t : ch.log()) {
    h.mix_bits(t.start);
    h.mix_bits(t.end);
    h.mix(t.source);
    h.mix(static_cast<std::uint64_t>(t.kind));
  }
  return h.value();
}

CoexistenceConfig pinned_config(MacMode mode, double wlan_rate_hz,
                                std::size_t devices, double period_s,
                                double duration_s) {
  CoexistenceConfig cfg;
  cfg.mode = mode;
  cfg.wlan_rate_hz = wlan_rate_hz;
  cfg.num_devices = devices;
  cfg.device_period_s = period_s;
  cfg.duration_s = duration_s;
  return cfg;
}

TEST(CoexistencePinned, OutputsMatchRecordedDigests) {
  // The fleet's E6 cell (fleet/templates.cpp).
  CoexistenceSimulator e6(pinned_config(MacMode::Proposed, 25.0, 64, 1.0, 1.0));
  EXPECT_EQ(metrics_digest(e6.run()), 15933542707376365203ULL);
  EXPECT_EQ(log_digest(e6.channel()), 1906731342311209426ULL);

  // Sparse WLAN and short cycles: most grants ride dummy carriers.
  CoexistenceSimulator dummies(
      pinned_config(MacMode::Proposed, 2.0, 8, 0.5, 20.0));
  const auto m_dummies = dummies.run();
  EXPECT_GT(m_dummies.dummy_airtime_fraction, 0.0);
  EXPECT_EQ(metrics_digest(m_dummies), 11849213280045398913ULL);
  EXPECT_EQ(log_digest(dummies.channel()), 8208912037774487271ULL);

  // Short WLAN frames: a backscatter frame outlasts the packet it rides,
  // so every grant on a WLAN carrier needs a dummy tail.
  auto tails_cfg = pinned_config(MacMode::Proposed, 50.0, 8, 1.0, 10.0);
  tails_cfg.wlan_payload_bytes = 200;
  CoexistenceSimulator tails(tails_cfg);
  EXPECT_EQ(metrics_digest(tails.run()), 11385027749036616355ULL);
  EXPECT_EQ(log_digest(tails.channel()), 3163175512138465321ULL);

  CoexistenceSimulator naive(pinned_config(MacMode::Naive, 50.0, 8, 1.0, 20.0));
  const auto m_naive = naive.run();
  EXPECT_GT(m_naive.frames_collided, 0u);
  EXPECT_EQ(metrics_digest(m_naive), 12954953533993749088ULL);
  EXPECT_EQ(log_digest(naive.channel()), 17698981325379392980ULL);

  // Deaths, drops and corrupts from a generated plan.
  fault::FaultSpec spec;
  spec.horizon_s = 15.0;
  spec.num_targets = 8;
  spec.node_death_rate = 4.0;
  spec.mean_downtime_s = 2.0;
  spec.drop_rate = 3.0;
  spec.drop_window_s = 2.0;
  spec.corrupt_rate = 3.0;
  spec.corrupt_window_s = 2.0;
  spec.seed = 5;
  fault::FaultInjector inj(fault::generate_plan(spec), /*seed=*/3);
  CoexistenceSimulator faulted(
      pinned_config(MacMode::Proposed, 30.0, 8, 1.0, 15.0));
  faulted.set_fault_injector(&inj);
  const auto m_faulted = faulted.run();
  EXPECT_GT(m_faulted.frames_suppressed, 0u);
  EXPECT_GT(m_faulted.frames_faulted, 0u);
  EXPECT_EQ(metrics_digest(m_faulted), 15931814259566990227ULL);
  EXPECT_EQ(log_digest(faulted.channel()), 6906321090777006539ULL);
}

// Property sweep: delivery ratio stays within [0,1] and counters stay
// consistent across a grid of loads and fleet sizes, both modes.
struct CoexParam {
  MacMode mode;
  double rate;
  std::size_t devices;
};

class CoexistenceSweep : public ::testing::TestWithParam<CoexParam> {};

TEST_P(CoexistenceSweep, InvariantsHold) {
  const auto p = GetParam();
  CoexistenceConfig cfg;
  cfg.mode = p.mode;
  cfg.duration_s = 15.0;
  cfg.wlan_rate_hz = p.rate;
  cfg.num_devices = p.devices;
  cfg.seed = 1234;
  const auto m = CoexistenceSimulator(cfg).run();
  EXPECT_GE(m.delivery_ratio(), 0.0);
  EXPECT_LE(m.delivery_ratio(), 1.0);
  EXPECT_GE(m.utilization, 0.0);
  EXPECT_LE(m.utilization, 1.0 + 1e-9);
  EXPECT_LE(m.frames_delivered, m.frames_generated);
  EXPECT_GE(m.mean_latency_s, 0.0);
}

// gtest names each case by the bytes of its CoexParam, padding included.
// A static array has its padding zero-initialised, so the names stay the
// same from build to build; temporaries would carry stack garbage there.
constexpr CoexParam kCoexGrid[] = {
    {MacMode::Proposed, 2.0, 2}, {MacMode::Proposed, 50.0, 8},
    {MacMode::Proposed, 500.0, 16}, {MacMode::Naive, 2.0, 2},
    {MacMode::Naive, 50.0, 8}, {MacMode::Naive, 500.0, 16}};

INSTANTIATE_TEST_SUITE_P(Grid, CoexistenceSweep,
                         ::testing::ValuesIn(kCoexGrid));

}  // namespace
}  // namespace zeiot::backscatter
