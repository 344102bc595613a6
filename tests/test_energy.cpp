#include <gtest/gtest.h>

#include <memory>

#include "energy/device.hpp"
#include "energy/harvester.hpp"
#include "energy/storage.hpp"

namespace zeiot::energy {
namespace {

TEST(ConstantHarvester, ConstantOutput) {
  ConstantHarvester h(1e-5);
  EXPECT_DOUBLE_EQ(h.power_watt(0.0), 1e-5);
  EXPECT_DOUBLE_EQ(h.power_watt(1000.0), 1e-5);
  EXPECT_THROW(ConstantHarvester(-1.0), Error);
}

TEST(SolarHarvester, ZeroAtNightPositiveAtNoon) {
  SolarHarvester h(1e-3, Rng(1), 0.0);
  EXPECT_DOUBLE_EQ(h.power_watt(0.0), 0.0);            // midnight
  EXPECT_NEAR(h.power_watt(43200.0), 1e-3, 1e-5);      // noon: peak
  EXPECT_DOUBLE_EQ(h.power_watt(80000.0), 0.0);        // late night
}

TEST(SolarHarvester, NoiseNeverNegative) {
  SolarHarvester h(1e-3, Rng(2), 0.5);
  for (int i = 0; i < 500; ++i) {
    EXPECT_GE(h.power_watt(43200.0), 0.0);
  }
}

TEST(Capacitor, EnergyVoltageRelation) {
  Capacitor c(100e-6, 5.0, 3.0);  // 100 uF charged to 3 V
  EXPECT_NEAR(c.energy_joule(), 0.5 * 100e-6 * 9.0, 1e-12);
  EXPECT_NEAR(c.voltage(), 3.0, 1e-9);
  EXPECT_NEAR(c.capacity_joule(), 0.5 * 100e-6 * 25.0, 1e-12);
}

TEST(Capacitor, ChargeClampsAtRail) {
  Capacitor c(100e-6, 5.0, 4.9);
  c.charge(1.0, 10.0);  // absurd charge
  EXPECT_NEAR(c.voltage(), 5.0, 1e-9);
}

TEST(Capacitor, DrawSucceedsAndFails) {
  Capacitor c(100e-6, 5.0, 3.0);
  const double e = c.energy_joule();
  EXPECT_TRUE(c.draw(e / 2.0));
  EXPECT_NEAR(c.energy_joule(), e / 2.0, 1e-15);
  EXPECT_FALSE(c.draw(e));  // more than remains
  EXPECT_NEAR(c.energy_joule(), e / 2.0, 1e-15);  // unchanged on failure
}

TEST(Capacitor, RejectsBadConstruction) {
  EXPECT_THROW(Capacitor(0.0, 5.0), Error);
  EXPECT_THROW(Capacitor(1e-6, 5.0, 6.0), Error);
}

TEST(Hysteresis, SwitchesWithHysteresis) {
  HysteresisSwitch sw(3.0, 2.0);
  EXPECT_FALSE(sw.update(2.5));  // below v_on: stays off
  EXPECT_TRUE(sw.update(3.1));   // crosses v_on
  EXPECT_TRUE(sw.update(2.5));   // between thresholds: stays on
  EXPECT_FALSE(sw.update(1.9));  // below v_off
  EXPECT_FALSE(sw.update(2.5));  // between thresholds: stays off
  EXPECT_THROW(HysteresisSwitch(2.0, 2.0), Error);
}

TEST(EnergyLedger, Accumulates) {
  EnergyLedger l;
  l.record("tx", 1e-6);
  l.record("tx", 2e-6);
  l.record("sense", 5e-7);
  EXPECT_NEAR(l.of("tx"), 3e-6, 1e-15);
  EXPECT_NEAR(l.total_joule(), 3.5e-6, 1e-15);
  EXPECT_DOUBLE_EQ(l.of("unknown"), 0.0);
  EXPECT_THROW(l.record("x", -1.0), Error);
}

IntermittentDevice make_device(double harvest_watt, double v_init = 0.0) {
  return IntermittentDevice(
      std::make_unique<ConstantHarvester>(harvest_watt),
      Capacitor(100e-6, 5.0, v_init), HysteresisSwitch(3.0, 2.0));
}

TEST(IntermittentDevice, BootsWhenCharged) {
  auto dev = make_device(1e-3);
  EXPECT_FALSE(dev.is_on());
  dev.advance(5.0);  // 1 mW for 5 s >> capacitor capacity
  EXPECT_TRUE(dev.is_on());
  EXPECT_EQ(dev.boot_count(), 1u);
}

TEST(IntermittentDevice, StaysOffWithoutEnergy) {
  auto dev = make_device(0.0);
  dev.advance(100.0);
  EXPECT_FALSE(dev.is_on());
  EXPECT_FALSE(dev.try_sense(0.001));
}

TEST(IntermittentDevice, ActivitiesDebitLedger) {
  auto dev = make_device(1e-3, 4.0);
  dev.advance(0.1);
  ASSERT_TRUE(dev.is_on());
  EXPECT_TRUE(dev.try_backscatter(0.01));
  EXPECT_GT(dev.ledger().of("backscatter_tx"), 0.0);
  EXPECT_NEAR(dev.ledger().of("backscatter_tx"),
              dev.costs().backscatter_tx_watt * 0.01, 1e-12);
}

TEST(IntermittentDevice, BackscatterCheaperThanActiveTx) {
  auto dev = make_device(1e-3, 4.5);
  dev.advance(0.1);
  ASSERT_TRUE(dev.is_on());
  ASSERT_TRUE(dev.try_backscatter(0.01));
  ASSERT_TRUE(dev.try_active_tx(0.01));
  const double ratio =
      dev.ledger().of("active_tx") / dev.ledger().of("backscatter_tx");
  // Paper: backscatter cuts communication energy to ~1/10,000 of active
  // radio; with default costs the ratio is 5000x.
  EXPECT_GT(ratio, 1000.0);
}

TEST(IntermittentDevice, LargeDrawFailsCleanly) {
  auto dev = make_device(1e-4, 3.5);
  dev.advance(0.1);
  ASSERT_TRUE(dev.is_on());
  // An hour of active radio is far beyond a 100 uF capacitor.
  EXPECT_FALSE(dev.try_active_tx(3600.0));
}

TEST(IntermittentDevice, RejectsTimeTravel) {
  auto dev = make_device(1e-3);
  dev.advance(1.0);
  EXPECT_THROW(dev.advance(0.5), Error);
}

TEST(IntermittentDevice, DutyCycleProducesReboots) {
  // Tiny harvest that barely sustains operation: heavy spending causes
  // brownouts and re-boots.
  IntermittentDevice dev(std::make_unique<ConstantHarvester>(2e-4),
                         Capacitor(20e-6, 5.0, 0.0),
                         HysteresisSwitch(4.0, 2.5));
  std::size_t attempts = 0;
  for (int i = 1; i <= 2000; ++i) {
    dev.advance(i * 0.05);
    if (dev.is_on()) {
      ++attempts;
      dev.try_spend("burst", 5e-3, 0.02);
    }
  }
  EXPECT_GT(dev.boot_count(), 1u);
  EXPECT_GT(attempts, 0u);
}

}  // namespace
}  // namespace zeiot::energy
