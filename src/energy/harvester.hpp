// Energy harvester models for zero-energy IoT devices (Sec. III.A of the
// paper names RF, solar/light, vibration and heat; modelled here are a
// constant RF carrier and indoor light).
//
// A harvester reports the instantaneous harvested power (watts) at a given
// time.  Stochastic harvesters own an Rng substream so two devices with the
// same parameters still see independent environments.
#pragma once

#include "common/rng.hpp"

namespace zeiot::energy {

/// Interface: harvested electrical power (W, >= 0) at simulation time `t`.
class Harvester {
 public:
  virtual ~Harvester() = default;
  virtual double power_watt(double t_seconds) = 0;
};

/// Constant-power source (e.g. dedicated RF carrier at fixed distance).
class ConstantHarvester final : public Harvester {
 public:
  explicit ConstantHarvester(double watts);
  double power_watt(double) override { return watts_; }

 private:
  double watts_;
};

/// Indoor light harvesting with a diurnal profile: peak at `peak_watts`
/// mid-day, zero at night, plus multiplicative noise (clouds, occlusion).
class SolarHarvester final : public Harvester {
 public:
  SolarHarvester(double peak_watts, Rng rng, double noise_sigma = 0.1);
  double power_watt(double t_seconds) override;

 private:
  double peak_watts_;
  Rng rng_;
  double noise_sigma_;
};

}  // namespace zeiot::energy
