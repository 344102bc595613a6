#include "energy/harvester.hpp"

#include <algorithm>
#include <cmath>

namespace zeiot::energy {

ConstantHarvester::ConstantHarvester(double watts) : watts_(watts) {
  ZEIOT_CHECK_MSG(watts >= 0.0, "harvested power must be >= 0");
}

SolarHarvester::SolarHarvester(double peak_watts, Rng rng, double noise_sigma)
    : peak_watts_(peak_watts), rng_(rng), noise_sigma_(noise_sigma) {
  ZEIOT_CHECK_MSG(peak_watts >= 0.0, "power must be >= 0");
  ZEIOT_CHECK_MSG(noise_sigma >= 0.0, "noise sigma must be >= 0");
}

double SolarHarvester::power_watt(double t_seconds) {
  // Day phase in [0,1); daylight from 0.25 to 0.75 of the cycle.
  constexpr double kDay = 86'400.0;
  const double phase = std::fmod(t_seconds, kDay) / kDay;
  if (phase < 0.25 || phase > 0.75) return 0.0;
  const double sun = std::sin((phase - 0.25) / 0.5 * M_PI);
  const double noise = std::max(0.0, 1.0 + rng_.normal(0.0, noise_sigma_));
  return peak_watts_ * sun * noise;
}

}  // namespace zeiot::energy
