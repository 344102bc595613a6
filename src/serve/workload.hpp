// Open-loop workload synthesis for the serving front-end: a Poisson
// arrival process modulated two ways —
//
//  * diurnal: the instantaneous rate follows a sinusoid around the mean
//    (the day/night swing of a deployed building's request traffic);
//  * bursty: a Markov-modulated on/off burst state multiplies the rate
//    while active (a fleet of sensors phase-locking after an event).
//
// Requests draw their route from a fixed mix and their payload uniformly
// from the route's request pool (the fixed-seed datagen sample pools of
// routes.hpp) — the serving tier sees the same synthetic distributions the
// experiment benches generate, just behind an arrival process.  The whole
// stream is a pure function of (config, pool sizes): deterministic,
// sorted by arrival, ids dense.
#pragma once

#include <array>
#include <vector>

#include "serve/serve.hpp"

namespace zeiot::serve {

/// Mean arrival rate of the unmodulated process.
inline constexpr double kMeanRatePerS = 120000.0;

struct WorkloadConfig {
  std::size_t num_requests = 20000;
  /// Route mix (normalized internally).  Defaults favour the cheap
  /// NB routes, with the CNN and kNN routes as a costly minority.
  std::array<double, kNumRoutes> route_mix{0.04, 0.04, 0.24, 0.58, 0.10};
  std::uint64_t seed = 7;
};

/// Synthesizes the arrival stream against `routes` (pool sizes and variant
/// counts bound the per-request draws).  The rate modulation is fixed: a
/// diurnal amplitude of 0.6 over a 0.5 s period, and bursts entered with
/// probability 0.004 per arrival that last ~64 arrivals at 6x the rate.
std::vector<Request> generate_workload(const WorkloadConfig& cfg,
                                       const RouteSet& routes);

}  // namespace zeiot::serve
