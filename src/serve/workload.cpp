#include "serve/workload.hpp"

#include <cmath>

#include "common/error.hpp"

namespace zeiot::serve {

namespace {

/// rate(t) = mean * (1 + amplitude * sin(2 pi t / period)), floored at
/// (1 - amplitude); amplitude in [0, 1).
constexpr double kDiurnalAmplitude = 0.6;
constexpr double kDiurnalPeriodS = 0.5;
/// Burst state: entered with kBurstProb per arrival, lasting ~kBurstLen
/// arrivals, multiplying the rate by kBurstSpeedup.
constexpr double kBurstProb = 0.004;
constexpr int kBurstLen = 64;
constexpr double kBurstSpeedup = 6.0;

}  // namespace

std::vector<Request> generate_workload(const WorkloadConfig& cfg,
                                       const RouteSet& routes) {
  double mix_total = 0.0;
  for (const double w : cfg.route_mix) {
    ZEIOT_CHECK_MSG(w >= 0.0, "route mix weights must be >= 0");
    mix_total += w;
  }
  ZEIOT_CHECK_MSG(mix_total > 0.0, "route mix must have positive mass");

  Rng rng(cfg.seed);
  std::vector<Request> out;
  out.reserve(cfg.num_requests);
  double t = 0.0;
  int burst_left = 0;
  for (std::size_t i = 0; i < cfg.num_requests; ++i) {
    // Instantaneous rate at the current time: diurnal sinusoid, scaled up
    // while a burst is active.
    double rate =
        kMeanRatePerS *
        (1.0 + kDiurnalAmplitude *
                   std::sin(2.0 * M_PI * t / kDiurnalPeriodS));
    if (burst_left > 0) {
      rate *= kBurstSpeedup;
      --burst_left;
    } else if (rng.uniform() < kBurstProb) {
      burst_left = kBurstLen;
    }
    t += rng.exponential(rate);

    // Route from the mix, payload uniform over the route's pool/variants.
    const double pickv = rng.uniform() * mix_total;
    double acc = 0.0;
    std::size_t ri = kNumRoutes - 1;
    for (std::size_t r = 0; r < kNumRoutes; ++r) {
      acc += cfg.route_mix[r];
      if (pickv < acc) {
        ri = r;
        break;
      }
    }
    const Route route = static_cast<Route>(ri);

    Request req;
    req.id = i;
    req.route = route;
    req.arrival_s = t;
    req.sample = static_cast<std::uint32_t>(rng.uniform_int(
        0, static_cast<std::int64_t>(routes.pool_size(route)) - 1));
    if (routes.uses_plans(route)) {
      req.variant = static_cast<std::uint32_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(routes.num_variants(route)) - 1));
    }
    out.push_back(req);
  }
  return out;
}

}  // namespace zeiot::serve
