#include "sensing/rfid/trajectory.hpp"

#include <cmath>
#include <limits>

#include "common/error.hpp"
#include "common/units.hpp"

namespace zeiot::sensing::rfid {

namespace {

double wrapped_phase(double distance_m, double lambda, double noise) {
  double ph = std::fmod(4.0 * M_PI * distance_m / lambda + noise, 2.0 * M_PI);
  if (ph < 0.0) ph += 2.0 * M_PI;
  return ph;
}

}  // namespace

PhaseTrack simulate_track(const TrajectoryConfig& cfg, Point2D start,
                          Point2D velocity, double duration_s, Rng& rng) {
  ZEIOT_CHECK_MSG(duration_s > 0.0, "duration must be > 0");
  ZEIOT_CHECK_MSG(cfg.sample_rate_hz > 0.0, "sample rate must be > 0");
  const double lambda = wavelength_m(cfg.carrier_hz);
  const double dt = 1.0 / cfg.sample_rate_hz;
  PhaseTrack tr;
  for (double t = 0.0; t <= duration_s; t += dt) {
    const Point2D p = start + velocity * t;
    tr.t_s.push_back(t);
    const double da = distance(p, cfg.antenna_a);
    const double db = distance(p, cfg.antenna_b);
    tr.phase_a_rad.push_back(
        da <= cfg.read_range_m
            ? wrapped_phase(da, lambda, rng.normal(0.0, cfg.phase_noise_rad))
            : std::numeric_limits<double>::quiet_NaN());
    tr.phase_b_rad.push_back(
        db <= cfg.read_range_m
            ? wrapped_phase(db, lambda, rng.normal(0.0, cfg.phase_noise_rad))
            : std::numeric_limits<double>::quiet_NaN());
  }
  return tr;
}

std::vector<double> unwrap_phase(const std::vector<double>& wrapped) {
  std::vector<double> out(wrapped.size(),
                          std::numeric_limits<double>::quiet_NaN());
  double offset = 0.0;
  double prev = std::numeric_limits<double>::quiet_NaN();
  for (std::size_t i = 0; i < wrapped.size(); ++i) {
    if (std::isnan(wrapped[i])) continue;
    if (!std::isnan(prev)) {
      double delta = wrapped[i] - prev;
      while (delta > M_PI) {
        delta -= 2.0 * M_PI;
        offset -= 2.0 * M_PI;
      }
      while (delta < -M_PI) {
        delta += 2.0 * M_PI;
        offset += 2.0 * M_PI;
      }
    }
    out[i] = wrapped[i] + offset;
    prev = wrapped[i];
  }
  return out;
}

namespace {

/// Index of minimal unwrapped phase (closest approach), if it is an
/// interior minimum.
std::optional<std::size_t> interior_minimum(const std::vector<double>& u) {
  std::optional<std::size_t> best;
  double best_v = std::numeric_limits<double>::infinity();
  std::size_t first_valid = u.size(), last_valid = 0;
  for (std::size_t i = 0; i < u.size(); ++i) {
    if (std::isnan(u[i])) continue;
    if (first_valid == u.size()) first_valid = i;
    last_valid = i;
    if (u[i] < best_v) {
      best_v = u[i];
      best = i;
    }
  }
  if (!best.has_value()) return std::nullopt;
  // Reject minima at the track edges: the pass was not captured.
  if (*best == first_valid || *best == last_valid) return std::nullopt;
  return best;
}

}  // namespace

CrossingEvent detect_crossing(const TrajectoryConfig& cfg,
                              const PhaseTrack& track) {
  CrossingEvent ev;
  const auto ua = unwrap_phase(track.phase_a_rad);
  const auto ub = unwrap_phase(track.phase_b_rad);
  const auto min_a = interior_minimum(ua);
  const auto min_b = interior_minimum(ub);
  if (!min_a.has_value() || !min_b.has_value()) return ev;  // no crossing
  if (*min_a == *min_b) return ev;  // degenerate (stationary near both)

  ev.direction = *min_a < *min_b ? CrossingDirection::Inward
                                 : CrossingDirection::Outward;
  // Ground speed: antennas are `gap` apart along the travel axis; the two
  // closest approaches are separated by gap / speed seconds.
  const double gap = distance(cfg.antenna_a, cfg.antenna_b);
  const double dt = std::abs(track.t_s[*min_b] - track.t_s[*min_a]);
  if (dt > 1e-9) ev.speed_mps = gap / dt;
  return ev;
}

}  // namespace zeiot::sensing::rfid
