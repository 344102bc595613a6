// Movement-direction and speed estimation of tagged objects from RFID
// backscatter phase (paper Sec. IV.C, ref [61]), and the boundary-crossing
// intrusion detector built on it (application context (iii): tracking
// trajectories and detecting intrusion of wild animals).
//
// Physics: as a tag moves, the backscatter phase at a reader antenna
// advances by 4*pi/lambda per metre of radial distance; the phase slope is
// therefore the radial velocity.  Two antennas spaced along a boundary
// disambiguate the direction of crossing: the tag approaches one antenna
// while receding from the other in a signature order.
#pragma once

#include <optional>
#include <vector>

#include "common/geometry.hpp"
#include "common/rng.hpp"

namespace zeiot::sensing::rfid {

/// Two reader antennas straddle the monitored boundary (the line x = 0)
/// at x = -0.6 and +0.6 m: the order in which the tag passes its closest
/// approach to each antenna reveals the crossing direction.  Both sample
/// the UHF RFID carrier's phase at 40 Hz and miss a tag more than 6 m
/// away (fixed in trajectory.cpp).

/// A time series of wrapped phase samples from both antennas.
struct PhaseTrack {
  std::vector<double> t_s;
  std::vector<double> phase_a_rad;  // NaN when missed
  std::vector<double> phase_b_rad;
};

/// Simulates a tag moving from `start` with constant `velocity` (m/s) for
/// `duration_s`.
PhaseTrack simulate_track(Point2D start, Point2D velocity, double duration_s,
                          Rng& rng);

/// Unwraps a wrapped phase series (ignores NaN gaps).
std::vector<double> unwrap_phase(const std::vector<double>& wrapped);

enum class CrossingDirection { None = 0, Inward, Outward };

struct CrossingEvent {
  CrossingDirection direction = CrossingDirection::None;
  double speed_mps = 0.0;  // estimated ground speed magnitude
};

/// Detects whether (and which way) a tag crossed the monitored boundary
/// during the track.  "Inward" = moving toward positive x.
CrossingEvent detect_crossing(const PhaseTrack& track);

}  // namespace zeiot::sensing::rfid
