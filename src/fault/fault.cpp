#include "fault/fault.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/hash.hpp"

namespace zeiot::fault {

const char* fault_type_name(FaultType type) {
  switch (type) {
    case FaultType::NodeDeath: return "node_death";
    case FaultType::NodeRevival: return "node_revival";
    case FaultType::MessageDrop: return "message_drop";
    case FaultType::MessageCorrupt: return "message_corrupt";
    case FaultType::MessageDelay: return "message_delay";
    case FaultType::Brownout: return "brownout";
    case FaultType::HarvestDrought: return "harvest_drought";
  }
  return "unknown";
}

FaultPlan::FaultPlan(std::vector<FaultEvent> events)
    : events_(std::move(events)) {
  for (const FaultEvent& e : events_) {
    ZEIOT_CHECK_MSG(std::isfinite(e.t) && std::isfinite(e.duration_s) &&
                        std::isfinite(e.magnitude),
                    "fault event fields must be finite");
    ZEIOT_CHECK_MSG(e.duration_s >= 0.0, "fault duration must be >= 0");
  }
  std::sort(events_.begin(), events_.end(),
            [](const FaultEvent& a, const FaultEvent& b) {
              if (a.t != b.t) return a.t < b.t;
              if (a.type != b.type) return a.type < b.type;
              return a.target < b.target;
            });
}

std::size_t FaultPlan::count(FaultType type) const {
  std::size_t n = 0;
  for (const FaultEvent& e : events_) {
    if (e.type == type) ++n;
  }
  return n;
}

std::uint64_t FaultPlan::digest() const {
  Fnv1a h;
  for (const FaultEvent& e : events_) {
    h.mix_bits(e.t);
    h.mix(static_cast<std::uint64_t>(e.type));
    h.mix(e.target);
    h.mix_bits(e.duration_s);
    h.mix_bits(e.magnitude);
  }
  return h.value();
}

namespace {

/// Substream ids, one per fault class, so rates are independent knobs.
enum : std::uint64_t {
  kStreamDeath = 1,
  kStreamDrop,
  kStreamCorrupt,
};

void generate_windows(Rng rng, const FaultSpec& spec, double rate,
                      FaultType type, double window_s, double magnitude,
                      std::vector<FaultEvent>& out) {
  if (rate <= 0.0 || spec.intensity <= 0.0) return;
  const int n = rng.poisson(rate * spec.intensity);
  for (int i = 0; i < n; ++i) {
    FaultEvent e;
    e.t = rng.uniform(0.0, spec.horizon_s);
    e.type = type;
    e.target = spec.num_targets == 0
                   ? kAllTargets
                   : static_cast<std::uint32_t>(rng.uniform_int(
                         0, static_cast<std::int64_t>(spec.num_targets) - 1));
    e.duration_s = window_s;
    e.magnitude = magnitude;
    out.push_back(e);
  }
}

}  // namespace

FaultPlan generate_plan(const FaultSpec& spec) {
  ZEIOT_CHECK_MSG(spec.horizon_s > 0.0, "fault horizon must be > 0");
  ZEIOT_CHECK_MSG(spec.intensity >= 0.0, "fault intensity must be >= 0");
  Rng root(spec.seed);
  // Split every class substream up front (split() advances the parent), so
  // each class's schedule depends only on the seed, never on which other
  // rates are zero.
  Rng death_rng = root.split(kStreamDeath);
  Rng drop_rng = root.split(kStreamDrop);
  Rng corrupt_rng = root.split(kStreamCorrupt);
  std::vector<FaultEvent> events;

  // Node deaths (paired with revivals when downtime is finite).
  if (spec.node_death_rate > 0.0 && spec.intensity > 0.0) {
    Rng& rng = death_rng;
    const int n = rng.poisson(spec.node_death_rate * spec.intensity);
    for (int i = 0; i < n; ++i) {
      FaultEvent death;
      death.t = rng.uniform(0.0, spec.horizon_s);
      death.type = FaultType::NodeDeath;
      death.target = spec.num_targets == 0
                         ? kAllTargets
                         : static_cast<std::uint32_t>(rng.uniform_int(
                               0,
                               static_cast<std::int64_t>(spec.num_targets) - 1));
      death.duration_s = 0.0;
      events.push_back(death);
      if (spec.mean_downtime_s > 0.0) {
        const double revive_at =
            death.t + rng.exponential(1.0 / spec.mean_downtime_s);
        if (revive_at < spec.horizon_s) {
          FaultEvent revive = death;
          revive.t = revive_at;
          revive.type = FaultType::NodeRevival;
          events.push_back(revive);
        }
      }
    }
  }

  generate_windows(drop_rng, spec, spec.drop_rate, FaultType::MessageDrop,
                   spec.drop_window_s, spec.drop_probability, events);
  generate_windows(corrupt_rng, spec, spec.corrupt_rate,
                   FaultType::MessageCorrupt, spec.corrupt_window_s,
                   spec.corrupt_probability, events);

  return FaultPlan(std::move(events));
}

}  // namespace zeiot::fault
