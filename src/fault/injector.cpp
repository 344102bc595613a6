#include "fault/injector.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace zeiot::fault {

FaultInjector::FaultInjector(FaultPlan plan, std::uint64_t seed)
    : plan_(std::move(plan)),
      rng_(seed ^ plan_.digest()),
      injected_(kNumFaultTypes, 0) {}

void FaultInjector::set_observability(obs::Observability* obs) {
  obs_ = obs;
  if (obs_ != nullptr) {
    obs_->metrics().gauge("fault.plan.events")
        .set(static_cast<double>(plan_.size()));
  }
}

bool FaultInjector::matches(const FaultEvent& e, std::uint32_t a,
                            std::uint32_t b) const {
  return e.target == kAllTargets || e.target == a || e.target == b;
}

bool FaultInjector::node_dead(double t, std::uint32_t node) const {
  // Events are time-sorted; the last death/revival affecting `node` at or
  // before `t` decides.  Plans are small (tens to hundreds of events), so
  // the linear scan is cheaper than maintaining per-node timelines.
  bool dead = false;
  for (const FaultEvent& e : plan_.events()) {
    if (e.t > t) break;
    if (e.target != node && e.target != kAllTargets) continue;
    if (e.type == FaultType::NodeDeath) {
      dead = true;
    } else if (e.type == FaultType::NodeRevival) {
      dead = false;
    }
  }
  return dead;
}

std::vector<bool> FaultInjector::dead_mask(double t,
                                           std::size_t num_nodes) const {
  std::vector<bool> mask(num_nodes, false);
  for (const FaultEvent& e : plan_.events()) {
    if (e.t > t) break;
    if (e.type != FaultType::NodeDeath && e.type != FaultType::NodeRevival) {
      continue;
    }
    const bool dead = e.type == FaultType::NodeDeath;
    if (e.target == kAllTargets) {
      mask.assign(num_nodes, dead);
    } else if (e.target < num_nodes) {
      mask[e.target] = dead;
    }
  }
  return mask;
}

bool FaultInjector::active_window(double t, FaultType type, std::uint32_t a,
                                  std::uint32_t b, double& magnitude) const {
  bool found = false;
  magnitude = 0.0;
  for (const FaultEvent& e : plan_.events()) {
    if (e.t > t) break;
    if (e.type != type || t >= e.t + e.duration_s) continue;
    if (!matches(e, a, b)) continue;
    magnitude = found ? std::max(magnitude, e.magnitude) : e.magnitude;
    found = true;
  }
  return found;
}

double FaultInjector::message_delay_s(double t, std::uint32_t src,
                                      std::uint32_t dst) {
  double delay;
  if (!active_window(t, FaultType::MessageDelay, src, dst, delay) ||
      delay <= 0.0) {
    return 0.0;
  }
  note_injection(t, FaultType::MessageDelay, src, delay);
  return delay;
}

bool FaultInjector::should_drop(double t, std::uint32_t src,
                                std::uint32_t dst) {
  double p;
  if (!active_window(t, FaultType::MessageDrop, src, dst, p)) return false;
  if (!rng_.bernoulli(std::clamp(p, 0.0, 1.0))) return false;
  note_injection(t, FaultType::MessageDrop, src, p);
  return true;
}

bool FaultInjector::should_corrupt(double t, std::uint32_t src,
                                   std::uint32_t dst) {
  double p;
  if (!active_window(t, FaultType::MessageCorrupt, src, dst, p)) return false;
  if (!rng_.bernoulli(std::clamp(p, 0.0, 1.0))) return false;
  note_injection(t, FaultType::MessageCorrupt, src, p);
  return true;
}

void FaultInjector::note_injection(double t, FaultType type,
                                   std::uint32_t target, double magnitude) {
  ++injected_[static_cast<std::size_t>(type)];
  if (obs_ != nullptr) {
    obs_->metrics()
        .counter("fault.injected", {{"type", fault_type_name(type)}})
        .inc();
    obs_->spans().instant(obs::SpanKind::FaultInjected, t, target,
                          static_cast<std::uint32_t>(type), magnitude);
  }
}

std::uint64_t FaultInjector::injected(FaultType type) const {
  return injected_[static_cast<std::size_t>(type)];
}

FaultDriver::FaultDriver(sim::Simulator& sim, FaultInjector& injector)
    : sim_(sim), injector_(injector) {}

void FaultDriver::arm() {
  for (const FaultEvent& e : injector_.plan().events()) {
    if (e.t < sim_.now()) continue;
    FaultInjector* inj = &injector_;
    sim_.schedule_at(e.t, [inj, e] {
      obs::Observability* obs = inj->observability();
      if (obs != nullptr) {
        obs->metrics()
            .counter("fault.transitions", {{"type", fault_type_name(e.type)}})
            .inc();
        obs->spans().instant(obs::SpanKind::FaultInjected, e.t, e.target,
                             static_cast<std::uint32_t>(e.type), e.magnitude);
      }
    });
  }
}

}  // namespace zeiot::fault
