// Runtime side of fault injection: components query a `FaultInjector` at
// their decision points exactly the way they emit into `obs::Observability`
// — through a nullable pointer defaulting to nullptr, so un-faulted runs
// pay one pointer test per site and stay at seed speed.
//
// State queries (node_dead, dead_mask, message_delay_s) are pure
// functions of the plan and can be asked at any time, in any order.
// Probabilistic queries (should_drop / should_corrupt) consume the
// injector's own SplitMix-seeded substream in call order; since every
// zeiot simulation is single-threaded and deterministic, a fixed (plan,
// seed) pair reproduces the identical fault realization run after run.
// Every applied fault is counted in the metrics registry and recorded as a
// FaultInjected instant span, so a failure is replayable from one seed.
#pragma once

#include <cstdint>
#include <vector>

#include "fault/fault.hpp"
#include "obs/obs.hpp"
#include "sim/simulator.hpp"

namespace zeiot::fault {

/// Pseudo-target for infrastructure traffic (the WLAN side of the
/// coexistence model) so plans can fault it independently of device ids.
inline constexpr std::uint32_t kInfrastructure = 0xfffffffeu;

class FaultInjector {
 public:
  /// `seed` drives the probabilistic window draws; the plan's digest is
  /// mixed in so distinct plans decorrelate even under the default seed.
  explicit FaultInjector(FaultPlan plan, std::uint64_t seed = 0);

  /// Installs (or clears) the observability context.  Applied faults emit
  ///   fault.injected{type=...}   (counters)
  /// plus one FaultInjected instant span (a = target, b = fault type,
  /// value = magnitude) when the context records spans.
  void set_observability(obs::Observability* obs);
  obs::Observability* observability() const { return obs_; }

  const FaultPlan& plan() const { return plan_; }

  // -- State queries (pure w.r.t. the plan) --------------------------------

  /// True when `node` is inside a death..revival span at time `t`.
  bool node_dead(double t, std::uint32_t node) const;

  /// Dead flags for nodes [0, num_nodes) at time `t`.
  std::vector<bool> dead_mask(double t, std::size_t num_nodes) const;

  /// Largest active delay among MessageDelay windows matching either
  /// endpoint at `t`; 0 when none.  Records the injection when > 0.
  double message_delay_s(double t, std::uint32_t src, std::uint32_t dst);

  // -- Probabilistic queries (consume the injector RNG in call order) ------

  /// True when an active MessageDrop window matching either endpoint fires
  /// its Bernoulli(magnitude) draw.  No RNG is consumed outside windows.
  bool should_drop(double t, std::uint32_t src, std::uint32_t dst);

  /// Same contract for MessageCorrupt windows.
  bool should_corrupt(double t, std::uint32_t src, std::uint32_t dst);

  // -- Bookkeeping ---------------------------------------------------------

  /// Number of faults of `type` actually applied (dropped messages, delayed
  /// messages...; state queries such as node_dead do not count).
  std::uint64_t injected(FaultType type) const;

 private:
  /// Largest magnitude among active windows of `type` matching the target
  /// set; nullopt-style: returns false when no window is active.
  bool active_window(double t, FaultType type, std::uint32_t a,
                     std::uint32_t b, double& magnitude) const;
  bool matches(const FaultEvent& e, std::uint32_t a, std::uint32_t b) const;
  void note_injection(double t, FaultType type, std::uint32_t target,
                      double magnitude);

  FaultPlan plan_;
  Rng rng_;
  obs::Observability* obs_ = nullptr;
  std::vector<std::uint64_t> injected_;
};

/// Bridges a plan onto a discrete-event simulator: schedules one kernel
/// event per plan entry inside [0, horizon] so state transitions are
/// recorded at their exact simulation time (and so same-seed runs
/// interleave fault events identically with protocol events).  The
/// injector must outlive the simulator run.
class FaultDriver {
 public:
  FaultDriver(sim::Simulator& sim, FaultInjector& injector);

  /// Schedules the plan's events from the simulator's current time onward.
  /// Events in the past (t < sim.now()) are skipped.
  void arm();

 private:
  sim::Simulator& sim_;
  FaultInjector& injector_;
};

}  // namespace zeiot::fault
