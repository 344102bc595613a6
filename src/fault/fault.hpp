// Deterministic fault injection for zeiot experiments.
//
// The paper's robustness story (Secs. III, IV.A, IV.C / Fig. 10) treats
// unreliability as an *input* of every experiment: zero-energy nodes die
// and revive, backscatter frames are lost under WLAN contention, devices
// brown out mid-task, harvest sources dry up.  This module makes those
// failure schedules first-class: a `FaultPlan` is an explicit, sorted list
// of typed events, generated from a SplitMix-seeded `FaultSpec` or built
// event by event, so that a single seed reproduces the exact same fault
// trajectory run after run; the plan's digest is the replay handle.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.hpp"

namespace zeiot::fault {

/// Fault vocabulary shared by all injection points.
enum class FaultType : std::uint8_t {
  /// Point event: the target node/device stops operating at `t`.
  NodeDeath,
  /// Point event: the target node/device resumes operating at `t`.
  NodeRevival,
  /// Window: messages touching the target are lost with prob `magnitude`.
  MessageDrop,
  /// Window: messages touching the target are corrupted with prob
  /// `magnitude` (delivered but unusable / flagged bad).
  MessageCorrupt,
  /// Window: messages touching the target arrive `magnitude` seconds late.
  MessageDelay,
  /// Window: the target device's supply fails (forced OFF, paper Sec. III).
  Brownout,
  /// Window: the target's harvested power is scaled by `magnitude`
  /// (0 = complete drought).
  HarvestDrought,
};

inline constexpr std::size_t kNumFaultTypes = 7;

/// Stable lowercase name used in metric labels.
const char* fault_type_name(FaultType type);

/// Wildcard target: the fault applies to every node/device/station.
inline constexpr std::uint32_t kAllTargets = 0xffffffffu;

/// One scheduled fault.  `t` is in the time base of whatever component the
/// injector is wired into (seconds for event-driven simulations, slots for
/// the slotted CSMA model, abstract [0,1] for the MicroDeep chaos sweeps).
struct FaultEvent {
  double t = 0.0;
  FaultType type = FaultType::NodeDeath;
  std::uint32_t target = kAllTargets;
  /// Window length; 0 for the point events (NodeDeath / NodeRevival).
  double duration_s = 0.0;
  /// Type-dependent payload: probability (drop/corrupt), seconds (delay),
  /// power scale (drought); unused (1.0) for the others.
  double magnitude = 1.0;

  bool operator==(const FaultEvent&) const = default;
};

/// Generator spec: expected event counts over the horizon per fault class,
/// all scaled by `intensity` (the chaos-sweep knob).  Every class draws
/// from its own SplitMix-derived substream, so changing one rate never
/// shifts another class's schedule.  The generator draws node deaths and
/// revivals, drop windows and corrupt windows; delay, brownout and drought
/// events are built by hand (FaultPlan's constructor).
struct FaultSpec {
  double horizon_s = 60.0;
  /// Targets are drawn uniformly from [0, num_targets).
  std::uint32_t num_targets = 8;
  /// Global multiplier applied to every rate (0 = empty plan).
  double intensity = 1.0;

  /// Expected node deaths over the horizon (fleet-wide).
  double node_death_rate = 0.0;
  /// Mean death->revival delay (exponential); <= 0 means permanent death.
  double mean_downtime_s = 0.0;

  double drop_rate = 0.0;
  double drop_window_s = 5.0;
  double drop_probability = 0.5;

  double corrupt_rate = 0.0;
  double corrupt_window_s = 5.0;
  double corrupt_probability = 0.5;

  std::uint64_t seed = 1;
};

/// An immutable, time-sorted fault schedule.
class FaultPlan {
 public:
  FaultPlan() = default;
  /// Takes ownership of `events` and sorts them by (t, type, target).
  explicit FaultPlan(std::vector<FaultEvent> events);

  const std::vector<FaultEvent>& events() const { return events_; }
  std::size_t size() const { return events_.size(); }
  bool empty() const { return events_.empty(); }

  /// Number of events of one type (chaos-report bookkeeping).
  std::size_t count(FaultType type) const;

  /// FNV-1a digest over the canonical event encoding.  Two plans with the
  /// same digest injected into the same seeded experiment reproduce the
  /// same trajectory — the reproducibility handle the chaos benches assert.
  std::uint64_t digest() const;

 private:
  std::vector<FaultEvent> events_;
};

/// Generates a plan from the spec.  Deterministic: equal specs (including
/// seed) produce byte-identical plans.
FaultPlan generate_plan(const FaultSpec& spec);

}  // namespace zeiot::fault
