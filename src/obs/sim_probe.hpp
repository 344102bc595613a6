// Adapter from the simulator kernel's observer interface onto the
// observability layer.
//
// Attach with:
//   obs::Observability obs;
//   obs::SimulatorProbe probe(obs);
//   sim.set_observer(&probe);
//
// Emitted metrics:
//   sim.events.scheduled / sim.events.executed (counters)
//   sim.queue.depth            (gauge, peak via max_seen)
// When the Observability context has spans enabled, the probe records
// EventScheduled / EventFired instant spans with a = low 32 bits of the
// event sequence id, and one SimStep span per distinct virtual timestamp:
// all events executed at time t collapse into a span [t, t_next) with a =
// the number of events in the step.  The probe reads no clock, so two
// same-seed runs produce identical metrics and records.  The probe's
// owner calls flush_steps() after sim.run() to close the final step.
#pragma once

#include "obs/obs.hpp"
#include "sim/simulator.hpp"

namespace zeiot::obs {

class SimulatorProbe final : public sim::SimObserver {
 public:
  explicit SimulatorProbe(Observability& obs);

  void on_scheduled(sim::Time t, std::uint64_t id) override;
  void on_executed(sim::Time t, std::uint64_t id,
                   std::size_t queue_depth) override;

  /// Closes the trailing SimStep span at `t_end` (>= the last executed
  /// timestamp).  No-op when spans are disabled or nothing executed.
  void flush_steps(double t_end);

 private:
  Observability& obs_;
  // Handles resolved once so the per-event path is increment-only.
  Counter& scheduled_;
  Counter& executed_;
  Gauge& queue_depth_;
  // SimStep batching state (only advanced when spans are enabled).
  double step_t_ = 0.0;
  std::uint32_t step_events_ = 0;
  bool step_open_ = false;
};

}  // namespace zeiot::obs
