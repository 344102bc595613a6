#include "obs/sim_probe.hpp"

namespace zeiot::obs {

SimulatorProbe::SimulatorProbe(Observability& obs)
    : obs_(obs),
      scheduled_(obs.metrics().counter("sim.events.scheduled")),
      executed_(obs.metrics().counter("sim.events.executed")),
      queue_depth_(obs.metrics().gauge("sim.queue.depth")) {}

void SimulatorProbe::on_scheduled(sim::Time t, std::uint64_t id) {
  scheduled_.inc();
  obs_.spans().instant(SpanKind::EventScheduled, t,
                       static_cast<std::uint32_t>(id));
}

void SimulatorProbe::on_executed(sim::Time t, std::uint64_t id,
                                 std::size_t queue_depth) {
  executed_.inc();
  queue_depth_.set(static_cast<double>(queue_depth));
  if (obs_.spans_enabled()) {
    obs_.spans().instant(SpanKind::EventFired, t,
                         static_cast<std::uint32_t>(id));
    if (step_open_ && t == step_t_) {
      ++step_events_;
    } else {
      flush_steps(t);
      step_t_ = t;
      step_events_ = 1;
      step_open_ = true;
    }
  }
}

void SimulatorProbe::flush_steps(double t_end) {
  if (!step_open_ || !obs_.spans_enabled()) return;
  obs_.spans().add(SpanKind::SimStep, step_t_, std::max(t_end, step_t_),
                   /*parent=*/0, /*trace_id=*/0, step_events_, 0, 0.0);
  step_open_ = false;
  step_events_ = 0;
}

}  // namespace zeiot::obs
