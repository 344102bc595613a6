// Discrete-event simulation kernel.
//
// All protocol simulations in the library (backscatter MAC coexistence,
// WSN data collection, energy harvesting) run on this kernel: a priority
// queue of timestamped callbacks with deterministic FIFO tie-breaking so a
// given seed always reproduces the same trajectory.
#pragma once

#include <cstdint>
#include <functional>
#include <queue>
#include <unordered_set>
#include <vector>

#include "common/error.hpp"

namespace zeiot::sim {

/// Simulation time in seconds.
using Time = double;

/// Opaque handle for cancelling a scheduled event.
class EventHandle {
 public:
  EventHandle() = default;

 private:
  friend class Simulator;
  explicit EventHandle(std::uint64_t id) : id_(id) {}
  std::uint64_t id_ = 0;  // 0 = null handle
};

/// A tie-break position among events at equal times, reserved by
/// Simulator::reserve(): the sequence id an event scheduled at that moment
/// would have taken.  Default-constructed positions are null (never
/// reserved).
class Position {
 public:
  Position() = default;

 private:
  friend class Simulator;
  explicit Position(std::uint64_t seq) : seq_(seq) {}
  std::uint64_t seq_ = 0;  // 0 = null position
};

/// Optional observer of simulator internals (scheduling, execution,
/// cancellation, queue depth, per-callback wall time).  The default
/// implementations are no-ops, so observers override only what they need.
/// `zeiot::obs::SimulatorProbe` adapts this interface onto the metrics /
/// tracing layer; with no observer installed the kernel pays only a null
/// pointer test per event.
class SimObserver {
 public:
  virtual ~SimObserver() = default;
  /// An event was scheduled for absolute time `t` with sequence id `id`.
  virtual void on_scheduled(Time t, std::uint64_t id) { (void)t; (void)id; }
  /// A live event was cancelled at simulation time `now`.
  virtual void on_cancelled(Time now, std::uint64_t id) {
    (void)now; (void)id;
  }
  /// An event's callback ran at simulation time `t`.  `queue_depth` is the
  /// number of events still pending after this one; `wall_s` is the host
  /// wall-clock duration of the callback.
  virtual void on_executed(Time t, std::uint64_t id, std::size_t queue_depth,
                           double wall_s) {
    (void)t; (void)id; (void)queue_depth; (void)wall_s;
  }
};

/// Event-driven simulator.  Not thread-safe; one instance per experiment.
class Simulator {
 public:
  using Callback = std::function<void()>;

  Simulator() = default;
  ~Simulator();
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulation time.  Starts at 0.
  Time now() const { return now_; }

  /// Schedules `cb` to run `delay` seconds from now (delay >= 0).
  EventHandle schedule(Time delay, Callback cb);

  /// Schedules `cb` at absolute time `t` (t >= now()).
  EventHandle schedule_at(Time t, Callback cb);

  // Position primitives.  Events run in (time, position) order, and each
  // ordinary schedule takes the next position in turn (the FIFO
  // tie-break).  These three let a caller keep many would-be events in a
  // queue of its own and put one of them on the heap at a time, while each
  // still runs exactly where it would have run had it been scheduled.

  /// Reserves the position the next schedule() or schedule_at() would get,
  /// without scheduling anything.  It consumes that position, so every
  /// later event's position is as if an event had been scheduled here.
  Position reserve() { return Position(next_seq_++); }

  /// Schedules `cb` at (t, pos): it runs exactly where an event scheduled
  /// for time t at the moment `pos` was reserved would have run.  Throws
  /// when `pos` is null or not yet handed out by this simulator, when it
  /// already holds a pending event, or when (t, pos) orders at or before
  /// the running event.
  EventHandle schedule_at(Time t, Position pos, Callback cb);

  /// True when a pending event orders strictly before (t, pos), i.e. would
  /// run before an event at (t, pos).  Cancelled events do not count.
  bool has_pending_before(Time t, Position pos);

  /// Cancels a previously scheduled event.  Returns false if the event
  /// already ran, was already cancelled, or the handle is null.
  bool cancel(EventHandle h);

  /// Runs events until the queue is empty or `limit` events have fired.
  /// Returns the number of events executed.
  std::size_t run(std::size_t limit = SIZE_MAX);

  /// Runs events with timestamp <= `t`, then advances the clock to `t`.
  std::size_t run_until(Time t);

  /// Number of events currently pending (scheduled, not yet run/cancelled).
  std::size_t pending() const { return live_ids_.size(); }

  /// Installs (or clears, with nullptr) the observer.  The observer must
  /// outlive the simulator or be cleared first; it is notified of every
  /// schedule/cancel/execute from the moment it is set.
  void set_observer(SimObserver* observer) { observer_ = observer; }
  SimObserver* observer() const { return observer_; }

  /// Installs (or clears, with {}) a hook run after each executed event's
  /// callback, at the event's timestamp.  This is the step-boundary seam
  /// the fault layer's InvariantChecker attaches to; install a wrapper that
  /// calls the previous hook to chain.  Null hook costs one test per event.
  void set_post_step_hook(std::function<void(Time)> hook) {
    post_step_hook_ = std::move(hook);
  }
  const std::function<void(Time)>& post_step_hook() const {
    return post_step_hook_;
  }

 private:
  struct Event {
    Time time;
    std::uint64_t seq;  // FIFO tie-break and cancellation id
    Callback cb;
    bool cancelled = false;
  };
  struct Order {
    bool operator()(const Event* a, const Event* b) const {
      if (a->time != b->time) return a->time > b->time;
      return a->seq > b->seq;
    }
  };

  EventHandle push(Time t, std::uint64_t seq, Callback cb);
  /// Pops the earliest event; returns true if its callback ran (false for
  /// lazily-cancelled events surfacing from the heap).
  bool pop_and_run();
  /// Returns a popped event's slot to free_ for reuse (its callback is
  /// released first so captured state never outlives the event).
  void recycle(Event* ev);

  Time now_ = 0.0;
  std::uint64_t now_seq_ = 0;  // position of the running (or last run) event
  std::uint64_t next_seq_ = 1;
  // Events are heap-allocated so the priority queue can hold stable
  // pointers, but popped events are recycled through free_ instead of
  // deleted: a steady-state simulation performs no per-event allocation
  // beyond what the callbacks themselves capture.  This is the arena that
  // keeps fleet-scale runs (millions of events across thousands of
  // deployments) off the allocator.  live_ids_ tracks events that are
  // scheduled and not cancelled.
  std::priority_queue<Event*, std::vector<Event*>, Order> heap_;
  std::vector<Event*> free_;
  std::unordered_set<std::uint64_t> live_ids_;
  SimObserver* observer_ = nullptr;
  std::function<void(Time)> post_step_hook_;
};

/// Repeating timer helper: reschedules itself every `period` until stopped.
class PeriodicTimer {
 public:
  PeriodicTimer(Simulator& sim, Time period, Simulator::Callback cb);
  ~PeriodicTimer();
  PeriodicTimer(const PeriodicTimer&) = delete;
  PeriodicTimer& operator=(const PeriodicTimer&) = delete;

  /// Starts firing `period` from now.  No-op if already running.
  void start();
  /// Stops future firings.
  void stop();
  bool running() const { return running_; }

 private:
  void arm();

  Simulator& sim_;
  Time period_;
  Simulator::Callback cb_;
  EventHandle pending_{};
  bool running_ = false;
};

}  // namespace zeiot::sim
