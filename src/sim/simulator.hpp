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
#include <vector>

#include "common/error.hpp"

namespace zeiot::sim {

/// Simulation time in seconds.
using Time = double;

/// Opaque handle for cancelling a scheduled event: the event's slot in the
/// simulator and that slot's generation when the event was scheduled.  A
/// slot's generation changes whenever its event runs or is cancelled, so a
/// handle to an event that is gone is stale and cancels nothing, even once
/// the slot holds a newer event.  Generations are 32-bit and skip 0, so a
/// stale handle could match again only after 2^32 - 1 reuses of one slot.
class EventHandle {
 public:
  EventHandle() = default;

 private:
  friend class Simulator;
  EventHandle(std::uint32_t slot, std::uint32_t gen) : slot_(slot), gen_(gen) {}
  std::uint32_t slot_ = 0;
  std::uint32_t gen_ = 0;  // 0 = null handle
};

/// A tie-break position among events at equal times, reserved by
/// Simulator::reserve(): the sequence id an event scheduled at that moment
/// would have taken.  Default-constructed positions are null (never
/// reserved).
class Position {
 public:
  Position() = default;

  /// The position k places after this one.  For the first position of a
  /// block from Simulator::reserve(n), first + k (k < n) is the block's
  /// k-th; past the block it names a position this caller does not hold.
  Position operator+(std::uint64_t k) const { return Position(seq_ + k); }
  bool operator==(const Position&) const = default;

 private:
  friend class Simulator;
  explicit Position(std::uint64_t seq) : seq_(seq) {}
  std::uint64_t seq_ = 0;  // 0 = null position
};

/// Optional observer of simulator internals (scheduling, execution,
/// cancellation, queue depth): the kernel's one observation seam.  The
/// default implementations are no-ops, so observers override only what
/// they need.  `zeiot::obs::SimulatorProbe` adapts this interface onto the
/// metrics / tracing layer; with no observer installed the kernel pays only
/// a null pointer test per event.  The kernel reads no clock: callbacks
/// are not timed.
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
  /// number of events still pending after this one.
  virtual void on_executed(Time t, std::uint64_t id, std::size_t queue_depth) {
    (void)t; (void)id; (void)queue_depth;
  }
};

/// Event-driven simulator.  Not thread-safe; one instance per experiment.
///
/// Callbacks are std::function<void()>, kept in a reused slot per pending
/// event.  libstdc++ stores a trivially copyable callable of at most 16
/// bytes inside the std::function itself, so a closure over `this` plus
/// 8 bytes of arguments schedules without allocating; larger captures
/// allocate once per event.  Hot callers (netexec's arrivals, retries and
/// radio-queue drains) keep to that size.
class Simulator {
 public:
  using Callback = std::function<void()>;

  Simulator() = default;
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
  /// reserve(n) reserves n >= 1 consecutive positions in one step, the ones
  /// n reserve() calls in a row would return, and returns the first; the
  /// k-th is first + k.  No event can ever take a position between two of
  /// them.
  Position reserve(std::uint64_t n = 1) {
    ZEIOT_CHECK_MSG(n >= 1, "reserve(n) requires n >= 1");
    const Position first(next_seq_);
    next_seq_ += n;
    return first;
  }

  /// Schedules `cb` at (t, pos): it runs exactly where an event scheduled
  /// for time t at the moment `pos` was reserved would have run.  Throws
  /// when `pos` is null or not yet handed out by this simulator, when it
  /// already holds a pending event (each position runs at most one event
  /// at a time, so equal (time, position) pairs can never tie), or when
  /// (t, pos) orders at or before the running event.
  EventHandle schedule_at(Time t, Position pos, Callback cb);

  /// True when a pending event orders strictly before (t, pos), i.e. would
  /// run before an event at (t, pos).  Cancelled events do not count.
  bool has_pending_before(Time t, Position pos);

  /// Cancels a previously scheduled event in O(1).  Returns false if the
  /// event already ran, was already cancelled, or the handle is null.
  bool cancel(EventHandle h);

  /// Runs events until the queue is empty or `limit` events have fired.
  /// Returns the number of events executed.
  std::size_t run(std::size_t limit = SIZE_MAX);

  /// Number of events currently pending (scheduled, not yet run/cancelled).
  std::size_t pending() const { return pending_; }

  /// Installs (or clears, with nullptr) the observer.  The observer must
  /// outlive the simulator or be cleared first; it is notified of every
  /// schedule/cancel/execute from the moment it is set.
  void set_observer(SimObserver* observer) { observer_ = observer; }
  SimObserver* observer() const { return observer_; }

 private:
  // An event is a 24-byte heap entry, ordered on (time, seq), that names
  // the slot holding its callback.  A slot is retired, its generation
  // bumped and its index put back on free_slots_, when its event runs or
  // is cancelled.  Cancellation is lazy: the entry stays in the heap and
  // is dropped when it surfaces, because its generation no longer matches
  // its slot's.  Slots are reused, so a simulator allocates callback
  // storage only up to its peak number of pending events.  Never hold a
  // Slot& across a push: slots_ may reallocate.
  struct Entry {
    Time time;
    std::uint64_t seq;  // FIFO tie-break; the observer's event id
    std::uint32_t slot;
    std::uint32_t gen;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };
  struct Slot {
    Callback cb;
    std::uint64_t seq = 0;
    std::uint32_t gen = 1;     // never 0, the null handle's generation
    bool positioned = false;   // scheduled at a reserved Position
  };

  EventHandle push(Time t, std::uint64_t seq, Callback cb, bool positioned);
  /// Frees slot i for reuse and makes its handles stale.  Its callback must
  /// already be moved out.
  void retire(std::uint32_t i);
  /// Pops the earliest event; returns true if its callback ran (false for
  /// lazily-cancelled events surfacing from the heap).
  bool pop_and_run();

  Time now_ = 0.0;
  std::uint64_t now_seq_ = 0;  // position of the running (or last run) event
  std::uint64_t next_seq_ = 1;
  std::priority_queue<Entry, std::vector<Entry>, Later> heap_;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
  std::size_t pending_ = 0;
  // Reserved positions that hold a pending event: only schedule_at(t,
  // Position, cb) checks and fills it, and only retiring a positioned
  // event empties it.  A flat list searched linearly: it holds one entry
  // per pending position-scheduled event (netexec: at most one per node),
  // and once grown it never allocates again.
  std::vector<std::uint64_t> held_positions_;
  SimObserver* observer_ = nullptr;
};

}  // namespace zeiot::sim
