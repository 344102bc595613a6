#include "sim/simulator.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "obs/sim_probe.hpp"

namespace zeiot::sim {
namespace {

TEST(Simulator, StartsAtZero) {
  Simulator sim;
  EXPECT_DOUBLE_EQ(sim.now(), 0.0);
  EXPECT_EQ(sim.pending(), 0u);
}

TEST(Simulator, RunsEventsInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule(3.0, [&] { order.push_back(3); });
  sim.schedule(1.0, [&] { order.push_back(1); });
  sim.schedule(2.0, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(sim.now(), 3.0);
}

TEST(Simulator, FifoTieBreak) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    sim.schedule(1.0, [&order, i] { order.push_back(i); });
  }
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Simulator, ClockAdvancesDuringEvents) {
  Simulator sim;
  double seen = -1.0;
  sim.schedule(2.5, [&] { seen = sim.now(); });
  sim.run();
  EXPECT_DOUBLE_EQ(seen, 2.5);
}

TEST(Simulator, EventsCanScheduleEvents) {
  Simulator sim;
  int fired = 0;
  sim.schedule(1.0, [&] {
    ++fired;
    sim.schedule(1.0, [&] { ++fired; });
  });
  sim.run();
  EXPECT_EQ(fired, 2);
  EXPECT_DOUBLE_EQ(sim.now(), 2.0);
}

TEST(Simulator, RejectsNegativeDelay) {
  Simulator sim;
  EXPECT_THROW(sim.schedule(-1.0, [] {}), Error);
}

TEST(Simulator, ScheduleAtRejectsPast) {
  Simulator sim;
  sim.schedule(5.0, [] {});
  sim.run();
  EXPECT_THROW(sim.schedule_at(4.0, [] {}), Error);
}

TEST(Simulator, CancelPreventsExecution) {
  Simulator sim;
  bool ran = false;
  const auto h = sim.schedule(1.0, [&] { ran = true; });
  EXPECT_TRUE(sim.cancel(h));
  sim.run();
  EXPECT_FALSE(ran);
}

TEST(Simulator, CancelTwiceReturnsFalse) {
  Simulator sim;
  const auto h = sim.schedule(1.0, [] {});
  EXPECT_TRUE(sim.cancel(h));
  EXPECT_FALSE(sim.cancel(h));
}

TEST(Simulator, CancelAfterRunReturnsFalse) {
  Simulator sim;
  const auto h = sim.schedule(1.0, [] {});
  sim.run();
  EXPECT_FALSE(sim.cancel(h));
}

TEST(Simulator, CancelNullHandleReturnsFalse) {
  Simulator sim;
  EXPECT_FALSE(sim.cancel(EventHandle{}));
}

TEST(Simulator, RunWithLimit) {
  Simulator sim;
  int fired = 0;
  for (int i = 0; i < 10; ++i) sim.schedule(1.0 + i, [&] { ++fired; });
  EXPECT_EQ(sim.run(3), 3u);
  EXPECT_EQ(fired, 3);
  EXPECT_EQ(sim.pending(), 7u);
}

TEST(Simulator, PendingTracksCancellation) {
  Simulator sim;
  const auto h = sim.schedule(1.0, [] {});
  sim.schedule(2.0, [] {});
  EXPECT_EQ(sim.pending(), 2u);
  sim.cancel(h);
  EXPECT_EQ(sim.pending(), 1u);
}

TEST(Simulator, ThrowingCallbackPropagatesAndLeavesTheRestRunnable) {
  // The throwing event is retired before its callback runs: the exception
  // leaves run(), nothing leaks (the sanitizer legs check), and the other
  // event still runs on the next call.
  Simulator sim;
  bool second = false;
  sim.schedule(1.0, [] { throw std::runtime_error("handler failed"); });
  sim.schedule(2.0, [&] { second = true; });
  EXPECT_THROW(sim.run(), std::runtime_error);
  EXPECT_EQ(sim.pending(), 1u);
  EXPECT_FALSE(second);
  EXPECT_EQ(sim.run(), 1u);
  EXPECT_TRUE(second);
  EXPECT_EQ(sim.pending(), 0u);
}

TEST(Simulator, StaleHandleCannotCancelTheSlotsNextEvent) {
  // A's slot is free once A has run, so B takes it; A's handle names the
  // slot at A's generation and must not reach B.
  Simulator sim;
  const EventHandle a = sim.schedule(1.0, [] {});
  EXPECT_EQ(sim.run(), 1u);
  bool b_ran = false;
  const EventHandle b = sim.schedule(1.0, [&] { b_ran = true; });
  EXPECT_FALSE(sim.cancel(a));
  EXPECT_EQ(sim.pending(), 1u);
  EXPECT_EQ(sim.run(), 1u);
  EXPECT_TRUE(b_ran);
  EXPECT_FALSE(sim.cancel(b));
}

// A plain model of the kernel's contract: events in a vector sorted on
// (t, seq), a cancelled one marked dead where it lies, and the same
// sequence-id bookkeeping as the kernel.
struct RefEvent {
  double t;
  std::uint64_t seq;
  int label;
  bool live;
};

struct RefKernel {
  double now = 0.0;
  std::uint64_t now_seq = 0;
  std::uint64_t next_seq = 1;
  std::vector<RefEvent> events;

  static bool before(const RefEvent& a, const RefEvent& b) {
    return a.t < b.t || (a.t == b.t && a.seq < b.seq);
  }
  void add(double t, std::uint64_t seq, int label) {
    const RefEvent e{t, seq, label, true};
    events.insert(std::upper_bound(events.begin(), events.end(), e, before),
                  e);
  }
  bool cancel(int label) {
    for (RefEvent& e : events) {
      if (e.label == label && e.live) {
        e.live = false;
        return true;
      }
    }
    return false;
  }
  bool held(std::uint64_t seq) const {
    return std::any_of(events.begin(), events.end(), [&](const RefEvent& e) {
      return e.live && e.seq == seq;
    });
  }
  std::size_t pending() const {
    return static_cast<std::size_t>(
        std::count_if(events.begin(), events.end(),
                      [](const RefEvent& e) { return e.live; }));
  }
  bool has_pending_before(double t, std::uint64_t seq) const {
    const RefEvent probe{t, seq, 0, true};
    return std::any_of(events.begin(), events.end(), [&](const RefEvent& e) {
      return e.live && before(e, probe);
    });
  }
  /// Removes the earliest live event into `out`, as the kernel runs it;
  /// false when there is none.
  bool pop(RefEvent& out) {
    while (!events.empty()) {
      const RefEvent e = events.front();
      events.erase(events.begin());
      if (!e.live) continue;
      now = e.t;
      now_seq = e.seq;
      out = e;
      return true;
    }
    return false;
  }
};

TEST(Simulator, MatchesAPlainReferenceUnderRandomOperations) {
  // Random mixes of every kernel operation, on times quantised to 0.25 s
  // so ties are common.  Positions come from single and block
  // reservations.  Some events schedule a child when they run, which
  // reuses slots freed in the same run.  Each answer, the execution order
  // and pending() must equal the reference's.
  constexpr int kChild = 1000000;  // a child's label: its parent's + this
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    SCOPED_TRACE(seed);
    Rng rng(seed);
    Simulator sim;
    RefKernel ref;
    std::vector<int> ran;                // labels as the kernel runs them
    std::vector<int> want;               // labels as the reference runs them
    std::vector<EventHandle> handles;    // every handle the kernel issued
    std::vector<int> handle_labels;      // the event each handle names
    std::vector<double> child_delay;     // by label; < 0: no child
    std::vector<std::pair<Position, std::uint64_t>> reserved;
    const auto tick = [&](int max_q) {
      return 0.25 * static_cast<double>(rng.uniform_int(0, max_q));
    };
    // A uniform index into [lo, n).
    const auto pick = [&](std::size_t lo, std::size_t n) {
      return static_cast<std::size_t>(rng.uniform_int(
          static_cast<std::int64_t>(lo), static_cast<std::int64_t>(n) - 1));
    };
    const auto make_cb = [&](int label) -> Simulator::Callback {
      return [&, label] {
        ran.push_back(label);
        if (child_delay[static_cast<std::size_t>(label)] < 0.0) return;
        const int child = label + kChild;
        handles.push_back(
            sim.schedule(child_delay[static_cast<std::size_t>(label)],
                         [&ran, child] { ran.push_back(child); }));
      };
    };
    const auto new_label = [&] {
      child_delay.push_back(rng.bernoulli(0.2) ? tick(4) : -1.0);
      return static_cast<int>(child_delay.size() - 1);
    };
    // Runs the reference as far as the kernel's run(limit).
    const auto ref_run = [&](std::size_t limit) {
      std::size_t n = 0;
      RefEvent e{};
      while (n < limit && ref.pop(e)) {
        ++n;
        want.push_back(e.label);
        if (e.label >= kChild) continue;
        const double d = child_delay[static_cast<std::size_t>(e.label)];
        if (d < 0.0) continue;
        ref.add(ref.now + d, ref.next_seq++, e.label + kChild);
        handle_labels.push_back(e.label + kChild);
      }
      return n;
    };
    for (int op = 0; op < 10000; ++op) {
      const int kind = static_cast<int>(rng.uniform_int(0, 99));
      if (kind < 30) {
        const int label = new_label();
        const double d = tick(8);
        handles.push_back(kind < 15
                              ? sim.schedule(d, make_cb(label))
                              : sim.schedule_at(sim.now() + d, make_cb(label)));
        handle_labels.push_back(label);
        ref.add(ref.now + d, ref.next_seq++, label);
      } else if (kind < 34) {
        reserved.emplace_back(sim.reserve(), ref.next_seq++);
      } else if (kind < 38) {
        const auto n = static_cast<std::uint64_t>(rng.uniform_int(1, 4));
        const Position first = sim.reserve(n);
        for (std::uint64_t k = 0; k < n; ++k) {
          reserved.emplace_back(first + k, ref.next_seq++);
        }
      } else if (kind < 48) {
        if (reserved.empty()) continue;
        const auto& [pos, seq] = reserved[pick(0, reserved.size())];
        const double t = sim.now() + tick(8);
        const int label = new_label();
        const bool honoured =
            !(t == ref.now && seq <= ref.now_seq) && !ref.held(seq);
        if (honoured) {
          handles.push_back(sim.schedule_at(t, pos, make_cb(label)));
          handle_labels.push_back(label);
          ref.add(t, seq, label);
        } else {
          EXPECT_THROW(sim.schedule_at(t, pos, make_cb(label)), Error);
        }
      } else if (kind < 63) {
        if (handles.empty()) {
          EXPECT_FALSE(sim.cancel(EventHandle{}));
          continue;
        }
        // Half the picks among the latest handles, which are mostly live.
        const std::size_t n = handles.size();
        const std::size_t i =
            rng.bernoulli(0.5) ? pick(n > 8 ? n - 8 : 0, n) : pick(0, n);
        ASSERT_EQ(sim.cancel(handles[i]), ref.cancel(handle_labels[i]));
      } else if (kind < 73) {
        if (reserved.empty()) continue;
        const auto& [pos, seq] = reserved[pick(0, reserved.size())];
        const double t = sim.now() + tick(2);
        ASSERT_EQ(sim.has_pending_before(t, pos),
                  ref.has_pending_before(t, seq));
      } else {
        const auto limit = static_cast<std::size_t>(rng.uniform_int(1, 3));
        ASSERT_EQ(sim.run(limit), ref_run(limit));
      }
      ASSERT_EQ(sim.pending(), ref.pending());
      ASSERT_EQ(sim.now(), ref.now);
      ASSERT_EQ(ran.size(), want.size());
      ASSERT_EQ(handles.size(), handle_labels.size());
    }
    ASSERT_EQ(sim.run(), ref_run(SIZE_MAX));
    EXPECT_EQ(sim.pending(), 0u);
    EXPECT_EQ(ran, want);
  }
}

TEST(SimulatorPosition, ReservedEventRunsWhereItWasReserved) {
  // The same script twice: once scheduling "r" when its position is taken,
  // once reserving the position then and scheduling "r" at it later, from
  // an earlier event.  Ordinary events at the same time, scheduled before
  // and after the reservation, bracket it the same way in both.
  std::vector<std::vector<std::string>> orders;
  for (const bool reserved : {false, true}) {
    Simulator sim;
    std::vector<std::string> order;
    sim.schedule_at(1.0, [&] { order.push_back("before"); });
    Position pos;
    if (reserved) {
      pos = sim.reserve();
    } else {
      sim.schedule_at(1.0, [&] { order.push_back("r"); });
    }
    sim.schedule_at(1.0, [&] { order.push_back("after"); });
    sim.schedule_at(0.5, [&] {
      order.push_back("early");
      if (reserved) sim.schedule_at(1.0, pos, [&] { order.push_back("r"); });
    });
    sim.run();
    orders.push_back(order);
  }
  const std::vector<std::string> want = {"early", "before", "r", "after"};
  EXPECT_EQ(orders[0], want);
  EXPECT_EQ(orders[1], want);
}

TEST(SimulatorPosition, HasPendingBeforeOrdersByTimeThenPosition) {
  Simulator sim;
  const Position lower = sim.reserve();
  sim.schedule_at(2.0, [] {});  // the pending event, between the two
  const Position higher = sim.reserve();
  EXPECT_FALSE(sim.has_pending_before(1.0, higher));  // earlier time
  EXPECT_FALSE(sim.has_pending_before(2.0, lower));   // same time, before
  EXPECT_TRUE(sim.has_pending_before(2.0, higher));   // same time, after
  EXPECT_TRUE(sim.has_pending_before(3.0, lower));    // later time
  sim.run();
  EXPECT_FALSE(sim.has_pending_before(3.0, higher));  // it ran
}

TEST(SimulatorPosition, CancelledEventsDoNotCount) {
  Simulator sim;
  const EventHandle h = sim.schedule_at(1.0, [] {});
  sim.schedule_at(2.0, [] {});
  const Position pos = sim.reserve();
  EXPECT_TRUE(sim.cancel(h));
  EXPECT_FALSE(sim.has_pending_before(1.5, pos));
  EXPECT_TRUE(sim.has_pending_before(2.5, pos));
  EXPECT_EQ(sim.pending(), 1u);
  EXPECT_EQ(sim.run(), 1u);
}

TEST(SimulatorPosition, RejectsPositionsItCannotHonour) {
  Simulator sim;
  const Position early = sim.reserve();
  EXPECT_THROW(sim.schedule_at(1.0, Position{}, [] {}), Error);
  Simulator other;
  for (int i = 0; i < 4; ++i) other.reserve();
  EXPECT_THROW(sim.schedule_at(1.0, other.reserve(), [] {}), Error);
  bool checked = false;
  sim.schedule_at(1.0, [&] {
    // (1.0, early) orders before this running event; a position reserved
    // now orders after it, at this time but not before it.
    EXPECT_THROW(sim.schedule_at(1.0, early, [] {}), Error);
    const Position now = sim.reserve();
    EXPECT_THROW(sim.schedule_at(0.5, now, [] {}), Error);
    EXPECT_NO_THROW(sim.schedule_at(1.0, now, [] {}));
    EXPECT_THROW(sim.schedule_at(2.0, now, [] {}), Error);  // already held
    checked = true;
  });
  EXPECT_EQ(sim.run(), 2u);
  EXPECT_TRUE(checked);
}

TEST(SimulatorPosition, ReservationConsumesExactlyOneId) {
  // A worker finds a resource busy at t = 1 and waits for t = 2, either as
  // a re-poll event scheduled at once or as a reserved position scheduled
  // later.  The probe records every fired event's time and id, and the two
  // records match: the reservation took the re-poll's id and no other.
  std::vector<std::vector<std::pair<double, std::uint32_t>>> fired;
  for (const bool reserved : {false, true}) {
    obs::Observability o;
    o.enable_spans(64);
    obs::SimulatorProbe probe(o);
    Simulator sim;
    sim.set_observer(&probe);
    const auto work = [&sim] { sim.schedule(1.0, [] {}); };
    sim.schedule_at(1.0, [&] {
      Position pos;
      if (reserved) {
        pos = sim.reserve();
      } else {
        sim.schedule_at(2.0, work);
      }
      sim.schedule_at(2.0, [] {});
      if (reserved) sim.schedule_at(2.0, pos, work);
    });
    sim.run();
    ASSERT_EQ(o.spans().dropped(), 0u);
    std::vector<std::pair<double, std::uint32_t>> evs;
    for (std::size_t i = 0; i < o.spans().size(); ++i) {
      const obs::SpanEvent& e = o.spans().at(i);
      if (e.kind == obs::SpanKind::EventFired) evs.emplace_back(e.t0, e.a);
    }
    fired.push_back(evs);
  }
  ASSERT_EQ(fired[0].size(), 4u);
  EXPECT_EQ(fired[0], fired[1]);
}

/// Records the (time, id) of every event the kernel runs.
struct FiredLog : SimObserver {
  std::vector<std::pair<double, std::uint64_t>> fired;
  void on_executed(Time t, std::uint64_t id, std::size_t) override {
    fired.emplace_back(t, id);
  }
};

TEST(SimulatorPosition, BlockReservationIsThatManySingleReservations) {
  // Four events at t = 1 and 2 are scheduled either at once (mode 0), or at
  // positions taken by four reserve() calls (1) or by one reserve(4) (2),
  // and then scheduled later, from an earlier event and in reverse order.
  // Ordinary events scheduled before and after bracket them.  All three
  // runs fire the same events in the same order with the same ids: a
  // block's k-th position is the k-th single reservation, and the block
  // consumes exactly four ids.
  const double at[4] = {1.0, 2.0, 1.0, 1.0};
  std::vector<std::vector<int>> orders;
  std::vector<std::vector<std::pair<double, std::uint64_t>>> fired;
  for (int mode = 0; mode < 3; ++mode) {
    Simulator sim;
    FiredLog log;
    sim.set_observer(&log);
    std::vector<int> order;
    sim.schedule_at(1.0, [&] { order.push_back(-1); });
    std::vector<Position> pos;
    if (mode == 0) {
      for (int k = 0; k < 4; ++k) {
        sim.schedule_at(at[k], [&order, k] { order.push_back(k); });
      }
    } else if (mode == 1) {
      for (int k = 0; k < 4; ++k) pos.push_back(sim.reserve());
    } else {
      const Position first = sim.reserve(4);
      for (std::uint64_t k = 0; k < 4; ++k) pos.push_back(first + k);
    }
    sim.schedule_at(1.0, [&] { order.push_back(-2); });
    sim.schedule_at(2.0, [&] { order.push_back(-3); });
    sim.schedule_at(0.5, [&] {
      for (int k = static_cast<int>(pos.size()) - 1; k >= 0; --k) {
        sim.schedule_at(at[k], pos[static_cast<std::size_t>(k)],
                        [&order, k] { order.push_back(k); });
      }
    });
    EXPECT_EQ(sim.run(), 8u);
    orders.push_back(order);
    fired.push_back(log.fired);
  }
  EXPECT_EQ(orders[0], (std::vector<int>{-1, 0, 2, 3, -2, 1, -3}));
  EXPECT_EQ(orders[1], orders[0]);
  EXPECT_EQ(orders[2], orders[0]);
  EXPECT_EQ(fired[1], fired[0]);
  EXPECT_EQ(fired[2], fired[0]);
  Simulator sim;
  EXPECT_THROW(sim.reserve(0), Error);
}

TEST(SimObserver, ExecutedCounterMatchesRunReturn) {
  // The observer's events_executed counter and run()'s return value are
  // two independent tallies of the same thing; they must agree even when
  // cancelled events surface from the heap mid-run.
  obs::Observability o;
  obs::SimulatorProbe probe(o);
  Simulator sim;
  sim.set_observer(&probe);
  std::vector<EventHandle> handles;
  for (int i = 0; i < 50; ++i) {
    handles.push_back(sim.schedule(static_cast<double>(i), [&sim] {
      sim.schedule(0.5, [] {});
    }));
  }
  for (std::size_t i = 0; i < handles.size(); i += 3) sim.cancel(handles[i]);
  const std::size_t executed = sim.run();
  EXPECT_DOUBLE_EQ(o.metrics().counter_value("sim.events.executed"),
                   static_cast<double>(executed));
  EXPECT_DOUBLE_EQ(o.metrics().counter_value("sim.events.cancelled"), 17.0);
}

TEST(SimObserver, RunWithLimitMatchesObserver) {
  obs::Observability o;
  obs::SimulatorProbe probe(o);
  Simulator sim;
  sim.set_observer(&probe);
  for (int i = 0; i < 10; ++i) sim.schedule(1.0 + i, [] {});
  const std::size_t executed = sim.run(4);
  EXPECT_EQ(executed, 4u);
  EXPECT_DOUBLE_EQ(o.metrics().counter_value("sim.events.executed"), 4.0);
}

}  // namespace
}  // namespace zeiot::sim
