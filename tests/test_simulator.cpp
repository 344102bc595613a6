#include "sim/simulator.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

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

TEST(Simulator, RunUntilStopsAtBoundary) {
  Simulator sim;
  std::vector<double> times;
  for (double t : {1.0, 2.0, 3.0, 4.0}) {
    sim.schedule(t, [&times, &sim] { times.push_back(sim.now()); });
  }
  const auto n = sim.run_until(2.5);
  EXPECT_EQ(n, 2u);
  EXPECT_DOUBLE_EQ(sim.now(), 2.5);
  EXPECT_EQ(sim.pending(), 2u);
  sim.run();
  EXPECT_EQ(times.size(), 4u);
}

TEST(Simulator, RunUntilInclusiveOfBoundary) {
  Simulator sim;
  int fired = 0;
  sim.schedule(2.0, [&] { ++fired; });
  sim.run_until(2.0);
  EXPECT_EQ(fired, 1);
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

TEST(PeriodicTimer, FiresRepeatedly) {
  Simulator sim;
  int count = 0;
  PeriodicTimer timer(sim, 1.0, [&] { ++count; });
  timer.start();
  sim.run_until(5.5);
  EXPECT_EQ(count, 5);
}

TEST(PeriodicTimer, StopHalts) {
  Simulator sim;
  int count = 0;
  PeriodicTimer timer(sim, 1.0, [&] { ++count; });
  timer.start();
  sim.schedule(3.5, [&] { timer.stop(); });
  sim.run_until(10.0);
  EXPECT_EQ(count, 3);
  EXPECT_FALSE(timer.running());
}

TEST(PeriodicTimer, RestartWorks) {
  Simulator sim;
  int count = 0;
  PeriodicTimer timer(sim, 1.0, [&] { ++count; });
  timer.start();
  sim.schedule(2.5, [&] { timer.stop(); });
  sim.schedule(5.0, [&] { timer.start(); });
  sim.run_until(7.5);
  EXPECT_EQ(count, 4);  // fires at 1, 2, 6, 7
}

TEST(PeriodicTimer, RejectsNonPositivePeriod) {
  Simulator sim;
  EXPECT_THROW(PeriodicTimer(sim, 0.0, [] {}), Error);
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

TEST(PeriodicTimer, CanStopInsideCallback) {
  Simulator sim;
  int count = 0;
  PeriodicTimer timer(sim, 1.0, [&] {
    if (++count == 3) timer.stop();
  });
  timer.start();
  sim.run_until(10.0);
  EXPECT_EQ(count, 3);
}

}  // namespace
}  // namespace zeiot::sim
