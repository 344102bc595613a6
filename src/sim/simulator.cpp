#include "sim/simulator.hpp"

#include <chrono>

namespace zeiot::sim {

Simulator::~Simulator() {
  while (!heap_.empty()) {
    delete heap_.top();
    heap_.pop();
  }
  for (Event* ev : free_) delete ev;
}

EventHandle Simulator::push(Time t, std::uint64_t seq, Callback cb) {
  ZEIOT_CHECK_MSG(live_ids_.insert(seq).second,
                  "position " << seq << " already holds a pending event");
  Event* ev;
  if (free_.empty()) {
    ev = new Event{t, seq, std::move(cb), false};
  } else {
    ev = free_.back();
    free_.pop_back();
    ev->time = t;
    ev->seq = seq;
    ev->cb = std::move(cb);
    ev->cancelled = false;
  }
  heap_.push(ev);
  if (observer_ != nullptr) observer_->on_scheduled(t, seq);
  return EventHandle(seq);
}

void Simulator::recycle(Event* ev) {
  ev->cb = nullptr;  // release captured state now, not at reuse time
  free_.push_back(ev);
}

EventHandle Simulator::schedule(Time delay, Callback cb) {
  ZEIOT_CHECK_MSG(delay >= 0.0, "schedule() requires delay >= 0, got " << delay);
  return push(now_ + delay, next_seq_++, std::move(cb));
}

EventHandle Simulator::schedule_at(Time t, Callback cb) {
  ZEIOT_CHECK_MSG(t >= now_, "schedule_at() in the past: t=" << t
                                                             << " now=" << now_);
  return push(t, next_seq_++, std::move(cb));
}

EventHandle Simulator::schedule_at(Time t, Position pos, Callback cb) {
  ZEIOT_CHECK_MSG(pos.seq_ != 0 && pos.seq_ < next_seq_,
                  "schedule_at() at a position that was never reserved");
  ZEIOT_CHECK_MSG(t > now_ || (t == now_ && pos.seq_ > now_seq_),
                  "schedule_at() at a position before the running event: t="
                      << t << " now=" << now_);
  return push(t, pos.seq_, std::move(cb));
}

bool Simulator::has_pending_before(Time t, Position pos) {
  while (!heap_.empty()) {
    Event* top = heap_.top();
    if (top->time > t || (top->time == t && top->seq >= pos.seq_)) {
      return false;  // the earliest event orders after, so all do
    }
    if (live_ids_.count(top->seq) != 0) return true;
    // Cancelled: discard it now, as pop_and_run would when it surfaced.
    heap_.pop();
    recycle(top);
  }
  return false;
}

bool Simulator::cancel(EventHandle h) {
  if (h.id_ == 0) return false;
  // Cancellation is lazy: the event cannot be removed from the middle of the
  // heap, so drop it from the live set and skip it when it surfaces.
  const bool cancelled = live_ids_.erase(h.id_) > 0;
  if (cancelled && observer_ != nullptr) observer_->on_cancelled(now_, h.id_);
  return cancelled;
}

bool Simulator::pop_and_run() {
  Event* ev = heap_.top();
  heap_.pop();
  if (live_ids_.erase(ev->seq) == 0) {  // was cancelled
    recycle(ev);
    return false;
  }
  now_ = ev->time;
  now_seq_ = ev->seq;
  const Time t = ev->time;
  const std::uint64_t seq = ev->seq;
  // The event goes back to free_ before its callback runs, so a callback
  // that throws cannot leak it.
  Callback cb = std::move(ev->cb);
  recycle(ev);
  if (observer_ == nullptr) {
    cb();
    if (post_step_hook_) post_step_hook_(t);
    return true;
  }
  // Wall-clock timing of the callback only happens when observed, so the
  // unobserved hot path stays a single pointer test.
  const auto start = std::chrono::steady_clock::now();
  cb();
  const std::chrono::duration<double> wall =
      std::chrono::steady_clock::now() - start;
  observer_->on_executed(t, seq, live_ids_.size(), wall.count());
  if (post_step_hook_) post_step_hook_(t);
  return true;
}

std::size_t Simulator::run(std::size_t limit) {
  std::size_t executed = 0;
  // Lazily-cancelled events popped off the heap do not count as executed
  // (the observer's events_executed counter matches the return value).
  while (!heap_.empty() && executed < limit) {
    if (pop_and_run()) ++executed;
  }
  return executed;
}

std::size_t Simulator::run_until(Time t) {
  ZEIOT_CHECK_MSG(t >= now_, "run_until() in the past");
  std::size_t executed = 0;
  while (!heap_.empty() && heap_.top()->time <= t) {
    if (pop_and_run()) ++executed;
  }
  if (t > now_) {
    now_ = t;
    now_seq_ = 0;  // nothing has run at t yet
  }
  return executed;
}

PeriodicTimer::PeriodicTimer(Simulator& sim, Time period,
                             Simulator::Callback cb)
    : sim_(sim), period_(period), cb_(std::move(cb)) {
  ZEIOT_CHECK_MSG(period > 0.0, "PeriodicTimer requires period > 0");
}

PeriodicTimer::~PeriodicTimer() { stop(); }

void PeriodicTimer::start() {
  if (running_) return;
  running_ = true;
  arm();
}

void PeriodicTimer::stop() {
  if (!running_) return;
  running_ = false;
  sim_.cancel(pending_);
  pending_ = EventHandle{};
}

void PeriodicTimer::arm() {
  pending_ = sim_.schedule(period_, [this] {
    if (!running_) return;
    cb_();
    if (running_) arm();
  });
}

}  // namespace zeiot::sim
