#include "sim/simulator.hpp"

#include <algorithm>
#include <utility>

namespace zeiot::sim {

EventHandle Simulator::push(Time t, std::uint64_t seq, Callback cb,
                            bool positioned) {
  std::uint32_t i;
  if (free_slots_.empty()) {
    i = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  } else {
    i = free_slots_.back();
    free_slots_.pop_back();
  }
  Slot& s = slots_[i];
  s.cb = std::move(cb);
  s.seq = seq;
  s.positioned = positioned;
  const std::uint32_t gen = s.gen;
  heap_.push(Entry{t, seq, i, gen});
  ++pending_;
  if (observer_ != nullptr) observer_->on_scheduled(t, seq);
  return EventHandle(i, gen);
}

void Simulator::retire(std::uint32_t i) {
  Slot& s = slots_[i];
  if (s.positioned) {
    auto it = std::find(held_positions_.begin(), held_positions_.end(), s.seq);
    *it = held_positions_.back();
    held_positions_.pop_back();
  }
  if (++s.gen == 0) s.gen = 1;
  free_slots_.push_back(i);
  --pending_;
}

EventHandle Simulator::schedule(Time delay, Callback cb) {
  ZEIOT_CHECK_MSG(delay >= 0.0, "schedule() requires delay >= 0, got " << delay);
  return push(now_ + delay, next_seq_++, std::move(cb), false);
}

EventHandle Simulator::schedule_at(Time t, Callback cb) {
  ZEIOT_CHECK_MSG(t >= now_, "schedule_at() in the past: t=" << t
                                                             << " now=" << now_);
  return push(t, next_seq_++, std::move(cb), false);
}

EventHandle Simulator::schedule_at(Time t, Position pos, Callback cb) {
  ZEIOT_CHECK_MSG(pos.seq_ != 0 && pos.seq_ < next_seq_,
                  "schedule_at() at a position that was never reserved");
  ZEIOT_CHECK_MSG(t > now_ || (t == now_ && pos.seq_ > now_seq_),
                  "schedule_at() at a position before the running event: t="
                      << t << " now=" << now_);
  // An ordinary schedule never takes a reserved position, so only events
  // scheduled here can already hold one.
  ZEIOT_CHECK_MSG(std::find(held_positions_.begin(), held_positions_.end(),
                            pos.seq_) == held_positions_.end(),
                  "position " << pos.seq_ << " already holds a pending event");
  held_positions_.push_back(pos.seq_);
  return push(t, pos.seq_, std::move(cb), true);
}

bool Simulator::has_pending_before(Time t, Position pos) {
  while (!heap_.empty()) {
    const Entry& top = heap_.top();
    if (top.time > t || (top.time == t && top.seq >= pos.seq_)) {
      return false;  // the earliest event orders after, so all do
    }
    if (slots_[top.slot].gen == top.gen) return true;
    // Cancelled: discard it now, as pop_and_run would when it surfaced.
    heap_.pop();
  }
  return false;
}

bool Simulator::cancel(EventHandle h) {
  if (h.gen_ == 0 || h.slot_ >= slots_.size()) return false;
  Slot& s = slots_[h.slot_];
  if (s.gen != h.gen_) return false;  // already ran or was cancelled
  // Cancellation is lazy: the heap entry stays until it surfaces, and the
  // generation bump in retire() marks it dead.  The callback goes now, so
  // its captured state does not outlive the event.
  const std::uint64_t seq = s.seq;
  const Callback dead = std::exchange(s.cb, nullptr);
  retire(h.slot_);
  if (observer_ != nullptr) observer_->on_cancelled(now_, seq);
  return true;
}

bool Simulator::pop_and_run() {
  const Entry ev = heap_.top();
  heap_.pop();
  if (slots_[ev.slot].gen != ev.gen) return false;  // was cancelled
  now_ = ev.time;
  now_seq_ = ev.seq;
  // The slot is retired before the callback runs, so a callback that
  // throws cannot leak it, and one that schedules may reuse it.
  Callback cb = std::exchange(slots_[ev.slot].cb, nullptr);
  retire(ev.slot);
  cb();
  if (observer_ != nullptr) observer_->on_executed(ev.time, ev.seq, pending_);
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

}  // namespace zeiot::sim
