#include "sim/simulator.hpp"

#include <algorithm>
#include <utility>

namespace zeiot::sim {

void Simulator::push(Time t, std::uint64_t seq, Callback cb, bool positioned) {
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
  s.positioned = positioned;
  heap_.push(Entry{t, seq, i});
  if (observer_ != nullptr) observer_->on_scheduled(t, seq);
}

void Simulator::schedule(Time delay, Callback cb) {
  ZEIOT_CHECK_MSG(delay >= 0.0, "schedule() requires delay >= 0, got " << delay);
  push(now_ + delay, next_seq_++, std::move(cb), false);
}

void Simulator::schedule_at(Time t, Callback cb) {
  ZEIOT_CHECK_MSG(t >= now_, "schedule_at() in the past: t=" << t
                                                             << " now=" << now_);
  push(t, next_seq_++, std::move(cb), false);
}

void Simulator::schedule_at(Time t, Position pos, Callback cb) {
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
  push(t, pos.seq_, std::move(cb), true);
}

void Simulator::pop_and_run() {
  const Entry ev = heap_.top();
  heap_.pop();
  now_ = ev.time;
  now_seq_ = ev.seq;
  // The slot is retired before the callback runs, so a callback that
  // throws cannot leak it, and one that schedules may reuse it.
  Slot& s = slots_[ev.slot];
  Callback cb = std::exchange(s.cb, nullptr);
  if (s.positioned) {
    auto it = std::find(held_positions_.begin(), held_positions_.end(), ev.seq);
    *it = held_positions_.back();
    held_positions_.pop_back();
  }
  free_slots_.push_back(ev.slot);
  cb();
  if (observer_ != nullptr) {
    observer_->on_executed(ev.time, ev.seq, heap_.size());
  }
}

std::size_t Simulator::run(std::size_t limit) {
  std::size_t executed = 0;
  while (!heap_.empty() && executed < limit) {
    pop_and_run();
    ++executed;
  }
  return executed;
}

}  // namespace zeiot::sim
