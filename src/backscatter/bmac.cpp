#include "backscatter/bmac.hpp"

#include <algorithm>
#include <limits>

#include "common/error.hpp"

namespace zeiot::backscatter {

void CycleScheduler::enqueue(PendingFrame frame) {
  ZEIOT_CHECK_MSG(frame.deadline > frame.ready_at,
                  "frame deadline must follow ready time");
  const auto pos = std::upper_bound(
      pending_.begin(), pending_.end(), frame,
      [](const PendingFrame& a, const PendingFrame& b) {
        return a.deadline < b.deadline;
      });
  pending_.insert(pos, frame);
}

std::optional<PendingFrame> CycleScheduler::pop_earliest_deadline(
    double now, double tx_time_s, std::size_t& expired) {
  while (!pending_.empty()) {
    const PendingFrame f = pending_.front();
    if (f.deadline < now + tx_time_s) {
      // Cannot complete before the deadline any more.
      pending_.erase(pending_.begin());
      ++expired;
      continue;
    }
    pending_.erase(pending_.begin());
    return f;
  }
  return std::nullopt;
}

std::size_t CycleScheduler::drop_expired(double now) {
  std::size_t dropped = 0;
  while (!pending_.empty() && pending_.front().deadline < now) {
    pending_.erase(pending_.begin());
    ++dropped;
  }
  return dropped;
}

double CycleScheduler::next_deadline() const {
  return pending_.empty() ? std::numeric_limits<double>::infinity()
                          : pending_.front().deadline;
}

}  // namespace zeiot::backscatter
