#include "mac/channel.hpp"

#include <algorithm>

namespace zeiot::mac {

void Channel::add(double start, double duration, std::uint32_t source,
                  Medium kind) {
  ZEIOT_CHECK_MSG(duration > 0.0, "transmission duration must be > 0");
  ZEIOT_CHECK_MSG(start >= last_start_,
                  "transmissions must be added in start order");
  last_start_ = start;
  log_.push_back({start, start + duration, source, kind});
}

double Channel::utilization(double horizon) const {
  ZEIOT_CHECK_MSG(horizon > 0.0, "horizon must be > 0");
  // Merge intervals (log is start-ordered).
  double covered = 0.0;
  double cur_start = -1.0, cur_end = -1.0;
  for (const auto& tx : log_) {
    const double s = std::min(tx.start, horizon);
    const double e = std::min(tx.end, horizon);
    if (e <= s) continue;
    if (s > cur_end) {
      if (cur_end > cur_start) covered += cur_end - cur_start;
      cur_start = s;
      cur_end = e;
    } else {
      cur_end = std::max(cur_end, e);
    }
  }
  if (cur_end > cur_start) covered += cur_end - cur_start;
  return covered / horizon;
}

}  // namespace zeiot::mac
