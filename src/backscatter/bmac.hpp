// Backscatter MAC protocol of ref [64] (paper Sec. IV.A), the
// cycle-registration MAC: IoT devices report on constant data-acquisition
// cycles, and the AP takes each frame's deadline from its device's cycle
// when the frame is queued (the start of the device's next cycle).  The AP
// schedules which device may backscatter on which carrier packet, injecting
// a dummy carrier packet when WLAN traffic alone cannot meet a frame's
// deadline.  Exactly one device is granted per carrier, so granted
// transmissions never collide.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

namespace zeiot::backscatter {

using DeviceId = std::uint32_t;

/// A sensor frame awaiting uplink.
struct PendingFrame {
  DeviceId device = 0;
  double ready_at = 0.0;
  double deadline = 0.0;  // start of the next cycle
};

/// AP-side scheduler state for the proposed MAC: earliest-deadline-first
/// over the devices' pending frames.
class CycleScheduler {
 public:
  /// Queues a newly produced frame.
  void enqueue(PendingFrame frame);

  bool has_pending() const { return !pending_.empty(); }
  std::size_t pending_count() const { return pending_.size(); }

  /// Pops the pending frame with the earliest deadline that is still
  /// meetable at time `now` given `tx_time_s` of required carrier
  /// (deadline >= now + tx_time_s).  Expired frames encountered on the way
  /// are dropped and counted in `expired`.
  std::optional<PendingFrame> pop_earliest_deadline(double now,
                                                    double tx_time_s,
                                                    std::size_t& expired);

  /// Drops frames whose deadline passed; returns how many were dropped.
  std::size_t drop_expired(double now);

  /// Earliest deadline among pending frames (infinity if none).
  double next_deadline() const;

 private:
  std::vector<PendingFrame> pending_;  // kept deadline-sorted
};

}  // namespace zeiot::backscatter
