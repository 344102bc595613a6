// Design-support environment for information collection on IoT device
// networks (paper Secs. III.B and V).
//
// The paper asks for a mechanism that, given (a) the device network and
// obstacle/interference structure, (b) the required information-collection
// cycle of every device, and (c) a recovery method for transmission
// errors, *automatically generates* the collection schedule: which device
// transmits when, on which channel, such that nothing collides, every
// cycle's data arrives before the next cycle, and spare capacity exists
// for retransmissions.
//
// This module implements that synthesizer:
//  * an interference graph from device positions (devices in range must
//    not overlap on the same channel; distant devices may reuse it),
//  * EDF placement of every cycle instance over a hyperperiod timeline
//    across the available channels,
//  * reserved recovery slots per device period, and
//  * an independent validator used both by callers and by the test suite.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/geometry.hpp"

namespace zeiot::mac {

using CollectionDeviceId = std::uint32_t;

/// One device's registered requirement.
struct DeviceRequirement {
  CollectionDeviceId id = 0;
  Point2D position{};
  /// Data is produced once per period and must be delivered within it.
  double period_s = 1.0;
  std::size_t payload_bytes = 16;
};

struct CollectionConfig {
  int num_channels = 1;
  /// Uplink rate per channel (shared by all devices on it).
  double channel_rate_bps = 250e3;
  /// Per-transmission overhead (preamble, turnaround, guard).
  double overhead_s = 1.0e-3;
  /// Devices closer than this interfere and must be separated in time on
  /// the same channel; farther apart they can reuse it.
  double interference_range_m = 50.0;
  /// Extra retransmission slots reserved per device per period (>= 0).
  int recovery_slots = 1;
};

/// One scheduled transmission window.
struct ScheduleEntry {
  CollectionDeviceId device = 0;
  int channel = 0;
  double start_s = 0.0;
  double duration_s = 0.0;
  /// Which cycle instance this serves (release = instance * period).
  int instance = 0;
  /// True for a reserved recovery (retransmission) window.
  bool recovery = false;
};

struct CollectionSchedule {
  bool feasible = false;
  /// Human-readable reason when infeasible.
  std::string failure_reason;
  double hyperperiod_s = 0.0;
  std::vector<ScheduleEntry> entries;
  /// Busy fraction per channel over the hyperperiod.
  std::vector<double> channel_utilization;
  /// Smallest (deadline - completion) over all primary entries, seconds.
  double worst_slack_s = 0.0;
};

/// Synthesises a collection schedule.  Never throws for infeasible
/// demand — inspect `feasible` / `failure_reason`; throws only on invalid
/// arguments (empty devices, non-positive periods...).
CollectionSchedule synthesize_schedule(
    const std::vector<DeviceRequirement>& devices,
    const CollectionConfig& cfg);

/// Independent checker: no same-channel overlap among interfering devices,
/// every instance scheduled within its period, durations match payloads.
/// Returns an empty string when valid, else a description of the first
/// violation.
std::string validate_schedule(const CollectionSchedule& schedule,
                              const std::vector<DeviceRequirement>& devices,
                              const CollectionConfig& cfg);

/// Duration of one transmission of `payload_bytes` under `cfg`.
double transmission_duration_s(const CollectionConfig& cfg,
                               std::size_t payload_bytes);

/// Least common multiple of the device periods on a millisecond grid —
/// the natural schedule horizon.
double hyperperiod_s(const std::vector<DeviceRequirement>& devices);

}  // namespace zeiot::mac
