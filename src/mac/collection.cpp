#include "mac/collection.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <sstream>

#include "common/error.hpp"

namespace zeiot::mac {

namespace {

/// Uplink rate per channel (shared by all devices on it).
constexpr double kChannelRateBps = 250e3;
/// Per-transmission overhead (preamble, turnaround, guard).
constexpr double kTxOverheadS = 1.0e-3;

/// Periods on a 1 ms grid for exact hyperperiod arithmetic.
std::int64_t period_ms(double period_s) {
  return static_cast<std::int64_t>(std::llround(period_s * 1e3));
}

bool interferes(const DeviceRequirement& a, const DeviceRequirement& b,
                const CollectionConfig& cfg) {
  return distance(a.position, b.position) <= cfg.interference_range_m;
}

void check_inputs(const std::vector<DeviceRequirement>& devices,
                  const CollectionConfig& cfg) {
  ZEIOT_CHECK_MSG(!devices.empty(), "no devices to schedule");
  ZEIOT_CHECK_MSG(cfg.num_channels >= 1, "need at least one channel");
  ZEIOT_CHECK_MSG(cfg.interference_range_m >= 0.0, "range must be >= 0");
  ZEIOT_CHECK_MSG(cfg.recovery_slots >= 0, "recovery slots must be >= 0");
  for (std::size_t i = 0; i < devices.size(); ++i) {
    ZEIOT_CHECK_MSG(devices[i].period_s >= 2e-3,
                    "period too small for the ms scheduling grid");
    ZEIOT_CHECK_MSG(devices[i].payload_bytes > 0, "payload must be > 0");
    for (std::size_t j = i + 1; j < devices.size(); ++j) {
      ZEIOT_CHECK_MSG(devices[i].id != devices[j].id,
                      "duplicate device id " << devices[i].id);
    }
  }
}

/// Busy intervals per (channel), with the owning device for interference
/// checks.
struct Booking {
  double start;
  double end;
  std::size_t device_index;
};

/// Earliest time >= `from` at which `dev` can transmit for `dur` on
/// `channel` without overlapping any interfering booking.
double earliest_fit(const std::vector<Booking>& channel_bookings,
                    const std::vector<DeviceRequirement>& devices,
                    const CollectionConfig& cfg, std::size_t dev_index,
                    double from, double dur) {
  double t = from;
  bool moved = true;
  while (moved) {
    moved = false;
    for (const Booking& b : channel_bookings) {
      if (b.end <= t || b.start >= t + dur) continue;  // no overlap
      if (!interferes(devices[dev_index], devices[b.device_index], cfg)) {
        continue;  // spatial reuse: overlap allowed
      }
      t = b.end;  // push past the conflicting booking
      moved = true;
    }
  }
  return t;
}

}  // namespace

double transmission_duration_s(std::size_t payload_bytes) {
  return kTxOverheadS +
         static_cast<double>(payload_bytes) * 8.0 / kChannelRateBps;
}

double hyperperiod_s(const std::vector<DeviceRequirement>& devices) {
  ZEIOT_CHECK_MSG(!devices.empty(), "no devices");
  std::int64_t l = 1;
  for (const auto& d : devices) {
    const std::int64_t p = period_ms(d.period_s);
    ZEIOT_CHECK_MSG(p > 0, "period must round to >= 1 ms");
    l = std::lcm(l, p);
    ZEIOT_CHECK_MSG(l <= 86'400'000LL,
                    "hyperperiod exceeds one day; align the device periods");
  }
  return static_cast<double>(l) / 1e3;
}

CollectionSchedule synthesize_schedule(
    const std::vector<DeviceRequirement>& devices,
    const CollectionConfig& cfg) {
  check_inputs(devices, cfg);
  CollectionSchedule s;
  s.hyperperiod_s = hyperperiod_s(devices);
  s.channel_utilization.assign(static_cast<std::size_t>(cfg.num_channels),
                               0.0);

  // Release list over the hyperperiod: (release time, device, instance),
  // EDF-ordered by deadline (= release + period).
  struct Release {
    double release;
    double deadline;
    std::size_t dev_index;
    int instance;
  };
  std::vector<Release> releases;
  for (std::size_t i = 0; i < devices.size(); ++i) {
    const int instances = static_cast<int>(
        std::llround(s.hyperperiod_s / devices[i].period_s));
    for (int k = 0; k < instances; ++k) {
      const double rel = k * devices[i].period_s;
      releases.push_back({rel, rel + devices[i].period_s, i, k});
    }
  }
  std::sort(releases.begin(), releases.end(),
            [](const Release& a, const Release& b) {
              if (a.deadline != b.deadline) return a.deadline < b.deadline;
              return a.release < b.release;
            });

  std::vector<std::vector<Booking>> bookings(
      static_cast<std::size_t>(cfg.num_channels));
  s.feasible = true;
  s.worst_slack_s = std::numeric_limits<double>::infinity();

  auto place = [&](const Release& r, double dur, bool recovery,
                   double not_before) -> double {
    // Best (earliest-finishing) placement across channels.
    int best_ch = -1;
    double best_start = 0.0;
    for (int ch = 0; ch < cfg.num_channels; ++ch) {
      const double t = earliest_fit(bookings[static_cast<std::size_t>(ch)],
                                    devices, cfg, r.dev_index,
                                    std::max(r.release, not_before), dur);
      if (best_ch < 0 || t < best_start) {
        best_ch = ch;
        best_start = t;
      }
    }
    if (best_start + dur > r.deadline + 1e-12) return -1.0;  // misses deadline
    bookings[static_cast<std::size_t>(best_ch)].push_back(
        {best_start, best_start + dur, r.dev_index});
    s.entries.push_back({devices[r.dev_index].id, best_ch, best_start, dur,
                         r.instance, recovery});
    return best_start + dur;
  };

  for (const Release& r : releases) {
    const double dur =
        transmission_duration_s(devices[r.dev_index].payload_bytes);
    const double done = place(r, dur, /*recovery=*/false, r.release);
    if (done < 0.0) {
      s.feasible = false;
      std::ostringstream os;
      os << "device " << devices[r.dev_index].id << " instance " << r.instance
         << " cannot meet its deadline at " << r.deadline << " s";
      s.failure_reason = os.str();
      break;
    }
    s.worst_slack_s = std::min(s.worst_slack_s, r.deadline - done);
    // Reserved recovery windows follow the primary transmission.
    double after = done;
    for (int k = 0; k < cfg.recovery_slots && s.feasible; ++k) {
      const double rdone = place(r, dur, /*recovery=*/true, after);
      if (rdone < 0.0) {
        s.feasible = false;
        std::ostringstream os;
        os << "no room for recovery slot " << k + 1 << " of device "
           << devices[r.dev_index].id << " instance " << r.instance;
        s.failure_reason = os.str();
        break;
      }
      after = rdone;
    }
    if (!s.feasible) break;
  }

  if (!s.feasible) {
    s.entries.clear();
    s.worst_slack_s = 0.0;
    return s;
  }

  for (int ch = 0; ch < cfg.num_channels; ++ch) {
    double busy = 0.0;
    for (const Booking& b : bookings[static_cast<std::size_t>(ch)]) {
      busy += b.end - b.start;
    }
    // Utilization may exceed 1 with spatial reuse; report raw busy-time
    // fraction (an informative load figure, not an occupancy bound).
    s.channel_utilization[static_cast<std::size_t>(ch)] =
        busy / s.hyperperiod_s;
  }
  std::sort(s.entries.begin(), s.entries.end(),
            [](const ScheduleEntry& a, const ScheduleEntry& b) {
              return a.start_s < b.start_s;
            });
  return s;
}

std::string validate_schedule(const CollectionSchedule& schedule,
                              const std::vector<DeviceRequirement>& devices,
                              const CollectionConfig& cfg) {
  if (!schedule.feasible) return "schedule marked infeasible";
  auto find_device = [&](CollectionDeviceId id) -> const DeviceRequirement* {
    for (const auto& d : devices) {
      if (d.id == id) return &d;
    }
    return nullptr;
  };

  // Pairwise overlap check on the same channel among interfering devices.
  for (std::size_t i = 0; i < schedule.entries.size(); ++i) {
    const auto& a = schedule.entries[i];
    const auto* da = find_device(a.device);
    if (da == nullptr) return "entry references unknown device";
    if (a.duration_s + 1e-12 < transmission_duration_s(da->payload_bytes)) {
      return "entry shorter than its payload requires";
    }
    for (std::size_t j = i + 1; j < schedule.entries.size(); ++j) {
      const auto& b = schedule.entries[j];
      if (a.channel != b.channel) continue;
      if (a.start_s + a.duration_s <= b.start_s + 1e-12 ||
          b.start_s + b.duration_s <= a.start_s + 1e-12) {
        continue;
      }
      const auto* db = find_device(b.device);
      if (db == nullptr) return "entry references unknown device";
      if (interferes(*da, *db, cfg)) {
        std::ostringstream os;
        os << "devices " << a.device << " and " << b.device
           << " overlap on channel " << a.channel << " near t=" << a.start_s;
        return os.str();
      }
    }
  }

  // Every instance of every device has a primary entry within its period.
  for (const auto& d : devices) {
    const int instances =
        static_cast<int>(std::llround(schedule.hyperperiod_s / d.period_s));
    for (int k = 0; k < instances; ++k) {
      bool found = false;
      for (const auto& e : schedule.entries) {
        if (e.device == d.id && e.instance == k && !e.recovery &&
            e.start_s >= k * d.period_s - 1e-12 &&
            e.start_s + e.duration_s <= (k + 1) * d.period_s + 1e-9) {
          found = true;
          break;
        }
      }
      if (!found) {
        std::ostringstream os;
        os << "device " << d.id << " instance " << k
           << " has no in-period primary transmission";
        return os.str();
      }
    }
  }

  // Recovery provisioning.
  if (cfg.recovery_slots > 0) {
    for (const auto& d : devices) {
      std::size_t recovery = 0;
      for (const auto& e : schedule.entries) {
        if (e.device == d.id && e.recovery) ++recovery;
      }
      const auto instances = static_cast<std::size_t>(
          std::llround(schedule.hyperperiod_s / d.period_s));
      if (recovery <
          instances * static_cast<std::size_t>(cfg.recovery_slots)) {
        return "missing recovery slots for device " + std::to_string(d.id);
      }
    }
  }
  return {};
}

}  // namespace zeiot::mac
