// Shared-medium occupancy log for the coexistence simulator: records each
// transmission as a [start, end) interval tagged with its medium, and
// reports band utilisation.  The MAC property tests audit grant
// exclusivity, carrier coverage and dummy/WLAN separation from the log.
#pragma once

#include <cstdint>
#include <vector>

#include "common/error.hpp"

namespace zeiot::mac {

/// What occupied the channel.
enum class Medium : std::uint8_t { Wlan, Dummy, Backscatter };

/// One completed transmission on the medium.
struct Transmission {
  double start = 0.0;
  double end = 0.0;
  std::uint32_t source = 0;  // caller-defined id
  Medium kind = Medium::Wlan;
};

class Channel {
 public:
  /// Registers a transmission.  Transmissions must be registered in
  /// non-decreasing start order.  Overlaps are logged as they are:
  /// backscatter rides a carrier, so overlap is not a collision here.
  void add(double start, double duration, std::uint32_t source, Medium kind);

  const std::vector<Transmission>& log() const { return log_; }

  /// Fraction of [0, horizon] with at least one active transmission.
  double utilization(double horizon) const;

 private:
  std::vector<Transmission> log_;
  double last_start_ = 0.0;
};

}  // namespace zeiot::mac
