// Slotted CSMA/CA (IEEE 802.11 DCF style) contention simulator.
//
// The paper's research challenge (Sec. V) is collision avoidance when many
// IoT devices share a band.  This model captures the canonical dynamics:
// stations with saturated or stochastic queues contend with binary
// exponential backoff; simultaneous counter expiry collides; throughput
// peaks at moderate populations and decays as collisions dominate (the
// Bianchi curve).
#pragma once

#include <cstddef>
#include <vector>

#include "common/rng.hpp"
#include "obs/obs.hpp"

namespace zeiot::mac {

struct CsmaConfig {
  std::size_t num_stations = 10;
  /// Contention window bounds (slots), doubling per retry.
  int cw_min = 16;
  int cw_max = 1024;
  /// Retry limit before a frame is dropped.
  int max_retries = 7;
  /// Frame duration in slots (data + SIFS + ACK).
  int frame_slots = 40;
  /// Saturated stations always have a frame; otherwise per-slot arrival
  /// probability per station.
  bool saturated = true;
  double arrival_per_slot = 0.01;
  std::uint64_t seed = 1;
};

struct CsmaMetrics {
  std::size_t slots_simulated = 0;
  std::size_t successes = 0;
  std::size_t collisions = 0;   // collision events (>= 2 stations)
  std::size_t drops = 0;        // frames exceeding the retry limit
  double throughput = 0.0;      // fraction of slots carrying a success
  double collision_probability = 0.0;  // collisions / tx opportunities
  double mean_access_delay_slots = 0.0;
  /// Per-station success counts (fairness check).
  std::vector<std::size_t> per_station_successes;

  /// Jain's fairness index over per-station successes (1 = perfectly fair).
  double jain_fairness() const;
};

/// Runs the contention process for `slots` idle-slot units.
///
/// When `obs` is non-null the run emits, labeled with the station count and
/// saturation mode:
///   mac.csma.successes / mac.csma.collisions / mac.csma.drops /
///   mac.csma.tx_opportunities   (counters)
///   mac.csma.throughput / mac.csma.collision_probability  (gauges)
/// plus PacketTx / PacketCollision instant spans at t = slot index (a =
/// winning station or collider count) when the context records spans.
CsmaMetrics simulate_csma(const CsmaConfig& cfg, std::size_t slots,
                          obs::Observability* obs = nullptr);

}  // namespace zeiot::mac
