// Sociogram construction from zone-level tag sightings (paper Sec. III.C,
// application context (iv)): RFID tags on kindergarten children's clothes,
// Wi-Fi base stations with deliberately limited reach covering play
// equipment / classrooms / corridors; each station logs which tags are
// present.  Overlapping presence accumulates into a weighted friendship
// graph, whose communities and isolated members the sociogram surfaces.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.hpp"

namespace zeiot::sensing::rfid {

using ChildId = std::uint32_t;
using ZoneId = std::uint32_t;

/// One presence interval of a tag in a zone.
struct Sighting {
  ChildId child = 0;
  ZoneId zone = 0;
  double start_s = 0.0;
  double end_s = 0.0;
};

/// Weighted co-presence graph over children.
class Sociogram {
 public:
  explicit Sociogram(std::size_t num_children);

  /// Accumulates pairwise co-presence seconds from sightings (same zone,
  /// overlapping time).
  void accumulate(const std::vector<Sighting>& sightings);

  std::size_t num_children() const { return n_; }
  double weight(ChildId a, ChildId b) const;
  double total_copresence(ChildId c) const;

  /// Community detection by synchronous label propagation with
  /// weight-majority voting; deterministic given the seed.  Returns one
  /// community label per child (labels are arbitrary but consistent).
  std::vector<int> communities(Rng& rng, int max_rounds = 50) const;

  /// Children whose total co-presence is below `fraction` of the median —
  /// the "isolated children" the paper wants a sociogram to reveal.
  std::vector<ChildId> isolated(double fraction = 0.25) const;

 private:
  std::size_t n_;
  std::vector<double> w_;  // upper-triangular weights, flattened
  std::size_t idx(ChildId a, ChildId b) const;
};

/// Ground truth for the synthetic playground generator.
struct PlaygroundTruth {
  std::vector<int> group_of_child;  // friendship group per child
  std::vector<Sighting> sightings;
};

/// The playground: kPlaygroundZones play zones (the last a quiet corner)
/// over a kPlaygroundDayS-second day, visited for 10 minutes on average.
/// A grouped child follows its group's zone with probability 0.8 and
/// otherwise wanders.
inline constexpr std::size_t kPlaygroundZones = 6;
inline constexpr double kPlaygroundDayS = 4.0 * 3600.0;

struct PlaygroundConfig {
  std::size_t num_children = 24;
  std::size_t num_groups = 4;
  /// Children that play alone regardless of group.
  std::size_t loners = 2;
};

/// Simulates a playground day: groups move between zones together (with
/// per-child wandering), loners drift alone.  Returns sightings + truth.
PlaygroundTruth simulate_playground(const PlaygroundConfig& cfg);

/// Agreement between detected communities and ground-truth groups:
/// fraction of child pairs on which both partitions agree (Rand index).
double rand_index(const std::vector<int>& a, const std::vector<int>& b);

}  // namespace zeiot::sensing::rfid
