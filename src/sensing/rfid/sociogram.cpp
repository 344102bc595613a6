#include "sensing/rfid/sociogram.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace zeiot::sensing::rfid {

Sociogram::Sociogram(std::size_t num_children) : n_(num_children) {
  ZEIOT_CHECK_MSG(num_children >= 2, "a sociogram needs >= 2 children");
  w_.assign(n_ * (n_ - 1) / 2, 0.0);
}

std::size_t Sociogram::idx(ChildId a, ChildId b) const {
  ZEIOT_CHECK_MSG(a < n_ && b < n_ && a != b, "bad child pair");
  const std::size_t lo = std::min(a, b);
  const std::size_t hi = std::max(a, b);
  // Index into the flattened strict upper triangle.
  return lo * n_ - lo * (lo + 1) / 2 + (hi - lo - 1);
}

void Sociogram::accumulate(const std::vector<Sighting>& sightings) {
  for (std::size_t i = 0; i < sightings.size(); ++i) {
    const Sighting& a = sightings[i];
    ZEIOT_CHECK_MSG(a.child < n_, "sighting references unknown child");
    ZEIOT_CHECK_MSG(a.end_s >= a.start_s, "sighting interval inverted");
    for (std::size_t j = i + 1; j < sightings.size(); ++j) {
      const Sighting& b = sightings[j];
      if (a.child == b.child || a.zone != b.zone) continue;
      const double overlap =
          std::min(a.end_s, b.end_s) - std::max(a.start_s, b.start_s);
      if (overlap > 0.0) w_[idx(a.child, b.child)] += overlap;
    }
  }
}

double Sociogram::weight(ChildId a, ChildId b) const {
  return w_[idx(a, b)];
}

double Sociogram::total_copresence(ChildId c) const {
  ZEIOT_CHECK_MSG(c < n_, "unknown child");
  double total = 0.0;
  for (ChildId o = 0; o < n_; ++o) {
    if (o != c) total += weight(c, o);
  }
  return total;
}

std::vector<int> Sociogram::communities(Rng& rng, int max_rounds) const {
  ZEIOT_CHECK_MSG(max_rounds > 0, "need rounds");
  // Incidental co-presence (two groups visiting the same zone) creates a
  // weak background of cross-ties; label propagation on the raw graph
  // merges everything.  Vote only over *strong ties*: edges above the mean
  // positive weight.
  double sum = 0.0;
  std::size_t count = 0;
  for (double w : w_) {
    if (w > 0.0) {
      sum += w;
      ++count;
    }
  }
  const double threshold = count == 0 ? 0.0 : sum / static_cast<double>(count);

  std::vector<int> label(n_);
  for (std::size_t i = 0; i < n_; ++i) label[i] = static_cast<int>(i);

  std::vector<double> vote(n_);
  for (int round = 0; round < max_rounds; ++round) {
    bool changed = false;
    // Random visiting order breaks ties differently each round.
    const auto order = rng.permutation(n_);
    for (std::size_t oi = 0; oi < n_; ++oi) {
      const auto c = static_cast<ChildId>(order[oi]);
      std::fill(vote.begin(), vote.end(), 0.0);
      for (ChildId o = 0; o < n_; ++o) {
        if (o == c) continue;
        const double w = weight(c, o);
        if (w > threshold) vote[static_cast<std::size_t>(label[o])] += w;
      }
      const auto best = static_cast<int>(
          std::max_element(vote.begin(), vote.end()) - vote.begin());
      if (vote[static_cast<std::size_t>(best)] > 0.0 && best != label[c]) {
        label[c] = best;
        changed = true;
      }
    }
    if (!changed) break;
  }
  return label;
}

std::vector<ChildId> Sociogram::isolated(double fraction) const {
  ZEIOT_CHECK_MSG(fraction > 0.0 && fraction < 1.0, "fraction in (0,1)");
  std::vector<double> totals(n_);
  for (ChildId c = 0; c < n_; ++c) totals[c] = total_copresence(c);
  std::vector<double> sorted = totals;
  std::sort(sorted.begin(), sorted.end());
  const double median = sorted[n_ / 2];
  std::vector<ChildId> out;
  for (ChildId c = 0; c < n_; ++c) {
    if (totals[c] < fraction * median) out.push_back(c);
  }
  return out;
}

PlaygroundTruth simulate_playground(const PlaygroundConfig& cfg) {
  // Mean dwell per zone visit, the seed of the simulated day, and the
  // probability a child follows its group's current zone (vs wandering).
  constexpr double kDwellMeanS = 600.0;
  constexpr std::uint64_t kPlaygroundSeed = 99;
  constexpr double kCohesion = 0.8;
  ZEIOT_CHECK_MSG(cfg.num_children >= 4, "need children");
  ZEIOT_CHECK_MSG(cfg.num_groups >= 1, "need groups");
  ZEIOT_CHECK_MSG(cfg.loners < cfg.num_children, "too many loners");
  Rng rng(kPlaygroundSeed);
  PlaygroundTruth truth;
  truth.group_of_child.resize(cfg.num_children);
  // Groups are contiguous blocks of non-loner children; loners get group -1
  // (they still get some group label for Rand-index purposes: their own).
  const std::size_t grouped = cfg.num_children - cfg.loners;
  for (std::size_t c = 0; c < cfg.num_children; ++c) {
    if (c < grouped) {
      truth.group_of_child[c] =
          static_cast<int>(c * cfg.num_groups / grouped);
    } else {
      truth.group_of_child[c] = static_cast<int>(cfg.num_groups + c);
    }
  }

  // Each group hops between the busy zones (0..kPlaygroundZones-2); children
  // follow with kCohesion.  Loners avoid the crowd: they prefer the
  // quiet zone (the last one) and otherwise wander.
  const auto busy_zones = static_cast<std::int64_t>(kPlaygroundZones) - 1;
  std::vector<ZoneId> group_zone(cfg.num_groups);
  for (auto& z : group_zone) {
    z = static_cast<ZoneId>(rng.uniform_int(0, busy_zones - 1));
  }
  double t = 0.0;
  while (t < kPlaygroundDayS) {
    const double dwell =
        std::max(60.0, rng.exponential(1.0 / kDwellMeanS));
    const double end = std::min(kPlaygroundDayS, t + dwell);
    for (std::size_t c = 0; c < cfg.num_children; ++c) {
      ZoneId z;
      if (c < grouped) {
        z = rng.bernoulli(kCohesion)
                ? group_zone[static_cast<std::size_t>(truth.group_of_child[c])]
                : static_cast<ZoneId>(rng.uniform_int(0, busy_zones - 1));
      } else {
        z = rng.bernoulli(0.7)
                ? static_cast<ZoneId>(kPlaygroundZones - 1)  // quiet corner
                : static_cast<ZoneId>(rng.uniform_int(
                      0, static_cast<std::int64_t>(kPlaygroundZones) - 1));
      }
      truth.sightings.push_back({static_cast<ChildId>(c), z, t, end});
    }
    // Groups move on, preferring unoccupied play zones (a slide fits one
    // group at a time) — collisions still happen when zones run short.
    for (std::size_t gi = 0; gi < group_zone.size(); ++gi) {
      if (!rng.bernoulli(0.6)) continue;
      std::vector<double> weights(static_cast<std::size_t>(busy_zones), 1.0);
      for (std::size_t gj = 0; gj < group_zone.size(); ++gj) {
        if (gj != gi) weights[group_zone[gj]] = 0.15;  // crowded: avoid
      }
      group_zone[gi] = static_cast<ZoneId>(rng.weighted_index(weights));
    }
    t = end;
  }
  return truth;
}

double rand_index(const std::vector<int>& a, const std::vector<int>& b) {
  ZEIOT_CHECK_MSG(a.size() == b.size() && a.size() >= 2,
                  "partitions must align and have >= 2 elements");
  std::size_t agree = 0, total = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    for (std::size_t j = i + 1; j < a.size(); ++j) {
      const bool same_a = a[i] == a[j];
      const bool same_b = b[i] == b[j];
      if (same_a == same_b) ++agree;
      ++total;
    }
  }
  return static_cast<double>(agree) / static_cast<double>(total);
}

}  // namespace zeiot::sensing::rfid
