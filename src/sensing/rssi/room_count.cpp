#include "sensing/rssi/room_count.hpp"

#include <algorithm>
#include <cmath>

#include "common/units.hpp"

namespace zeiot::sensing::rssi {

namespace {

// 802.15.4 radio model.  Shadowing is mild: the deployment is static and
// measurements are averaged over a synchronized Choco round.
constexpr double kTxPowerDbm = 0.0;
constexpr double kPathLossExp = 2.0;
constexpr double kLoss1mDb = 40.0;
constexpr double kShadowingSigmaDb = 0.5;
// Attenuation per person standing within the link corridor.
constexpr double kBodyLossDb = 5.0;
constexpr double kCorridorWidthM = 0.55;
// Fraction of people carrying an emitting device.
constexpr double kDeviceCarryProb = 0.9;
constexpr double kDeviceTxDbm = -5.0;
constexpr double kNoiseFloorDbm = -95.0;

std::vector<Point2D> node_layout() {
  // Nodes around the room perimeter (typical for structural monitoring /
  // smart-meter deployments repurposed for sensing).
  std::vector<Point2D> nodes;
  for (int i = 0; i < kRoomNodes; ++i) {
    const double t = static_cast<double>(i) / static_cast<double>(kRoomNodes);
    const double perim = 2.0 * (kRoom.width() + kRoom.height());
    double s = t * perim;
    Point2D p;
    if (s < kRoom.width()) {
      p = {kRoom.x0 + s, kRoom.y0 + 0.2};
    } else if ((s -= kRoom.width()) < kRoom.height()) {
      p = {kRoom.x1 - 0.2, kRoom.y0 + s};
    } else if ((s -= kRoom.height()) < kRoom.width()) {
      p = {kRoom.x1 - s, kRoom.y1 - 0.2};
    } else {
      s -= kRoom.width();
      p = {kRoom.x0 + 0.2, kRoom.y1 - s};
    }
    nodes.push_back(p);
  }
  return nodes;
}

double seg_distance(Point2D a, Point2D b, Point2D p) {
  const double dx = b.x - a.x, dy = b.y - a.y;
  const double len2 = dx * dx + dy * dy;
  if (len2 == 0.0) return distance(a, p);
  double t = ((p.x - a.x) * dx + (p.y - a.y) * dy) / len2;
  t = std::clamp(t, 0.0, 1.0);
  return distance({a.x + t * dx, a.y + t * dy}, p);
}

double link_rssi(Point2D a, Point2D b, const std::vector<Point2D>& people) {
  const double d = std::max(0.3, distance(a, b));
  double rssi = kTxPowerDbm - kLoss1mDb - 10.0 * kPathLossExp * std::log10(d);
  for (const Point2D& p : people) {
    if (seg_distance(a, b, p) < kCorridorWidthM) {
      rssi -= kBodyLossDb;
    }
  }
  return std::max(rssi, kNoiseFloorDbm);
}

}  // namespace

std::vector<double> empty_baseline() {
  const auto nodes = node_layout();
  std::vector<double> base;
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    for (std::size_t j = i + 1; j < nodes.size(); ++j) {
      base.push_back(link_rssi(nodes[i], nodes[j], {}));
    }
  }
  return base;
}

RoomMeasurement measure_room(int people, Rng& rng) {
  ZEIOT_CHECK_MSG(people >= 0, "people must be >= 0");
  const auto nodes = node_layout();
  RoomMeasurement m;
  m.true_count = people;

  std::vector<Point2D> occupants;
  for (int p = 0; p < people; ++p) {
    occupants.push_back({rng.uniform(kRoom.x0 + 0.5, kRoom.x1 - 0.5),
                         rng.uniform(kRoom.y0 + 0.5, kRoom.y1 - 0.5)});
  }

  for (std::size_t i = 0; i < nodes.size(); ++i) {
    for (std::size_t j = i + 1; j < nodes.size(); ++j) {
      const double mu = link_rssi(nodes[i], nodes[j], occupants);
      m.inter_node_rssi.push_back(std::max(
          kNoiseFloorDbm, mu + rng.normal(0.0, kShadowingSigmaDb)));
    }
  }

  // Surrounding RSSI: total foreign power at each node from carried devices.
  for (const Point2D& n : nodes) {
    double watt = dbm_to_watt(kNoiseFloorDbm);
    for (const Point2D& o : occupants) {
      if (!rng.bernoulli(kDeviceCarryProb)) continue;
      const double d = std::max(0.3, distance(n, o));
      const double rssi = kDeviceTxDbm - kLoss1mDb -
                          10.0 * kPathLossExp * std::log10(d) +
                          rng.normal(0.0, kShadowingSigmaDb);
      watt += dbm_to_watt(rssi);
    }
    m.surrounding_rssi.push_back(watt_to_dbm(watt));
  }
  return m;
}

RoomCountEstimator::RoomCountEstimator() : baseline_(empty_baseline()) {}

std::vector<double> RoomCountEstimator::features(
    const RoomMeasurement& m) const {
  ZEIOT_CHECK_MSG(m.inter_node_rssi.size() == baseline_.size(),
                  "measurement/baseline size mismatch");
  double dev_sum = 0.0, dev_max = 0.0;
  int blocked = 0, touched = 0;
  double blocked_depth = 0.0;
  for (std::size_t i = 0; i < baseline_.size(); ++i) {
    const double dev = baseline_[i] - m.inter_node_rssi[i];
    dev_sum += dev;
    dev_max = std::max(dev_max, dev);
    if (dev > kBodyLossDb * 0.8) {
      ++blocked;
      // Quantised blockage depth: a link crossed by k people loses
      // roughly k * body_loss, so the rounded ratio counts crossers.
      blocked_depth += std::round(dev / kBodyLossDb);
    }
    if (dev > kBodyLossDb * 0.4) ++touched;
  }
  const double dev_mean = dev_sum / static_cast<double>(baseline_.size());

  double sur_sum = 0.0, sur_max = -1e9;
  double sur_linear_w = 0.0;
  for (double s : m.surrounding_rssi) {
    sur_sum += s;
    sur_max = std::max(sur_max, s);
    sur_linear_w += dbm_to_watt(s);
  }
  const double sur_mean =
      sur_sum / static_cast<double>(m.surrounding_rssi.size());
  return {dev_mean,
          dev_max,
          static_cast<double>(blocked),
          static_cast<double>(touched),
          blocked_depth,
          sur_mean,
          sur_max,
          std::log10(sur_linear_w + 1e-15)};
}

void RoomCountEstimator::train(int rounds_per_count, Rng& rng) {
  ZEIOT_CHECK_MSG(rounds_per_count > 0, "need training rounds");
  ml::FeatureMatrix x;
  ml::LabelVector y;
  for (int c = 0; c <= kMaxPeople; ++c) {
    for (int r = 0; r < rounds_per_count; ++r) {
      x.push_back(features(measure_room(c, rng)));
      y.push_back(c);
    }
  }
  nb_.fit(x, y);
  trained_ = true;
}

int RoomCountEstimator::estimate(const RoomMeasurement& m) const {
  ZEIOT_CHECK_MSG(trained_, "RoomCountEstimator::train first");
  return nb_.predict(features(m));
}

RoomEvalResult evaluate_room_pipeline(int train_rounds_per_count,
                                      int eval_rounds_per_count, Rng& rng) {
  RoomCountEstimator est;
  est.train(train_rounds_per_count, rng);
  RoomEvalResult res;
  res.confusion = ConfusionMatrix(static_cast<std::size_t>(kMaxPeople + 1));
  for (int c = 0; c <= kMaxPeople; ++c) {
    for (int r = 0; r < eval_rounds_per_count; ++r) {
      const auto m = measure_room(c, rng);
      const int pred = est.estimate(m);
      res.confusion.add(static_cast<std::size_t>(c),
                        static_cast<std::size_t>(pred));
    }
  }
  res.exact_accuracy = res.confusion.accuracy();
  res.within_two_accuracy = res.confusion.accuracy_within(2);
  res.mean_absolute_error = res.confusion.mean_absolute_error();
  return res;
}

}  // namespace zeiot::sensing::rssi
