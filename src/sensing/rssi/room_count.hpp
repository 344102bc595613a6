// People-count estimation on an already-deployed IEEE 802.15.4 WSN from two
// kinds of synchronized RSSI — reproduction of paper Sec. IV.B (ref [66]).
//
//  * inter-node RSSI: signal strength on links between the WSN's own nodes;
//    people crossing a link's Fresnel corridor attenuate it, so the
//    deviation from the empty-room baseline encodes the crowd size;
//  * surrounding RSSI: power received from transmissions the WSN nodes did
//    not send — i.e. the devices people carry — so it encodes the device
//    (and hence people) count.
// Both are sampled in the same synchronized round ("Choco" simultaneous
// transmission; see choco.hpp).
#pragma once

#include <vector>

#include "common/confusion.hpp"
#include "common/geometry.hpp"
#include "common/rng.hpp"
#include "ml/gaussian_nb.hpp"

namespace zeiot::sensing::rssi {

/// The testbed: a laboratory room with kRoomNodes 802.15.4 nodes around
/// its perimeter, holding 0..kMaxPeople people (the occupancies the
/// estimator learns and is evaluated on).  The radio and body model is
/// fixed in room_count.cpp.
inline constexpr Rect kRoom{0.0, 0.0, 7.0, 5.0};
inline constexpr int kRoomNodes = 10;
inline constexpr int kMaxPeople = 10;

/// One synchronized measurement round.
struct RoomMeasurement {
  int true_count = 0;
  /// Inter-node RSSI per (unordered) node pair, flattened i<j order.
  std::vector<double> inter_node_rssi;
  /// Surrounding RSSI per node (aggregate power of foreign emitters).
  std::vector<double> surrounding_rssi;
};

/// Generates one measurement round with `people` occupants at random
/// positions.
RoomMeasurement measure_room(int people, Rng& rng);

/// The empty-room inter-node baseline (deterministic part of the model).
std::vector<double> empty_baseline();

/// Count estimator: likelihood model over handcrafted features
/// (mean/max baseline deviation, number of strongly attenuated links,
/// mean/max surrounding power).
class RoomCountEstimator {
 public:
  RoomCountEstimator();

  void train(int rounds_per_count, Rng& rng);
  int estimate(const RoomMeasurement& m) const;

  /// Feature vector used by the model (exposed for tests).
  std::vector<double> features(const RoomMeasurement& m) const;

 private:
  std::vector<double> baseline_;
  ml::GaussianNaiveBayes nb_;
  bool trained_ = false;
};

struct RoomEvalResult {
  ConfusionMatrix confusion{1};
  double exact_accuracy = 0.0;
  double within_two_accuracy = 0.0;
  double mean_absolute_error = 0.0;
};

/// End-to-end: train, then evaluate on `eval_rounds` rounds per count.
RoomEvalResult evaluate_room_pipeline(int train_rounds_per_count,
                                      int eval_rounds_per_count, Rng& rng);

}  // namespace zeiot::sensing::rssi
