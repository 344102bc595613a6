#include <gtest/gtest.h>

#include <cmath>

#include "common/units.hpp"
#include "sensing/rfid/sociogram.hpp"
#include "sensing/rfid/tag_array.hpp"
#include "sensing/rfid/trajectory.hpp"

namespace zeiot::sensing::rfid {
namespace {

// -------------------------------------------------------------- tag array --

TEST(TagArray, PostureNamesDistinct) {
  EXPECT_EQ(posture_name(Posture::Standing), "standing");
  EXPECT_EQ(posture_name(Posture::Lying), "lying");
}

TEST(TagArray, PosturesHaveDistinctGeometry) {
  Rng rng(1);
  const auto standing = tag_positions(Posture::Standing, {2.0, 2.0}, 1.7, rng);
  const auto lying = tag_positions(Posture::Lying, {2.0, 2.0}, 1.7, rng);
  ASSERT_EQ(standing.size(), static_cast<std::size_t>(kNumJoints));
  // Standing head is high; lying head is near the floor.
  EXPECT_GT(standing[static_cast<int>(Joint::Head)].z, 1.4);
  EXPECT_LT(lying[static_cast<int>(Joint::Head)].z, 0.4);
}

TEST(TagArray, ReadingShape) {
  Rng rng(2);
  const auto r = read_tags(Posture::Standing, rng);
  EXPECT_EQ(r.antennas, 4);
  EXPECT_EQ(r.joints, kNumJoints);
  EXPECT_EQ(r.phase_rad.size(), static_cast<std::size_t>(4 * kNumJoints));
  for (double ph : r.phase_rad) {
    EXPECT_GE(ph, 0.0);
    EXPECT_LT(ph, 2.0 * M_PI + 1e-9);
  }
}

TEST(TagArray, RefineRangeResolvesAmbiguity) {
  const double carrier = 920e6;
  const double lambda = wavelength_m(carrier);
  for (double true_d : {0.8, 1.7, 2.9, 4.2}) {
    const double phase = std::fmod(4.0 * M_PI * true_d / lambda, 2.0 * M_PI);
    // Coarse estimate off by up to a third of the ambiguity step.
    const double coarse = true_d + 0.3 * lambda / 2.0;
    EXPECT_NEAR(refine_range(coarse, phase, carrier), true_d, 1e-9);
  }
}

TEST(TagArray, TrilaterationRecoversPosition) {
  const std::vector<Point3D> antennas{
      {0.0, 0.0, 2.5}, {4.0, 0.0, 2.5}, {0.0, 4.0, 2.5}, {4.0, 4.0, 2.5}};
  const Point3D truth{1.5, 2.2, 0.9};
  std::vector<double> ranges;
  for (const auto& a : antennas) ranges.push_back(distance(a, truth));
  const Point3D est = trilaterate(antennas, ranges);
  EXPECT_NEAR(distance(est, truth), 0.0, 0.05);
}

TEST(TagArray, SkeletonReconstructionAccurate) {
  Rng rng(3);
  // Render a known subject and reconstruct it.
  const auto r = read_tags(Posture::Standing, rng);
  const auto joints = reconstruct_skeleton(r);
  ASSERT_EQ(joints.size(), static_cast<std::size_t>(kNumJoints));
  // Head must be clearly above the ankle in a standing reconstruction.
  EXPECT_GT(joints[static_cast<int>(Joint::Head)].z,
            joints[static_cast<int>(Joint::LeftAnkle)].z + 0.8);
}

TEST(TagArray, FeaturesDiscriminateStandingFromLying) {
  Rng rng(4);
  const auto fs = skeleton_features(
      reconstruct_skeleton(read_tags(Posture::Standing, rng)));
  const auto fl = skeleton_features(
      reconstruct_skeleton(read_tags(Posture::Lying, rng)));
  // Torso verticality collapses when lying.
  EXPECT_GT(fs[0], fl[0] + 0.3);
  // Vertical extent collapses too.
  EXPECT_GT(fs[1], fl[1] + 0.5);
}

TEST(TagArray, PostureRecognizerAccuracy) {
  PostureRecognizer rec;
  Rng rng(5);
  rec.train(40, rng);
  const auto cm = rec.evaluate(25, rng);
  EXPECT_GT(cm.accuracy(), 0.9);
}

TEST(TagArray, RecognizerRequiresTraining) {
  PostureRecognizer rec;
  Rng rng(6);
  const auto r = read_tags(Posture::Standing, rng);
  EXPECT_THROW(rec.classify(r), Error);
}

// ------------------------------------------------------------- trajectory --

TEST(Trajectory, UnwrapRecoversMonotonePhase) {
  // A steadily increasing true phase wrapped into [0, 2pi).
  std::vector<double> wrapped;
  for (int i = 0; i < 100; ++i) {
    wrapped.push_back(std::fmod(0.4 * i, 2.0 * M_PI));
  }
  const auto u = unwrap_phase(wrapped);
  for (int i = 1; i < 100; ++i) {
    EXPECT_NEAR(u[static_cast<std::size_t>(i)] -
                    u[static_cast<std::size_t>(i - 1)],
                0.4, 1e-9);
  }
}

TEST(Trajectory, DetectsInwardCrossing) {
  Rng rng(9);
  const auto track = simulate_track({-3.0, 0.3}, {1.2, 0.0}, 5.0, rng);
  const auto ev = detect_crossing(track);
  EXPECT_EQ(ev.direction, CrossingDirection::Inward);
  EXPECT_NEAR(ev.speed_mps, 1.2, 0.3);
}

TEST(Trajectory, DetectsOutwardCrossing) {
  Rng rng(10);
  const auto track = simulate_track({3.0, -0.3}, {-0.9, 0.0}, 7.0, rng);
  const auto ev = detect_crossing(track);
  EXPECT_EQ(ev.direction, CrossingDirection::Outward);
  EXPECT_NEAR(ev.speed_mps, 0.9, 0.25);
}

TEST(Trajectory, NoCrossingWhenTagStaysOutside) {
  Rng rng(11);
  // Parallel to the boundary, far away: never crosses.
  const auto track = simulate_track({-5.0, 3.0}, {0.0, 0.5}, 5.0, rng);
  const auto ev = detect_crossing(track);
  EXPECT_EQ(ev.direction, CrossingDirection::None);
}

TEST(Trajectory, MissedReadsBeyondRange) {
  Rng rng(12);
  const auto track = simulate_track({10.0, 0.0}, {0.1, 0.0}, 2.0, rng);
  for (double ph : track.phase_a_rad) EXPECT_TRUE(std::isnan(ph));
}

// -------------------------------------------------------------- sociogram --

TEST(Sociogram, WeightAccumulation) {
  Sociogram g(3);
  // Children 0 and 1 overlap 30 s in zone 5; child 2 elsewhere.
  g.accumulate({{0, 5, 0.0, 60.0}, {1, 5, 30.0, 90.0}, {2, 7, 0.0, 90.0}});
  EXPECT_DOUBLE_EQ(g.weight(0, 1), 30.0);
  EXPECT_DOUBLE_EQ(g.weight(0, 2), 0.0);
  EXPECT_DOUBLE_EQ(g.weight(1, 2), 0.0);
  EXPECT_DOUBLE_EQ(g.total_copresence(0), 30.0);
}

TEST(Sociogram, SameZoneDifferentTimesDoNotCount) {
  Sociogram g(2);
  g.accumulate({{0, 1, 0.0, 10.0}, {1, 1, 20.0, 30.0}});
  EXPECT_DOUBLE_EQ(g.weight(0, 1), 0.0);
}

TEST(Sociogram, RejectsBadInput) {
  EXPECT_THROW(Sociogram(1), Error);
  Sociogram g(2);
  EXPECT_THROW(g.weight(0, 0), Error);
  EXPECT_THROW(g.accumulate({{5, 1, 0.0, 1.0}}), Error);
}

TEST(Sociogram, CommunitiesRecoverPlantedGroups) {
  PlaygroundConfig cfg;
  cfg.loners = 0;
  const auto truth = simulate_playground(cfg);
  Sociogram g(cfg.num_children);
  g.accumulate(truth.sightings);
  Rng rng(13);
  const auto detected = g.communities(rng);
  EXPECT_GT(rand_index(detected, truth.group_of_child), 0.85);
}

TEST(Sociogram, IsolatedChildrenSurface) {
  PlaygroundConfig cfg;
  cfg.loners = 2;
  const auto truth = simulate_playground(cfg);
  Sociogram g(cfg.num_children);
  g.accumulate(truth.sightings);
  const auto iso = g.isolated(0.5);
  // The loners (the last `loners` ids) should dominate the isolated list.
  std::size_t loners_found = 0;
  for (ChildId c : iso) {
    if (c >= cfg.num_children - cfg.loners) ++loners_found;
  }
  EXPECT_GE(loners_found, 1u);
}

TEST(Sociogram, RandIndexProperties) {
  const std::vector<int> a{0, 0, 1, 1};
  EXPECT_DOUBLE_EQ(rand_index(a, a), 1.0);
  const std::vector<int> b{1, 1, 0, 0};  // same partition, renamed
  EXPECT_DOUBLE_EQ(rand_index(a, b), 1.0);
  const std::vector<int> c{0, 1, 0, 1};
  EXPECT_LT(rand_index(a, c), 1.0);
}

TEST(Sociogram, PlaygroundGeneratorShapes) {
  PlaygroundConfig cfg;
  const auto truth = simulate_playground(cfg);
  EXPECT_EQ(truth.group_of_child.size(), cfg.num_children);
  EXPECT_FALSE(truth.sightings.empty());
  for (const auto& s : truth.sightings) {
    EXPECT_LT(s.child, cfg.num_children);
    EXPECT_LT(s.zone, kPlaygroundZones);
    EXPECT_LE(s.start_s, s.end_s);
    EXPECT_LE(s.end_s, kPlaygroundDayS + 1e-9);
  }
}

}  // namespace
}  // namespace zeiot::sensing::rfid
