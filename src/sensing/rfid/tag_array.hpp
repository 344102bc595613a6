// Body-posture recognition from an RFID tag array (paper Sec. III.A,
// Fig. 2(a) and Sec. IV.C's RF-Kinect use case): multiple passive tags on
// a person's body, read by a few fixed antennas; the backscatter phase of
// each (antenna, tag) pair encodes the round-trip distance, from which the
// skeleton configuration — and hence the posture — is recovered.
//
// Pipeline implemented here:
//  1. a jointed body model renders tag positions per posture,
//  2. the reader model produces per-(antenna, tag) RSSI and phase
//     (phase = 4*pi*d/lambda mod 2*pi, the dyadic backscatter phase),
//  3. tag ranges are recovered by phase disambiguation inside the
//     RSSI-resolved coarse bin, tags are trilaterated to 3-D, and
//  4. skeleton geometry features feed a posture classifier.
#pragma once

#include <string>
#include <vector>

#include "common/confusion.hpp"
#include "common/geometry.hpp"
#include "common/rng.hpp"
#include "ml/gaussian_nb.hpp"

namespace zeiot::sensing::rfid {

/// Body joints carrying tags (a simplified 8-tag suit).
enum class Joint {
  Head = 0,
  Chest,
  LeftWrist,
  RightWrist,
  Hip,
  LeftKnee,
  RightKnee,
  LeftAnkle,
};
inline constexpr int kNumJoints = 8;

/// Recognised whole-body postures.
enum class Posture { Standing = 0, Sitting, Lying, Bending };
inline constexpr int kNumPostures = 4;
std::string posture_name(Posture p);

/// The reader: four ceiling antennas over a 4 x 4 m cell at the UHF RFID
/// carrier, with the subject placed anywhere in its central 3 x 3 m.  The
/// geometry, the coarse-range error and the phase noise are fixed in
/// tag_array.cpp.

/// Ground-truth tag positions for a subject at `base` in posture `p`
/// (body scale ~1.7 m, small per-sample articulation noise).
std::vector<Point3D> tag_positions(Posture p, Point2D base, double scale,
                                   Rng& rng);

/// One reading: per antenna x joint, the coarse (RSSI) range and the
/// wrapped backscatter phase.
struct TagReading {
  std::vector<double> coarse_range_m;  // [antenna][joint] flattened
  std::vector<double> phase_rad;       // same layout
  int antennas = 0;
  int joints = 0;

  double coarse(int a, int j) const;
  double phase(int a, int j) const;
};

/// Simulates a reading of a subject in posture `p`.
TagReading read_tags(Posture p, Rng& rng);

/// Phase-refined range estimate: picks the phase-consistent range nearest
/// the coarse estimate (resolves the lambda/2 ambiguity of backscatter
/// phase).
double refine_range(double coarse_m, double phase_rad, double carrier_hz);

/// Least-squares trilateration of one tag from refined ranges (Gauss-
/// Newton, starting at the antenna centroid).
Point3D trilaterate(const std::vector<Point3D>& antennas,
                    const std::vector<double>& ranges);

/// Reconstructed skeleton: per-joint 3-D estimates.
std::vector<Point3D> reconstruct_skeleton(const TagReading& reading);

/// Posture-discriminating geometry features of a skeleton.
std::vector<double> skeleton_features(const std::vector<Point3D>& joints);

/// End-to-end posture recognizer: trains a likelihood model on simulated
/// readings and classifies new ones.
class PostureRecognizer {
 public:
  void train(int samples_per_posture, Rng& rng);
  Posture classify(const TagReading& reading) const;

  /// Full evaluation: fresh readings per posture, confusion matrix.
  ConfusionMatrix evaluate(int samples_per_posture, Rng& rng) const;

 private:
  ml::GaussianNaiveBayes nb_;
  bool trained_ = false;
};

}  // namespace zeiot::sensing::rfid
