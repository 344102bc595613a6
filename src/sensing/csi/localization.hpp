// Device-free localization from 802.11ac compressed-beamforming feedback —
// reproduction of the CSI learning system of paper Sec. IV.B (ref [8]).
//
// The system captures CSI feedback frames between an AP and its client,
// extracts 624 features per frame (12 Givens angles x 52 subcarriers for a
// 4x3 steering matrix), labels them with the person's position (7 discrete
// spots), and trains a classifier.  Six patterns are evaluated: the user's
// behaviour (static vs walking) crossed with the AP antenna-array
// configuration (aligned / intermediate / divergent orientations).
#pragma once

#include <string>
#include <vector>

#include "common/confusion.hpp"
#include "ml/knn.hpp"
#include "ml/standardize.hpp"
#include "phy/beamforming.hpp"

namespace zeiot::sensing::csi {

/// User behaviour during capture.
enum class Behavior { Static, Walking };

/// AP antenna-array configuration.  More orientation divergence between the
/// elements yields richer spatial signatures (the paper's finding).
enum class AntennaConfig { Aligned, Intermediate, Divergent };

struct Pattern {
  Behavior behavior = Behavior::Walking;
  AntennaConfig antennas = AntennaConfig::Divergent;

  std::string name() const;
};

/// All six evaluation patterns of the paper.
std::vector<Pattern> all_patterns();

struct LocalizationConfig {
  /// Number of discrete positions (the paper uses seven).
  int num_positions = 7;
  /// Feedback frames captured per position.
  /// 70% of the frames train the classifier, the rest test it.
  int frames_per_position = 60;
  int knn_k = 5;
  std::uint64_t seed = 11;
};

struct LocalizationResult {
  Pattern pattern;
  double accuracy = 0.0;
  ConfusionMatrix confusion{1};
  /// Classifier-facing dimensionality: the captured angle features (624
  /// for the paper's 4x3/52-subcarrier configuration) embedded as
  /// (cos, sin) pairs to respect the angles' circular topology.
  std::size_t feature_dim = 0;
};

/// The candidate positions, on a ring laid out in phy::kCsiRoom.
std::vector<Point2D> default_positions(int num_positions);

/// Labelled classifier-facing captures of one pattern: x[i] is the
/// circular (cos, sin) embedding of one averaged feedback burst, y[i] the
/// position label.  These are exactly the samples run_localization draws
/// before its train/test split — exposed so a serving front-end
/// (zeiot::serve) can train on one capture set and keep another as its
/// request pool.
struct LocalizationCaptures {
  ml::FeatureMatrix x;
  ml::LabelVector y;
};

LocalizationCaptures capture_localization_dataset(
    const phy::CsiEnvironment& base_env, const Pattern& pattern,
    const LocalizationConfig& cfg);

/// Runs capture -> feature extraction -> train/test for one pattern.
LocalizationResult run_localization(const phy::CsiEnvironment& base_env,
                                    const Pattern& pattern,
                                    const LocalizationConfig& cfg);

/// Convenience: runs all six patterns.
std::vector<LocalizationResult> run_all_patterns(
    const phy::CsiEnvironment& base_env, const LocalizationConfig& cfg);

}  // namespace zeiot::sensing::csi
