#include "sensing/csi/localization.hpp"

#include <cmath>

namespace zeiot::sensing::csi {

std::string Pattern::name() const {
  std::string s = behavior == Behavior::Static ? "static" : "walking";
  s += "/";
  switch (antennas) {
    case AntennaConfig::Aligned: s += "aligned"; break;
    case AntennaConfig::Intermediate: s += "intermediate"; break;
    case AntennaConfig::Divergent: s += "divergent"; break;
  }
  return s;
}

std::vector<Pattern> all_patterns() {
  std::vector<Pattern> ps;
  for (Behavior b : {Behavior::Static, Behavior::Walking}) {
    for (AntennaConfig a : {AntennaConfig::Aligned, AntennaConfig::Intermediate,
                            AntennaConfig::Divergent}) {
      ps.push_back({b, a});
    }
  }
  return ps;
}

std::vector<Point2D> default_positions(int num_positions) {
  ZEIOT_CHECK_MSG(num_positions >= 2, "need at least two positions");
  // Positions on a ring between AP and client, spread over the room.
  std::vector<Point2D> pos;
  const Point2D c = phy::kCsiRoom.center();
  const double rx = phy::kCsiRoom.width() * 0.3;
  const double ry = phy::kCsiRoom.height() * 0.3;
  for (int i = 0; i < num_positions; ++i) {
    const double a =
        2.0 * M_PI * static_cast<double>(i) / static_cast<double>(num_positions);
    pos.push_back({c.x + rx * std::cos(a), c.y + ry * std::sin(a)});
  }
  return pos;
}

namespace {

/// Fraction of the shuffled captures that trains the classifier.
constexpr double kTrainFraction = 0.7;

/// Applies a pattern to the base environment / capture parameters.
struct PatternParams {
  phy::CsiEnvironment env;
  double body_jitter_m = 0.0;
  /// Feedback frames aggregated into one labelled sample.  A walking user
  /// produces a burst of distinct channel looks which the learning system
  /// averages — the mechanism behind the paper's observation that walking
  /// classifies better than standing still.
  int frames_per_sample = 1;
};

PatternParams apply_pattern(const phy::CsiEnvironment& base,
                            const Pattern& p) {
  PatternParams pp;
  pp.env = base;
  if (p.behavior == Behavior::Walking) {
    pp.body_jitter_m = 0.08;
    pp.frames_per_sample = 5;
  } else {
    pp.body_jitter_m = 0.02;
    pp.frames_per_sample = 1;
  }
  // Single static frames see the full device noise; a walking burst is
  // averaged, so its effective noise is much lower.
  pp.env.noise_sigma = base.noise_sigma * 2.0;
  switch (p.antennas) {
    case AntennaConfig::Aligned:
      // Identically oriented, tightly packed elements: the array is nearly
      // rank-1, so the fed-back angles are dominated by quantisation and
      // device noise rather than geometry.
      pp.env.antenna_spacing_m = 0.008;
      pp.env.noise_sigma *= 3.0;
      break;
    case AntennaConfig::Intermediate:
      pp.env.antenna_spacing_m = 0.04;
      pp.env.noise_sigma *= 1.5;
      break;
    case AntennaConfig::Divergent:
      pp.env.antenna_spacing_m = 0.08;
      break;
  }
  return pp;
}

/// Expands the 624 angle features to their (cos, sin) embedding so that
/// Euclidean classifiers respect the circular topology of phi (a phi just
/// below 2*pi is next to one just above 0).
std::vector<double> circular_embedding(const std::vector<double>& angles) {
  std::vector<double> out;
  out.reserve(angles.size() * 2);
  for (double a : angles) {
    out.push_back(std::cos(a));
    out.push_back(std::sin(a));
  }
  return out;
}

/// One labelled sample: the mean circular embedding over a burst of frames.
std::vector<double> capture_sample(const PatternParams& pp, Point2D position,
                                   Rng& rng) {
  std::vector<double> acc;
  for (int f = 0; f < pp.frames_per_sample; ++f) {
    const phy::CsiMatrix h =
        phy::generate_csi(pp.env, position, pp.body_jitter_m, rng);
    const auto features =
        circular_embedding(phy::compressed_feedback_features(h));
    if (acc.empty()) {
      acc = features;
    } else {
      for (std::size_t i = 0; i < acc.size(); ++i) acc[i] += features[i];
    }
  }
  for (double& v : acc) v /= static_cast<double>(pp.frames_per_sample);
  return acc;
}

/// Shared capture loop: `rng` advances exactly as run_localization's
/// pre-split phase always did, so factoring this out changed no bits.
LocalizationCaptures capture_into(const PatternParams& pp,
                                  const LocalizationConfig& cfg, Rng& rng) {
  const auto positions = default_positions(cfg.num_positions);
  LocalizationCaptures caps;
  for (int p = 0; p < cfg.num_positions; ++p) {
    for (int f = 0; f < cfg.frames_per_position; ++f) {
      caps.x.push_back(
          capture_sample(pp, positions[static_cast<std::size_t>(p)], rng));
      caps.y.push_back(p);
    }
  }
  return caps;
}

}  // namespace

LocalizationCaptures capture_localization_dataset(
    const phy::CsiEnvironment& base_env, const Pattern& pattern,
    const LocalizationConfig& cfg) {
  ZEIOT_CHECK_MSG(cfg.num_positions >= 2, "need >= 2 positions");
  ZEIOT_CHECK_MSG(cfg.frames_per_position >= 4, "need >= 4 frames/position");
  const PatternParams pp = apply_pattern(base_env, pattern);
  Rng rng(cfg.seed);
  return capture_into(pp, cfg, rng);
}

LocalizationResult run_localization(const phy::CsiEnvironment& base_env,
                                    const Pattern& pattern,
                                    const LocalizationConfig& cfg) {
  ZEIOT_CHECK_MSG(cfg.num_positions >= 2, "need >= 2 positions");
  ZEIOT_CHECK_MSG(cfg.frames_per_position >= 4, "need >= 4 frames/position");
  const PatternParams pp = apply_pattern(base_env, pattern);

  Rng rng(cfg.seed);
  auto [x, y] = capture_into(pp, cfg, rng);

  // Shuffled split.
  const auto order = rng.permutation(x.size());
  const auto n_train =
      static_cast<std::size_t>(kTrainFraction * static_cast<double>(x.size()));
  ml::FeatureMatrix xtr, xte;
  ml::LabelVector ytr, yte;
  for (std::size_t k = 0; k < order.size(); ++k) {
    if (k < n_train) {
      xtr.push_back(x[order[k]]);
      ytr.push_back(y[order[k]]);
    } else {
      xte.push_back(x[order[k]]);
      yte.push_back(y[order[k]]);
    }
  }

  ml::Standardizer std_;
  std_.fit(xtr);
  ml::KnnClassifier knn(cfg.knn_k);
  knn.fit(std_.transform(xtr), ytr);

  LocalizationResult res;
  res.pattern = pattern;
  res.feature_dim = x.front().size();
  res.confusion = ConfusionMatrix(static_cast<std::size_t>(cfg.num_positions));
  std::size_t correct = 0;
  for (std::size_t i = 0; i < xte.size(); ++i) {
    const int pred = knn.predict(std_.transform(xte[i]));
    res.confusion.add(static_cast<std::size_t>(yte[i]),
                      static_cast<std::size_t>(pred));
    if (pred == yte[i]) ++correct;
  }
  res.accuracy = xte.empty() ? 0.0
                             : static_cast<double>(correct) /
                                   static_cast<double>(xte.size());
  return res;
}

std::vector<LocalizationResult> run_all_patterns(
    const phy::CsiEnvironment& base_env, const LocalizationConfig& cfg) {
  std::vector<LocalizationResult> out;
  for (const Pattern& p : all_patterns()) {
    out.push_back(run_localization(base_env, p, cfg));
  }
  return out;
}

}  // namespace zeiot::sensing::csi
