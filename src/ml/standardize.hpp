// Per-feature standardisation (z-scoring) fitted on training data and
// applied to held-out data — required by the distance-based classifiers.
#pragma once

#include "ml/features.hpp"

namespace zeiot::ml {

class Standardizer {
 public:
  /// Learns per-column mean and standard deviation from `x` (non-empty,
  /// rectangular).  Columns with zero variance are passed through unscaled.
  void fit(const FeatureMatrix& x);

  /// Applies the learned transform.  Must be fitted first; column count must
  /// match the fitted data.
  std::vector<double> transform(const std::vector<double>& row) const;
  FeatureMatrix transform(const FeatureMatrix& x) const;

  bool fitted() const { return !mean_.empty(); }

 private:
  std::vector<double> mean_;
  std::vector<double> inv_std_;
};

}  // namespace zeiot::ml
