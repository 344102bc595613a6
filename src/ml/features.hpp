// Flat feature-vector dataset used by the classical classifiers (kNN and
// Gaussian naive Bayes) that back the CSI and RSSI
// sensing pipelines.
#pragma once

#include <vector>

namespace zeiot::ml {

/// Row-per-sample feature matrix.
using FeatureMatrix = std::vector<std::vector<double>>;

/// Labels aligned with FeatureMatrix rows.
using LabelVector = std::vector<int>;

}  // namespace zeiot::ml
