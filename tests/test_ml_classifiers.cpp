#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "ml/gaussian_nb.hpp"
#include "ml/knn.hpp"
#include "ml/standardize.hpp"

namespace zeiot::ml {
namespace {

/// Three well-separated Gaussian blobs in 4-D.
void make_blobs(std::size_t per_class, std::uint64_t seed, FeatureMatrix& x,
                LabelVector& y, double spread = 0.5) {
  Rng rng(seed);
  const double centers[3][4] = {
      {0.0, 0.0, 0.0, 0.0}, {4.0, 4.0, 0.0, -2.0}, {-4.0, 2.0, 3.0, 1.0}};
  for (int c = 0; c < 3; ++c) {
    for (std::size_t i = 0; i < per_class; ++i) {
      std::vector<double> row(4);
      for (int j = 0; j < 4; ++j) {
        row[static_cast<std::size_t>(j)] =
            centers[c][j] + rng.normal(0.0, spread);
      }
      x.push_back(std::move(row));
      y.push_back(c);
    }
  }
}

TEST(Standardizer, ZeroMeanUnitVariance) {
  FeatureMatrix x;
  LabelVector y;
  make_blobs(100, 1, x, y);
  Standardizer s;
  s.fit(x);
  const auto xt = s.transform(x);
  for (std::size_t j = 0; j < 4; ++j) {
    double mean = 0.0, var = 0.0;
    for (const auto& row : xt) mean += row[j];
    mean /= static_cast<double>(xt.size());
    for (const auto& row : xt) var += (row[j] - mean) * (row[j] - mean);
    var /= static_cast<double>(xt.size());
    EXPECT_NEAR(mean, 0.0, 1e-9);
    EXPECT_NEAR(var, 1.0, 1e-9);
  }
}

TEST(Standardizer, ConstantColumnPassesThrough) {
  FeatureMatrix x{{1.0, 5.0}, {2.0, 5.0}, {3.0, 5.0}};
  Standardizer s;
  s.fit(x);
  const auto t = s.transform(x[0]);
  EXPECT_NEAR(t[1], 0.0, 1e-12);  // centred but not scaled to infinity
  EXPECT_TRUE(std::isfinite(t[1]));
}

TEST(Standardizer, RejectsMisuse) {
  Standardizer s;
  EXPECT_THROW(s.transform(std::vector<double>{1.0}), Error);
  EXPECT_THROW(s.fit({}), Error);
  s.fit({{1.0, 2.0}});
  EXPECT_THROW(s.transform(std::vector<double>{1.0}), Error);
}

TEST(Knn, SeparableBlobsPerfect) {
  FeatureMatrix x;
  LabelVector y;
  make_blobs(60, 2, x, y, 0.3);
  KnnClassifier knn(5);
  knn.fit(x, y);
  EXPECT_GT(knn.score(x, y), 0.99);
}

TEST(Knn, HoldOutGeneralization) {
  FeatureMatrix xtr, xte;
  LabelVector ytr, yte;
  make_blobs(80, 3, xtr, ytr, 0.6);
  make_blobs(30, 4, xte, yte, 0.6);
  KnnClassifier knn(7);
  knn.fit(xtr, ytr);
  EXPECT_GT(knn.score(xte, yte), 0.95);
}

TEST(Knn, KOneMemorizes) {
  FeatureMatrix x;
  LabelVector y;
  make_blobs(20, 5, x, y, 2.5);  // overlapping blobs
  KnnClassifier knn(1);
  knn.fit(x, y);
  EXPECT_DOUBLE_EQ(knn.score(x, y), 1.0);  // 1-NN on training data is exact
}

TEST(Knn, DistanceTiesBreakByTrainingIndex) {
  // Regression: neighbor selection used to sort (distance, label) pairs
  // with an unstable partial sort, so equidistant training points entered
  // the k-set in label (or implementation-defined) order.  Ties must break
  // by training index: the four points below are all at distance 1 from
  // the query, so k=2 selects indices 0 and 1 — both label 1 — even though
  // label-ordered selection would have picked the two label-0 points.
  FeatureMatrix x{{1.0}, {-1.0}, {1.0}, {-1.0}};
  LabelVector y{1, 1, 0, 0};
  KnnClassifier knn(2);
  knn.fit(x, y);
  EXPECT_EQ(knn.predict({0.0}), 1);
}

TEST(Knn, RejectsMisuse) {
  KnnClassifier knn(3);
  EXPECT_THROW(knn.predict({1.0}), Error);
  EXPECT_THROW(KnnClassifier(0), Error);
  FeatureMatrix x{{1.0}};
  LabelVector y{0};
  knn.fit(x, y);
  EXPECT_THROW(knn.predict({1.0, 2.0}), Error);
}

TEST(GaussianNb, LearnsBlobs) {
  FeatureMatrix x;
  LabelVector y;
  make_blobs(80, 10, x, y, 0.5);
  GaussianNaiveBayes nb;
  nb.fit(x, y);
  EXPECT_GT(nb.score(x, y), 0.97);
}

TEST(GaussianNb, LogLikelihoodsOrdered) {
  FeatureMatrix x;
  LabelVector y;
  make_blobs(50, 11, x, y, 0.4);
  GaussianNaiveBayes nb;
  nb.fit(x, y);
  // A point at a class centre must prefer that class.
  const auto ll = nb.log_likelihoods({4.0, 4.0, 0.0, -2.0});
  EXPECT_GT(ll[1], ll[0]);
  EXPECT_GT(ll[1], ll[2]);
}

TEST(GaussianNb, PriorsReflectImbalance) {
  FeatureMatrix x;
  LabelVector y;
  // Heavily imbalanced identical-feature classes: prior must dominate.
  for (int i = 0; i < 95; ++i) {
    x.push_back({0.0});
    y.push_back(0);
  }
  for (int i = 0; i < 5; ++i) {
    x.push_back({0.0});
    y.push_back(1);
  }
  GaussianNaiveBayes nb;
  nb.fit(x, y);
  EXPECT_EQ(nb.predict({0.0}), 0);
}

TEST(GaussianNb, RejectsMissingClass) {
  FeatureMatrix x{{0.0}, {1.0}};
  LabelVector y{0, 2};  // class 1 absent
  GaussianNaiveBayes nb;
  EXPECT_THROW(nb.fit(x, y), Error);
}

TEST(GaussianNb, VarianceFloorPreventsDegeneracy) {
  FeatureMatrix x{{1.0}, {1.0}, {2.0}, {2.0}};
  LabelVector y{0, 0, 1, 1};
  GaussianNaiveBayes nb;  // zero within-class variance
  nb.fit(x, y);
  EXPECT_EQ(nb.predict({1.0}), 0);
  EXPECT_EQ(nb.predict({2.0}), 1);
}

TEST(Classifiers, AgreeOnEasyProblem) {
  FeatureMatrix xtr, xte;
  LabelVector ytr, yte;
  make_blobs(60, 12, xtr, ytr, 0.3);
  make_blobs(20, 13, xte, yte, 0.3);
  KnnClassifier knn(3);
  knn.fit(xtr, ytr);
  GaussianNaiveBayes nb;
  nb.fit(xtr, ytr);
  int agree = 0;
  for (std::size_t i = 0; i < xte.size(); ++i) {
    if (knn.predict(xte[i]) == nb.predict(xte[i])) ++agree;
  }
  EXPECT_GT(static_cast<double>(agree) / static_cast<double>(xte.size()), 0.95);
}

}  // namespace
}  // namespace zeiot::ml
