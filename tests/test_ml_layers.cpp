#include "ml/layers.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <functional>

#include "ml/loss.hpp"

namespace zeiot::ml {
namespace {

// ---------------------------------------------------------------- helpers --

/// Numerical gradient check for a layer: compares dL/dx and dL/dparams
/// against central finite differences of L = sum(forward(x) * seed).
void check_gradients(Layer& layer, Tensor x, double tol = 2e-2) {
  Rng rng(99);
  Tensor y = layer.forward(x, /*train=*/false);
  Tensor seed = Tensor::zeros_like(y);
  for (std::size_t i = 0; i < seed.size(); ++i) {
    seed[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
  }
  auto loss_of = [&](const Tensor& out) {
    double l = 0.0;
    for (std::size_t i = 0; i < out.size(); ++i) {
      l += static_cast<double>(out[i]) * static_cast<double>(seed[i]);
    }
    return l;
  };

  for (Param* p : layer.params()) p->grad.fill(0.0f);
  const Tensor grad_x = layer.backward(seed);

  const float eps = 1e-2f;
  // Input gradient.
  int checked = 0;
  for (std::size_t i = 0; i < x.size() && checked < 40; i += x.size() / 37 + 1) {
    const float orig = x[i];
    x[i] = orig + eps;
    const double lp = loss_of(layer.forward(x, false));
    x[i] = orig - eps;
    const double lm = loss_of(layer.forward(x, false));
    x[i] = orig;
    const double num = (lp - lm) / (2.0 * eps);
    EXPECT_NEAR(grad_x[i], num, tol * std::max(1.0, std::abs(num)))
        << "input grad mismatch at " << i;
    ++checked;
  }
  layer.forward(x, false);  // restore cache

  // Parameter gradients.
  for (Param* p : layer.params()) {
    for (std::size_t i = 0; i < p->value.size();
         i += p->value.size() / 23 + 1) {
      const float orig = p->value[i];
      p->value[i] = orig + eps;
      const double lp = loss_of(layer.forward(x, false));
      p->value[i] = orig - eps;
      const double lm = loss_of(layer.forward(x, false));
      p->value[i] = orig;
      const double num = (lp - lm) / (2.0 * eps);
      EXPECT_NEAR(p->grad[i], num, tol * std::max(1.0, std::abs(num)))
          << "param grad mismatch at " << i;
    }
    layer.forward(x, false);
  }
}

Tensor random_input(std::vector<int> shape, std::uint64_t seed) {
  Rng rng(seed);
  Tensor t(std::move(shape));
  for (std::size_t i = 0; i < t.size(); ++i) {
    t[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
  }
  return t;
}

// ----------------------------------------------------------------- Conv2D --

TEST(Conv2D, IdentityKernelPassesThrough) {
  Rng rng(1);
  Conv2D conv(1, 1, 1, 0, rng);
  conv.params()[0]->value[0] = 1.0f;  // 1x1 kernel = identity
  conv.params()[1]->value[0] = 0.0f;
  Tensor x = random_input({1, 1, 3, 3}, 2);
  const Tensor y = conv.forward(x, false);
  ASSERT_EQ(y.shape(), x.shape());
  for (std::size_t i = 0; i < x.size(); ++i) EXPECT_FLOAT_EQ(y[i], x[i]);
}

TEST(Conv2D, KnownSumKernel) {
  Rng rng(1);
  Conv2D conv(1, 1, 3, 0, rng);
  for (std::size_t i = 0; i < 9; ++i) conv.params()[0]->value[i] = 1.0f;
  conv.params()[1]->value[0] = 0.5f;
  Tensor x({1, 1, 3, 3}, 1.0f);
  const Tensor y = conv.forward(x, false);
  ASSERT_EQ(y.shape(), (std::vector<int>{1, 1, 1, 1}));
  EXPECT_FLOAT_EQ(y[0], 9.5f);
}

TEST(Conv2D, PaddingPreservesSize) {
  Rng rng(1);
  Conv2D conv(2, 3, 3, 1, rng);
  Tensor x = random_input({2, 2, 5, 7}, 3);
  const Tensor y = conv.forward(x, false);
  EXPECT_EQ(y.shape(), (std::vector<int>{2, 3, 5, 7}));
}

TEST(Conv2D, OutputShapeHelperAgrees) {
  Rng rng(1);
  Conv2D conv(2, 4, 3, 1, rng);
  EXPECT_EQ(conv.output_shape({2, 8, 6}), (std::vector<int>{4, 8, 6}));
  EXPECT_THROW(conv.output_shape({3, 8, 6}), Error);
}

TEST(Conv2D, GradientCheck) {
  Rng rng(7);
  Conv2D conv(2, 3, 3, 1, rng);
  check_gradients(conv, random_input({2, 2, 4, 4}, 8));
}

TEST(Conv2D, GradientCheckNoPadding) {
  Rng rng(7);
  Conv2D conv(1, 2, 2, 0, rng);
  check_gradients(conv, random_input({1, 1, 4, 4}, 9));
}

TEST(Conv2D, RejectsChannelMismatch) {
  Rng rng(1);
  Conv2D conv(3, 2, 3, 1, rng);
  Tensor x = random_input({1, 2, 4, 4}, 3);
  EXPECT_THROW(conv.forward(x, false), Error);
}

// -------------------------------------------------------------- MaxPool2D --

TEST(MaxPool2D, PicksMaxima) {
  MaxPool2D pool(2);
  Tensor x({1, 1, 2, 2});
  x[0] = 1.0f;
  x[1] = 5.0f;
  x[2] = -2.0f;
  x[3] = 0.0f;
  const Tensor y = pool.forward(x, false);
  ASSERT_EQ(y.size(), 1u);
  EXPECT_FLOAT_EQ(y[0], 5.0f);
}

TEST(MaxPool2D, BackwardRoutesToArgmax) {
  MaxPool2D pool(2);
  Tensor x({1, 1, 2, 2});
  x[0] = 1.0f;
  x[1] = 5.0f;
  x[2] = -2.0f;
  x[3] = 0.0f;
  pool.forward(x, false);
  Tensor g({1, 1, 1, 1});
  g[0] = 2.5f;
  const Tensor gx = pool.backward(g);
  EXPECT_FLOAT_EQ(gx[0], 0.0f);
  EXPECT_FLOAT_EQ(gx[1], 2.5f);
  EXPECT_FLOAT_EQ(gx[2], 0.0f);
}

TEST(MaxPool2D, FloorsOddDimensions) {
  MaxPool2D pool(2);
  Tensor x = random_input({1, 2, 5, 7}, 4);
  const Tensor y = pool.forward(x, false);
  EXPECT_EQ(y.shape(), (std::vector<int>{1, 2, 2, 3}));
}

TEST(MaxPool2D, GradientCheck) {
  MaxPool2D pool(2);
  check_gradients(pool, random_input({2, 2, 4, 4}, 10));
}

// ------------------------------------------------------------------- ReLU --

TEST(ReLU, ClampsNegatives) {
  ReLU relu;
  Tensor x({4});
  x[0] = -1.0f;
  x[1] = 0.0f;
  x[2] = 2.0f;
  x[3] = -0.5f;
  const Tensor y = relu.forward(x, false);
  EXPECT_FLOAT_EQ(y[0], 0.0f);
  EXPECT_FLOAT_EQ(y[2], 2.0f);
}

TEST(ReLU, BackwardMasks) {
  ReLU relu;
  Tensor x({3});
  x[0] = -1.0f;
  x[1] = 1.0f;
  x[2] = 3.0f;
  relu.forward(x, false);
  Tensor g({3}, 1.0f);
  const Tensor gx = relu.backward(g);
  EXPECT_FLOAT_EQ(gx[0], 0.0f);
  EXPECT_FLOAT_EQ(gx[1], 1.0f);
  EXPECT_FLOAT_EQ(gx[2], 1.0f);
}

// ---------------------------------------------------------------- Flatten --

TEST(Flatten, CollapsesAndRestores) {
  Flatten fl;
  Tensor x = random_input({2, 3, 4, 5}, 5);
  const Tensor y = fl.forward(x, false);
  EXPECT_EQ(y.shape(), (std::vector<int>{2, 60}));
  const Tensor gx = fl.backward(y);
  EXPECT_EQ(gx.shape(), x.shape());
}

// ------------------------------------------------------------------ Dense --

TEST(Dense, KnownLinearMap) {
  Rng rng(1);
  Dense d(2, 1, rng);
  d.params()[0]->value[0] = 2.0f;  // w00
  d.params()[0]->value[1] = -1.0f; // w01
  d.params()[1]->value[0] = 0.5f;  // b0
  Tensor x({1, 2});
  x[0] = 3.0f;
  x[1] = 4.0f;
  const Tensor y = d.forward(x, false);
  EXPECT_FLOAT_EQ(y[0], 2.0f * 3.0f - 4.0f + 0.5f);
}

TEST(Dense, GradientCheck) {
  Rng rng(11);
  Dense d(6, 4, rng);
  check_gradients(d, random_input({3, 6}, 12));
}

TEST(Dense, RejectsFeatureMismatch) {
  Rng rng(1);
  Dense d(4, 2, rng);
  Tensor x = random_input({1, 5}, 1);
  EXPECT_THROW(d.forward(x, false), Error);
}

// ------------------------------------------------------------------- Loss --

TEST(Softmax, RowsSumToOne) {
  Tensor logits = random_input({4, 5}, 15);
  const Tensor p = softmax(logits);
  for (int b = 0; b < 4; ++b) {
    double s = 0.0;
    for (int k = 0; k < 5; ++k) s += p.at({b, k});
    EXPECT_NEAR(s, 1.0, 1e-5);
  }
}

TEST(Softmax, StableForLargeLogits) {
  Tensor logits({1, 3});
  logits[0] = 1000.0f;
  logits[1] = 1001.0f;
  logits[2] = 999.0f;
  const Tensor p = softmax(logits);
  EXPECT_FALSE(std::isnan(p[0]));
  EXPECT_GT(p[1], p[0]);
}

TEST(CrossEntropy, PerfectPredictionLowLoss) {
  Tensor logits({2, 2});
  logits.at({0, 0}) = 10.0f;
  logits.at({0, 1}) = -10.0f;
  logits.at({1, 0}) = -10.0f;
  logits.at({1, 1}) = 10.0f;
  const auto r = softmax_cross_entropy(logits, {0, 1});
  EXPECT_LT(r.loss, 1e-6);
}

TEST(CrossEntropy, UniformLogitsGiveLogK) {
  Tensor logits({1, 4}, 0.0f);
  const auto r = softmax_cross_entropy(logits, {2});
  EXPECT_NEAR(r.loss, std::log(4.0), 1e-5);
}

TEST(CrossEntropy, GradientMatchesNumerical) {
  Rng rng(16);
  Tensor logits = random_input({3, 4}, 17);
  const std::vector<int> labels{1, 3, 0};
  const auto r = softmax_cross_entropy(logits, labels);
  const float eps = 1e-3f;
  for (std::size_t i = 0; i < logits.size(); ++i) {
    const float orig = logits[i];
    logits[i] = orig + eps;
    const double lp = softmax_cross_entropy(logits, labels).loss;
    logits[i] = orig - eps;
    const double lm = softmax_cross_entropy(logits, labels).loss;
    logits[i] = orig;
    EXPECT_NEAR(r.grad[i], (lp - lm) / (2.0 * eps), 1e-3);
  }
}

TEST(CrossEntropy, RejectsBadLabels) {
  Tensor logits({1, 3}, 0.0f);
  EXPECT_THROW(softmax_cross_entropy(logits, {3}), Error);
  EXPECT_THROW(softmax_cross_entropy(logits, {0, 1}), Error);
}

}  // namespace
}  // namespace zeiot::ml
