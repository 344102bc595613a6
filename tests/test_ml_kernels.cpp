// Property tests for the GEMM-backed CNN kernels (ml/kernels) against the
// retained naive reference implementations, plus the workspace/pool
// plumbing and the ReLU mask rewrite.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "ml/kernels/gemm.hpp"
#include "ml/kernels/im2col.hpp"
#include "ml/kernels/reference.hpp"
#include "ml/kernels/workspace.hpp"
#include "ml/layers.hpp"
#include "ml/network.hpp"
#include "par/thread_pool.hpp"

namespace zeiot::ml {
namespace {

Tensor random_tensor(std::vector<int> shape, Rng& rng, double lo = -1.0,
                     double hi = 1.0) {
  Tensor t(std::move(shape));
  for (std::size_t i = 0; i < t.size(); ++i) {
    t[i] = static_cast<float>(rng.uniform(lo, hi));
  }
  return t;
}

/// Relative tolerance check: |a - b| <= rtol * max(1, |a|, |b|).
void expect_close(const Tensor& got, const Tensor& want, double rtol = 1e-5,
                  const char* what = "") {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < got.size(); ++i) {
    const double g = got[i], w = want[i];
    const double tol = rtol * std::max({1.0, std::abs(g), std::abs(w)});
    ASSERT_NEAR(g, w, tol) << what << " at flat index " << i;
  }
}

void expect_bit_identical(const Tensor& a, const Tensor& b,
                          const char* what = "") {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i], b[i]) << what << " differs at flat index " << i;
  }
}

// ------------------------------------------------------------- raw kernels --

TEST(Gemm, MatchesNaiveTripleLoop) {
  Rng rng(11);
  for (int iter = 0; iter < 25; ++iter) {
    const int m = 1 + static_cast<int>(rng.uniform_int(0, 12));
    const int n = 1 + static_cast<int>(rng.uniform_int(0, 600));
    const int k = 1 + static_cast<int>(rng.uniform_int(0, 160));
    const Tensor a = random_tensor({m, k}, rng);
    const Tensor b = random_tensor({k, n}, rng);
    std::vector<float> c(static_cast<std::size_t>(m) * n, 0.5f);
    std::vector<double> ref(c.begin(), c.end());
    kernels::sgemm_accum(m, n, k, a.data(), k, b.data(), n, c.data(), n);
    for (int i = 0; i < m; ++i) {
      for (int j = 0; j < n; ++j) {
        double acc = 0.0;
        for (int kk = 0; kk < k; ++kk) {
          acc += static_cast<double>(a[static_cast<std::size_t>(i) * k + kk]) *
                 static_cast<double>(b[static_cast<std::size_t>(kk) * n + j]);
        }
        ref[static_cast<std::size_t>(i) * n + j] += acc;
      }
    }
    for (std::size_t i = 0; i < c.size(); ++i) {
      const double tol = 1e-5 * std::max(1.0, std::abs(ref[i]));
      ASSERT_NEAR(c[i], ref[i], tol) << "m=" << m << " n=" << n << " k=" << k;
    }
  }
}

TEST(Gemm, AbtMatchesNaive) {
  Rng rng(12);
  for (int iter = 0; iter < 25; ++iter) {
    const int m = 1 + static_cast<int>(rng.uniform_int(0, 12));
    const int n = 1 + static_cast<int>(rng.uniform_int(0, 40));
    const int k = 1 + static_cast<int>(rng.uniform_int(0, 500));
    const Tensor a = random_tensor({m, k}, rng);
    const Tensor b = random_tensor({n, k}, rng);
    std::vector<float> c(static_cast<std::size_t>(m) * n, -0.25f);
    std::vector<double> ref(c.begin(), c.end());
    kernels::sgemm_abt_accum(m, n, k, a.data(), k, b.data(), k, c.data(), n);
    for (int i = 0; i < m; ++i) {
      for (int j = 0; j < n; ++j) {
        double acc = 0.0;
        for (int kk = 0; kk < k; ++kk) {
          acc += static_cast<double>(a[static_cast<std::size_t>(i) * k + kk]) *
                 static_cast<double>(b[static_cast<std::size_t>(j) * k + kk]);
        }
        ref[static_cast<std::size_t>(i) * n + j] += acc;
      }
    }
    for (std::size_t i = 0; i < c.size(); ++i) {
      const double tol = 1e-5 * std::max(1.0, std::abs(ref[i]));
      ASSERT_NEAR(c[i], ref[i], tol) << "m=" << m << " n=" << n << " k=" << k;
    }
  }
}

TEST(Gemm, TransposeRoundTrip) {
  Rng rng(13);
  const int rows = 37, cols = 53;
  const Tensor src = random_tensor({rows, cols}, rng);
  std::vector<float> t(static_cast<std::size_t>(rows) * cols);
  std::vector<float> back(t.size());
  kernels::transpose(rows, cols, src.data(), cols, t.data(), rows);
  kernels::transpose(cols, rows, t.data(), rows, back.data(), cols);
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) {
      const std::size_t i = static_cast<std::size_t>(r) * cols + c;
      ASSERT_EQ(t[static_cast<std::size_t>(c) * rows + r], src[i]);
      ASSERT_EQ(back[i], src[i]);
    }
  }
}

TEST(Im2col, MatchesDirectIndexing) {
  Rng rng(14);
  for (int iter = 0; iter < 30; ++iter) {
    const int c = 1 + static_cast<int>(rng.uniform_int(0, 4));
    const int k = 1 + static_cast<int>(rng.uniform_int(0, 3));
    const int pad = static_cast<int>(rng.uniform_int(0, k + 2));  // pad >= k too
    const int hmin = std::max(1, k - 2 * pad);
    const int h = hmin + static_cast<int>(rng.uniform_int(0, 6));
    const int w = hmin + static_cast<int>(rng.uniform_int(0, 6));
    const int oh = h + 2 * pad - k + 1;
    const int ow = w + 2 * pad - k + 1;
    const Tensor x = random_tensor({c, h, w}, rng);
    std::vector<float> cols(static_cast<std::size_t>(c) * k * k * oh * ow);
    kernels::im2col(x.data(), c, h, w, k, pad, oh, ow, cols.data());
    for (int ic = 0; ic < c; ++ic) {
      for (int ky = 0; ky < k; ++ky) {
        for (int kx = 0; kx < k; ++kx) {
          const int row = (ic * k + ky) * k + kx;
          for (int oy = 0; oy < oh; ++oy) {
            for (int ox = 0; ox < ow; ++ox) {
              const int iy = oy + ky - pad;
              const int ix = ox + kx - pad;
              const float want =
                  (iy >= 0 && iy < h && ix >= 0 && ix < w)
                      ? x.at({ic, iy, ix})
                      : 0.0f;
              const std::size_t idx =
                  (static_cast<std::size_t>(row) * oh + oy) * ow + ox;
              ASSERT_EQ(cols[idx], want)
                  << "c=" << c << " k=" << k << " pad=" << pad << " h=" << h
                  << " w=" << w;
            }
          }
        }
      }
    }
  }
}

TEST(Im2col, Col2imScattersBack) {
  Rng rng(15);
  const int c = 3, h = 5, w = 7, k = 3, pad = 1;
  const int oh = h + 2 * pad - k + 1, ow = w + 2 * pad - k + 1;
  const std::size_t colsz = static_cast<std::size_t>(c) * k * k * oh * ow;
  std::vector<float> cols(colsz);
  for (std::size_t i = 0; i < colsz; ++i) {
    cols[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
  }
  Tensor gx({c, h, w});
  kernels::col2im_accum(cols.data(), c, h, w, k, pad, oh, ow, gx.data());
  // Reference scatter straight from the definition.
  Tensor ref({c, h, w});
  for (int ic = 0; ic < c; ++ic) {
    for (int ky = 0; ky < k; ++ky) {
      for (int kx = 0; kx < k; ++kx) {
        const int row = (ic * k + ky) * k + kx;
        for (int oy = 0; oy < oh; ++oy) {
          for (int ox = 0; ox < ow; ++ox) {
            const int iy = oy + ky - pad;
            const int ix = ox + kx - pad;
            if (iy < 0 || iy >= h || ix < 0 || ix >= w) continue;
            ref.at({ic, iy, ix}) +=
                cols[(static_cast<std::size_t>(row) * oh + oy) * ow + ox];
          }
        }
      }
    }
  }
  expect_close(gx, ref, 1e-6, "col2im");
}

// ----------------------------------------------- layers vs naive reference --

TEST(Conv2DKernels, ForwardBackwardMatchReferenceOnRandomShapes) {
  Rng rng(21);
  for (int iter = 0; iter < 20; ++iter) {
    const int n = 1 + static_cast<int>(rng.uniform_int(0, 3));
    const int ic = 1 + static_cast<int>(rng.uniform_int(0, 4));
    const int oc = 1 + static_cast<int>(rng.uniform_int(0, 6));
    const int k = 1 + static_cast<int>(rng.uniform_int(0, 3));
    const int pad = static_cast<int>(rng.uniform_int(0, k + 2));  // pad >= k too
    const int hmin = std::max(1, k - 2 * pad);
    const int h = hmin + static_cast<int>(rng.uniform_int(0, 8));
    const int w = hmin + static_cast<int>(rng.uniform_int(0, 8));

    Conv2D conv(ic, oc, k, pad, rng);
    Tensor& weight = conv.params()[0]->value;
    Tensor& bias = conv.params()[1]->value;
    for (std::size_t i = 0; i < bias.size(); ++i) {
      bias[i] = static_cast<float>(rng.uniform(-0.5, 0.5));
    }
    const Tensor x = random_tensor({n, ic, h, w}, rng);

    const Tensor y = conv.forward(x, false);
    const Tensor y_ref = kernels::reference::conv2d_forward(x, weight, bias, pad);
    expect_close(y, y_ref, 1e-5, "conv forward");

    const Tensor gy = random_tensor(y.shape(), rng);
    conv.params()[0]->grad.fill(0.0f);
    conv.params()[1]->grad.fill(0.0f);
    const Tensor gx = conv.backward(gy);
    Tensor gw_ref = Tensor::zeros_like(weight);
    Tensor gb_ref = Tensor::zeros_like(bias);
    const Tensor gx_ref =
        kernels::reference::conv2d_backward(x, weight, gy, pad, gw_ref, gb_ref);
    expect_close(gx, gx_ref, 1e-5, "conv grad_x");
    expect_close(conv.params()[0]->grad, gw_ref, 1e-5, "conv grad_w");
    expect_close(conv.params()[1]->grad, gb_ref, 1e-5, "conv grad_b");
  }
}

TEST(Conv2DKernels, OneByOneInput) {
  Rng rng(22);
  // 1x1 spatial input, kernel 3, pad 1: a single output cell fed entirely
  // through padding except the centre tap.
  Conv2D conv(2, 3, 3, 1, rng);
  const Tensor x = random_tensor({2, 2, 1, 1}, rng);
  const Tensor y = conv.forward(x, false);
  const Tensor y_ref = kernels::reference::conv2d_forward(
      x, conv.params()[0]->value, conv.params()[1]->value, 1);
  expect_close(y, y_ref, 1e-5, "1x1 conv forward");

  const Tensor gy = random_tensor(y.shape(), rng);
  conv.params()[0]->grad.fill(0.0f);
  conv.params()[1]->grad.fill(0.0f);
  const Tensor gx = conv.backward(gy);
  Tensor gw_ref = Tensor::zeros_like(conv.params()[0]->value);
  Tensor gb_ref = Tensor::zeros_like(conv.params()[1]->value);
  const Tensor gx_ref = kernels::reference::conv2d_backward(
      x, conv.params()[0]->value, gy, 1, gw_ref, gb_ref);
  expect_close(gx, gx_ref, 1e-5, "1x1 conv grad_x");
  expect_close(conv.params()[0]->grad, gw_ref, 1e-5, "1x1 conv grad_w");
}

TEST(DenseKernels, ForwardBackwardMatchReferenceOnRandomShapes) {
  Rng rng(23);
  for (int iter = 0; iter < 20; ++iter) {
    const int n = 1 + static_cast<int>(rng.uniform_int(0, 40));
    const int in = 1 + static_cast<int>(rng.uniform_int(0, 64));
    const int out = 1 + static_cast<int>(rng.uniform_int(0, 48));

    Dense dense(in, out, rng);
    Tensor& weight = dense.params()[0]->value;
    Tensor& bias = dense.params()[1]->value;
    for (std::size_t i = 0; i < bias.size(); ++i) {
      bias[i] = static_cast<float>(rng.uniform(-0.5, 0.5));
    }
    const Tensor x = random_tensor({n, in}, rng);

    const Tensor y = dense.forward(x, false);
    const Tensor y_ref = kernels::reference::dense_forward(x, weight, bias);
    expect_close(y, y_ref, 1e-5, "dense forward");

    const Tensor gy = random_tensor(y.shape(), rng);
    dense.params()[0]->grad.fill(0.0f);
    dense.params()[1]->grad.fill(0.0f);
    const Tensor gx = dense.backward(gy);
    Tensor gw_ref = Tensor::zeros_like(weight);
    Tensor gb_ref = Tensor::zeros_like(bias);
    const Tensor gx_ref =
        kernels::reference::dense_backward(x, weight, gy, gw_ref, gb_ref);
    expect_close(gx, gx_ref, 1e-5, "dense grad_x");
    expect_close(dense.params()[0]->grad, gw_ref, 1e-5, "dense grad_w");
    expect_close(dense.params()[1]->grad, gb_ref, 1e-5, "dense grad_b");
  }
}

// --------------------------------------------- determinism across pools --

TEST(KernelDeterminism, LayersBitIdenticalAcrossPoolSizes) {
  par::ThreadPool pool1(1);
  par::ThreadPool pool4(4);
  Rng rng_a(31), rng_b(31);
  Conv2D conv_a(3, 5, 3, 1, rng_a), conv_b(3, 5, 3, 1, rng_b);
  conv_a.set_pool(&pool1);
  conv_b.set_pool(&pool4);
  Rng xr(32);
  const Tensor x = random_tensor({9, 3, 11, 13}, xr);
  const Tensor ya = conv_a.forward(x, false);
  const Tensor yb = conv_b.forward(x, false);
  expect_bit_identical(ya, yb, "conv forward");

  Rng gr(33);
  const Tensor gy = random_tensor(ya.shape(), gr);
  conv_a.params()[0]->grad.fill(0.0f);
  conv_a.params()[1]->grad.fill(0.0f);
  conv_b.params()[0]->grad.fill(0.0f);
  conv_b.params()[1]->grad.fill(0.0f);
  const Tensor gxa = conv_a.backward(gy);
  const Tensor gxb = conv_b.backward(gy);
  expect_bit_identical(gxa, gxb, "conv grad_x");
  expect_bit_identical(conv_a.params()[0]->grad, conv_b.params()[0]->grad,
                       "conv grad_w");
  expect_bit_identical(conv_a.params()[1]->grad, conv_b.params()[1]->grad,
                       "conv grad_b");

  Rng dr_a(34), dr_b(34);
  Dense dense_a(48, 10, dr_a), dense_b(48, 10, dr_b);
  dense_a.set_pool(&pool1);
  dense_b.set_pool(&pool4);
  Rng dxr(35);
  const Tensor dx = random_tensor({17, 48}, dxr);
  const Tensor dya = dense_a.forward(dx, false);
  const Tensor dyb = dense_b.forward(dx, false);
  expect_bit_identical(dya, dyb, "dense forward");
  Rng dgr(36);
  const Tensor dgy = random_tensor(dya.shape(), dgr);
  dense_a.params()[0]->grad.fill(0.0f);
  dense_a.params()[1]->grad.fill(0.0f);
  dense_b.params()[0]->grad.fill(0.0f);
  dense_b.params()[1]->grad.fill(0.0f);
  expect_bit_identical(dense_a.backward(dgy), dense_b.backward(dgy),
                       "dense grad_x");
  expect_bit_identical(dense_a.params()[0]->grad, dense_b.params()[0]->grad,
                       "dense grad_w");
}

// --------------------------------------------------- workspace plumbing --

TEST(Workspace, NetworkArenaIsReusedAcrossForwards) {
  Rng rng(41);
  Network net;
  net.emplace<Conv2D>(2, 4, 3, 1, rng);
  net.emplace<ReLU>();
  net.emplace<MaxPool2D>(2);
  net.emplace<Flatten>();
  net.emplace<Dense>(4 * 5 * 6, 3, rng);
  Rng xr(42);
  const Tensor x = random_tensor({4, 2, 10, 12}, xr);
  const Tensor y1 = net.forward(x, false);
  const std::size_t cap_after_first = net.workspace().capacity();
  EXPECT_GT(cap_after_first, 0u);
  for (int i = 0; i < 5; ++i) {
    const Tensor y = net.forward(x, false);
    expect_bit_identical(y, y1, "repeated forward");
  }
  // Steady state: no regrowth once every layer has carved its peak need.
  EXPECT_EQ(net.workspace().capacity(), cap_after_first);
}

TEST(Workspace, CloneGetsPrivateArenaAndSameResults) {
  Rng rng(43);
  Network net;
  net.emplace<Conv2D>(1, 3, 3, 1, rng);
  net.emplace<Flatten>();
  net.emplace<Dense>(3 * 6 * 7, 2, rng);
  Network copy = net.clone();
  EXPECT_NE(&net.workspace(), &copy.workspace());
  Rng xr(44);
  const Tensor x = random_tensor({2, 1, 6, 7}, xr);
  expect_bit_identical(net.forward(x, false), copy.forward(x, false),
                       "clone forward");
}

TEST(Workspace, StandaloneLayerWorksWithoutNetwork) {
  Rng rng(45);
  Conv2D conv(1, 2, 3, 0, rng);
  Rng xr(46);
  const Tensor x = random_tensor({1, 1, 5, 5}, xr);
  const Tensor y = conv.forward(x, false);  // falls back to a private arena
  const Tensor y_ref = kernels::reference::conv2d_forward(
      x, conv.params()[0]->value, conv.params()[1]->value, 0);
  expect_close(y, y_ref, 1e-5, "standalone conv");
}

TEST(Workspace, RequireAfterAllocIsRejected) {
  kernels::Workspace ws;
  ws.reset();
  ws.require(16);
  (void)ws.alloc(8);
  EXPECT_EQ(ws.used(), 8u);
  EXPECT_THROW(ws.require(32), zeiot::Error);
  ws.reset();
  EXPECT_NO_THROW(ws.require(32));
}

// ---------------------------------------------------------- ReLU rewrite --

TEST(MaskRewrite, ReluMatchesDefinition) {
  Rng rng(51);
  ReLU relu;
  const Tensor x = random_tensor({3, 4, 5, 6}, rng);
  const Tensor y = relu.forward(x, true);
  for (std::size_t i = 0; i < x.size(); ++i) {
    ASSERT_EQ(y[i], x[i] > 0.0f ? x[i] : 0.0f);
  }
  const Tensor gy = random_tensor(x.shape(), rng);
  const Tensor gx = relu.backward(gy);
  for (std::size_t i = 0; i < x.size(); ++i) {
    ASSERT_EQ(gx[i], x[i] > 0.0f ? gy[i] : 0.0f);
  }
}

}  // namespace
}  // namespace zeiot::ml
