#include "ml/layers.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "ml/kernels/gemm.hpp"
#include "ml/kernels/im2col.hpp"
#include "par/parallel.hpp"

namespace zeiot::ml {

namespace {

void check_nchw(const Tensor& x, const char* who) {
  ZEIOT_CHECK_MSG(x.ndim() == 4, who << " expects NCHW input, got rank "
                                     << x.ndim());
}

// Fixed chunk target for batch/row parallelism.  The grain is a pure
// function of n (never of the worker count), so chunk boundaries — and with
// them every per-chunk partial sum and its fold order — are identical for
// ZEIOT_THREADS=1 and ZEIOT_THREADS=N.
constexpr std::size_t kChunkTarget = 8;

std::size_t chunk_grain(std::size_t n) {
  return (n + kChunkTarget - 1) / kChunkTarget;
}

}  // namespace

// ---------------------------------------------------------------- Conv2D --

Conv2D::Conv2D(int in_channels, int out_channels, int kernel, int padding,
               Rng& rng)
    : in_channels_(in_channels),
      out_channels_(out_channels),
      kernel_(kernel),
      padding_(padding) {
  ZEIOT_CHECK_MSG(in_channels > 0 && out_channels > 0, "channels must be > 0");
  ZEIOT_CHECK_MSG(kernel > 0, "kernel must be > 0");
  ZEIOT_CHECK_MSG(padding >= 0, "padding must be >= 0");
  weight_.value = Tensor({out_channels, in_channels, kernel, kernel});
  weight_.value.he_init(rng, in_channels * kernel * kernel);
  weight_.grad = Tensor::zeros_like(weight_.value);
  bias_.value = Tensor({out_channels});
  bias_.grad = Tensor::zeros_like(bias_.value);
}

std::vector<int> Conv2D::output_shape(const std::vector<int>& in) const {
  ZEIOT_CHECK_MSG(in.size() == 3, "conv2d input shape must be (C,H,W)");
  ZEIOT_CHECK_MSG(in[0] == in_channels_, "conv2d channel mismatch");
  const int oh = in[1] + 2 * padding_ - kernel_ + 1;
  const int ow = in[2] + 2 * padding_ - kernel_ + 1;
  ZEIOT_CHECK_MSG(oh > 0 && ow > 0, "conv2d output would be empty");
  return {out_channels_, oh, ow};
}

Tensor Conv2D::forward(const Tensor& x, bool /*train*/) {
  check_nchw(x, "Conv2D");
  ZEIOT_CHECK_MSG(x.dim(1) == in_channels_, "Conv2D channel mismatch: got "
                                                << x.dim(1) << " expected "
                                                << in_channels_);
  cached_x_ = x;
  const int n = x.dim(0), h = x.dim(2), w = x.dim(3);
  const int oh = h + 2 * padding_ - kernel_ + 1;
  const int ow = w + 2 * padding_ - kernel_ + 1;
  ZEIOT_CHECK_MSG(oh > 0 && ow > 0, "Conv2D output would be empty");
  // The convolution as a GEMM: weight (oc x K) times the im2col panel
  // (K x P) per image, K = ic*k*k, P = oh*ow.
  const int kdim = in_channels_ * kernel_ * kernel_;
  const int p = oh * ow;
  Tensor y({n, out_channels_, oh, ow});

  const auto grain = chunk_grain(static_cast<std::size_t>(n));
  const auto chunks = par::make_chunks(static_cast<std::size_t>(n), grain);
  // Carve sizes rounded to 64-byte multiples so every panel starts on an
  // aligned boundary (the padding floats are never read or written).
  const std::size_t colsz = kernels::Workspace::align_floats(
      static_cast<std::size_t>(kdim) * static_cast<std::size_t>(p));
  // One im2col panel per chunk, carved on the calling thread before the
  // parallel region (Workspace::alloc is not thread-safe).
  auto& ws = scratch();
  ws.reset();
  ws.require(chunks.size() * colsz);
  std::vector<float*> cols(chunks.size());
  for (const auto& ch : chunks) cols[ch.index] = ws.alloc(colsz);

  const float* wmat = weight_.value.data();  // (oc, K) row-major already
  const float* bias = bias_.value.data();
  const std::size_t xstride =
      static_cast<std::size_t>(in_channels_) * h * static_cast<std::size_t>(w);
  const std::size_t ystride =
      static_cast<std::size_t>(out_channels_) * static_cast<std::size_t>(p);
  par::parallel_for_chunks(
      static_cast<std::size_t>(n), grain,
      [&](const par::ChunkRange& ch) {
        float* panel = cols[ch.index];
        for (std::size_t b = ch.begin; b < ch.end; ++b) {
          kernels::im2col(x.data() + b * xstride, in_channels_, h, w, kernel_,
                          padding_, oh, ow, panel);
          float* yb = y.data() + b * ystride;
          for (int oc = 0; oc < out_channels_; ++oc) {
            std::fill(yb + static_cast<std::size_t>(oc) * p,
                      yb + static_cast<std::size_t>(oc + 1) * p, bias[oc]);
          }
          kernels::sgemm_accum(out_channels_, p, kdim, wmat, kdim, panel, p,
                               yb, p);
        }
      },
      pool_);
  return y;
}

Tensor Conv2D::backward(const Tensor& grad_y) {
  ZEIOT_CHECK_MSG(!cached_x_.empty(), "backward before forward");
  const Tensor& x = cached_x_;
  const int n = x.dim(0), h = x.dim(2), w = x.dim(3);
  const int oh = grad_y.dim(2), ow = grad_y.dim(3);
  const int kdim = in_channels_ * kernel_ * kernel_;
  const int p = oh * ow;
  Tensor grad_x = Tensor::zeros_like(x);

  const auto grain = chunk_grain(static_cast<std::size_t>(n));
  const auto chunks = par::make_chunks(static_cast<std::size_t>(n), grain);
  const std::size_t colsz = kernels::Workspace::align_floats(
      static_cast<std::size_t>(kdim) * static_cast<std::size_t>(p));
  const std::size_t wsz = static_cast<std::size_t>(out_channels_) * kdim;
  const std::size_t awsz = kernels::Workspace::align_floats(wsz);
  const std::size_t ocsz = static_cast<std::size_t>(out_channels_);
  const std::size_t aocsz = kernels::Workspace::align_floats(ocsz);
  // Per chunk: an im2col panel, a dcols panel for the data gradient, and
  // private weight/bias gradient partials folded in chunk order below.
  auto& ws = scratch();
  ws.reset();
  ws.require(awsz + chunks.size() * (2 * colsz + awsz + aocsz));
  float* wt = ws.alloc(awsz);  // weight transposed to (K, oc)
  std::vector<float*> cols(chunks.size()), dcols(chunks.size()),
      gw_part(chunks.size()), gb_part(chunks.size());
  for (const auto& ch : chunks) {
    cols[ch.index] = ws.alloc(colsz);
    dcols[ch.index] = ws.alloc(colsz);
    gw_part[ch.index] = ws.alloc(awsz);
    gb_part[ch.index] = ws.alloc(aocsz);
  }
  kernels::transpose(out_channels_, kdim, weight_.value.data(), kdim, wt,
                     out_channels_);

  const std::size_t xstride =
      static_cast<std::size_t>(in_channels_) * h * static_cast<std::size_t>(w);
  const std::size_t ystride =
      static_cast<std::size_t>(out_channels_) * static_cast<std::size_t>(p);
  par::parallel_for_chunks(
      static_cast<std::size_t>(n), grain,
      [&](const par::ChunkRange& ch) {
        float* panel = cols[ch.index];
        float* dpanel = dcols[ch.index];
        float* gwp = gw_part[ch.index];
        float* gbp = gb_part[ch.index];
        std::fill(gwp, gwp + wsz, 0.0f);
        std::fill(gbp, gbp + ocsz, 0.0f);
        for (std::size_t b = ch.begin; b < ch.end; ++b) {
          const float* gy = grad_y.data() + b * ystride;
          // dL/dW += gy (oc x P) * cols^T (P x K) — one A*B^T GEMM.
          kernels::im2col(x.data() + b * xstride, in_channels_, h, w, kernel_,
                          padding_, oh, ow, panel);
          kernels::sgemm_abt_accum(out_channels_, kdim, p, gy, p, panel, p,
                                   gwp, kdim);
          // dL/dbias: row reductions of gy.
          for (int oc = 0; oc < out_channels_; ++oc) {
            const float* row = gy + static_cast<std::size_t>(oc) * p;
            float acc = 0.0f;
            for (int j = 0; j < p; ++j) acc += row[j];
            gbp[oc] += acc;
          }
          // dL/dx: dcols (K x P) = W^T (K x oc) * gy (oc x P), scattered
          // back through col2im.
          std::fill(dpanel, dpanel + colsz, 0.0f);
          kernels::sgemm_accum(kdim, p, out_channels_, wt, out_channels_, gy,
                               p, dpanel, p);
          kernels::col2im_accum(dpanel, in_channels_, h, w, kernel_, padding_,
                                oh, ow, grad_x.data() + b * xstride);
        }
      },
      pool_);

  // Fold the per-chunk gradient partials on the calling thread in chunk
  // order — the ordered-reduce discipline that keeps parameter gradients
  // bit-identical at any thread count.
  float* gw = weight_.grad.data();
  float* gb = bias_.grad.data();
  for (const auto& ch : chunks) {
    const float* gwp = gw_part[ch.index];
    for (std::size_t i = 0; i < wsz; ++i) gw[i] += gwp[i];
    const float* gbp = gb_part[ch.index];
    for (std::size_t i = 0; i < ocsz; ++i) gb[i] += gbp[i];
  }
  return grad_x;
}

// -------------------------------------------------------------- MaxPool2D --

MaxPool2D::MaxPool2D(int k) : k_(k) {
  ZEIOT_CHECK_MSG(k > 0, "pool size must be > 0");
}

std::vector<int> MaxPool2D::output_shape(const std::vector<int>& in) const {
  ZEIOT_CHECK_MSG(in.size() == 3, "pool input shape must be (C,H,W)");
  const int oh = in[1] / k_;
  const int ow = in[2] / k_;
  ZEIOT_CHECK_MSG(oh > 0 && ow > 0, "pool output would be empty");
  return {in[0], oh, ow};
}

Tensor MaxPool2D::forward(const Tensor& x, bool /*train*/) {
  check_nchw(x, "MaxPool2D");
  const int n = x.dim(0), c = x.dim(1), h = x.dim(2), w = x.dim(3);
  const int oh = h / k_, ow = w / k_;
  ZEIOT_CHECK_MSG(oh > 0 && ow > 0, "MaxPool2D output would be empty");
  in_shape_ = x.shape();
  Tensor y({n, c, oh, ow});
  argmax_.assign(y.size(), 0);
  const std::size_t planes = static_cast<std::size_t>(n) * c;
  const std::size_t in_plane = static_cast<std::size_t>(h) * w;
  const std::size_t out_plane = static_cast<std::size_t>(oh) * ow;
  par::parallel_for_chunks(
      planes, chunk_grain(planes),
      [&](const par::ChunkRange& ch) {
        for (std::size_t pl = ch.begin; pl < ch.end; ++pl) {
          const float* xp = x.data() + pl * in_plane;
          float* yp = y.data() + pl * out_plane;
          std::size_t* ap = argmax_.data() + pl * out_plane;
          std::size_t out_i = 0;
          for (int oy = 0; oy < oh; ++oy) {
            for (int ox = 0; ox < ow; ++ox, ++out_i) {
              float best = -std::numeric_limits<float>::infinity();
              std::size_t best_idx = 0;
              const std::size_t win =
                  static_cast<std::size_t>(oy) * k_ * w +
                  static_cast<std::size_t>(ox) * k_;
              for (int ky = 0; ky < k_; ++ky) {
                const float* row = xp + win + static_cast<std::size_t>(ky) * w;
                for (int kx = 0; kx < k_; ++kx) {
                  if (row[kx] > best) {
                    best = row[kx];
                    best_idx = pl * in_plane + win +
                               static_cast<std::size_t>(ky) * w + kx;
                  }
                }
              }
              yp[out_i] = best;
              ap[out_i] = best_idx;
            }
          }
        }
      },
      pool_);
  return y;
}

Tensor MaxPool2D::backward(const Tensor& grad_y) {
  ZEIOT_CHECK_MSG(!in_shape_.empty(), "backward before forward");
  ZEIOT_CHECK_MSG(grad_y.size() == argmax_.size(), "pool backward size mismatch");
  Tensor grad_x(in_shape_);
  for (std::size_t i = 0; i < argmax_.size(); ++i) {
    grad_x[argmax_[i]] += grad_y[i];
  }
  return grad_x;
}

// ------------------------------------------------------------------- ReLU --

Tensor ReLU::forward(const Tensor& x, bool /*train*/) {
  Tensor y = x;
  mask_.resize(x.size());
  const float* src = x.data();
  float* dst = y.data();
  std::uint8_t* m = mask_.data();
  const std::size_t sz = x.size();
  for (std::size_t i = 0; i < sz; ++i) {
    const bool pos = src[i] > 0.0f;
    m[i] = pos ? 1 : 0;
    if (!pos) dst[i] = 0.0f;
  }
  return y;
}

Tensor ReLU::backward(const Tensor& grad_y) {
  ZEIOT_CHECK_MSG(grad_y.size() == mask_.size(), "relu backward size mismatch");
  Tensor grad_x = grad_y;
  float* g = grad_x.data();
  const std::uint8_t* m = mask_.data();
  const std::size_t sz = grad_x.size();
  for (std::size_t i = 0; i < sz; ++i) {
    if (m[i] == 0) g[i] = 0.0f;
  }
  return grad_x;
}

// ---------------------------------------------------------------- Flatten --

std::vector<int> Flatten::output_shape(const std::vector<int>& in) const {
  int prod = 1;
  for (int d : in) prod *= d;
  return {prod};
}

Tensor Flatten::forward(const Tensor& x, bool /*train*/) {
  in_shape_ = x.shape();
  const int n = x.dim(0);
  const int features = static_cast<int>(x.size()) / n;
  return x.reshape({n, features});
}

Tensor Flatten::backward(const Tensor& grad_y) {
  ZEIOT_CHECK_MSG(!in_shape_.empty(), "backward before forward");
  return grad_y.reshape(in_shape_);
}

// ------------------------------------------------------------------ Dense --

Dense::Dense(int in_features, int out_features, Rng& rng)
    : in_features_(in_features), out_features_(out_features) {
  ZEIOT_CHECK_MSG(in_features > 0 && out_features > 0, "features must be > 0");
  weight_.value = Tensor({out_features, in_features});
  weight_.value.he_init(rng, in_features);
  weight_.grad = Tensor::zeros_like(weight_.value);
  bias_.value = Tensor({out_features});
  bias_.grad = Tensor::zeros_like(bias_.value);
}

std::vector<int> Dense::output_shape(const std::vector<int>& in) const {
  ZEIOT_CHECK_MSG(in.size() == 1 && in[0] == in_features_,
                  "dense input shape mismatch");
  return {out_features_};
}

Tensor Dense::forward(const Tensor& x, bool /*train*/) {
  ZEIOT_CHECK_MSG(x.ndim() == 2, "Dense expects (N, features)");
  ZEIOT_CHECK_MSG(x.dim(1) == in_features_, "Dense feature mismatch: got "
                                                << x.dim(1) << " expected "
                                                << in_features_);
  cached_x_ = x;
  const int n = x.dim(0);
  Tensor y({n, out_features_});
  const float* wmat = weight_.value.data();
  const float* bias = bias_.value.data();
  const auto grain = chunk_grain(static_cast<std::size_t>(n));
  // y = x * W^T + bias: bias-prefill rows, then one A*B^T GEMM per batch
  // chunk (disjoint row ranges, so any thread count gives the same bits).
  par::parallel_for_chunks(
      static_cast<std::size_t>(n), grain,
      [&](const par::ChunkRange& ch) {
        float* yb = y.data() + ch.begin * out_features_;
        for (std::size_t r = 0; r < ch.size(); ++r) {
          std::copy(bias, bias + out_features_, yb + r * out_features_);
        }
        kernels::sgemm_abt_accum(static_cast<int>(ch.size()), out_features_,
                                 in_features_,
                                 x.data() + ch.begin * in_features_,
                                 in_features_, wmat, in_features_, yb,
                                 out_features_);
      },
      pool_);
  return y;
}

Tensor Dense::backward(const Tensor& grad_y) {
  ZEIOT_CHECK_MSG(!cached_x_.empty(), "backward before forward");
  const Tensor& x = cached_x_;
  const int n = x.dim(0);
  Tensor grad_x({n, in_features_});
  const float* wmat = weight_.value.data();

  // dL/dx (n x in) = gy (n x out) * W (out x in), chunked over batch rows.
  const auto rgrain = chunk_grain(static_cast<std::size_t>(n));
  par::parallel_for_chunks(
      static_cast<std::size_t>(n), rgrain,
      [&](const par::ChunkRange& ch) {
        kernels::sgemm_accum(static_cast<int>(ch.size()), in_features_,
                             out_features_,
                             grad_y.data() + ch.begin * out_features_,
                             out_features_, wmat, in_features_,
                             grad_x.data() + ch.begin * in_features_,
                             in_features_);
      },
      pool_);

  // dL/dW (out x in) += gy^T (out x n) * x (n x in) and dL/dbias row sums,
  // chunked over output rows — each row accumulates its own k-sum, so the
  // result is independent of the chunk-to-thread mapping.
  auto& ws = scratch();
  ws.reset();
  const std::size_t gtsz =
      static_cast<std::size_t>(out_features_) * static_cast<std::size_t>(n);
  ws.require(gtsz);
  float* gt = ws.alloc(gtsz);
  kernels::transpose(n, out_features_, grad_y.data(), out_features_, gt, n);
  float* gw = weight_.grad.data();
  float* gb = bias_.grad.data();
  const auto ograin = chunk_grain(static_cast<std::size_t>(out_features_));
  par::parallel_for_chunks(
      static_cast<std::size_t>(out_features_), ograin,
      [&](const par::ChunkRange& ch) {
        kernels::sgemm_accum(static_cast<int>(ch.size()), in_features_, n,
                             gt + ch.begin * n, n, x.data(), in_features_,
                             gw + ch.begin * in_features_, in_features_);
        for (std::size_t o = ch.begin; o < ch.end; ++o) {
          const float* row = gt + o * n;
          float acc = 0.0f;
          for (int b = 0; b < n; ++b) acc += row[b];
          gb[o] += acc;
        }
      },
      pool_);
  return grad_x;
}

}  // namespace zeiot::ml
