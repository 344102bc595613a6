// Neural-network layers for the from-scratch CNN substrate.
//
// Data layout is NCHW (batch, channels, height, width) for spatial layers
// and (batch, features) for dense layers.  Conv2D and Dense run as GEMMs
// (im2col packing + the cache-blocked kernels in ml/kernels), with scratch
// carved from a per-Network workspace arena and the batch chunked over
// zeiot::par.  Chunk layouts and summation orders are pure functions of
// the shapes, so results are bit-identical at any thread count.  The
// original straight-loop arithmetic is retained in ml/kernels/reference.hpp
// as the audited ground truth the GEMM path is property-tested against.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "ml/kernels/workspace.hpp"
#include "ml/tensor.hpp"

namespace zeiot::par {
class ThreadPool;
}  // namespace zeiot::par

namespace zeiot::ml {

/// A trainable parameter tensor paired with its gradient accumulator.
struct Param {
  Tensor value;
  Tensor grad;
};

/// Base layer: forward caches whatever backward needs.
class Layer {
 public:
  virtual ~Layer() = default;
  /// Forward pass; `train` marks a training pass (no layer here behaves
  /// differently between training and inference).
  virtual Tensor forward(const Tensor& x, bool train) = 0;
  /// Backward pass: receives dL/dy, accumulates parameter gradients,
  /// returns dL/dx.  Must be called after forward on the same input.
  virtual Tensor backward(const Tensor& grad_y) = 0;
  /// Trainable parameters (empty for stateless layers).
  virtual std::vector<Param*> params() { return {}; }
  virtual std::string name() const = 0;
  /// Output shape (excluding batch) for an input shape (excluding batch).
  virtual std::vector<int> output_shape(const std::vector<int>& in) const = 0;
  /// Deep copy for data-parallel replicas: parameter values and gradients
  /// are copied, forward caches come along but are overwritten by the next
  /// forward.
  virtual std::unique_ptr<Layer> clone() const = 0;

  /// Binds the scratch arena this layer carves kernel temporaries from.
  /// Owned by the enclosing Network; standalone layers fall back to a
  /// private arena on first use.  The binding is transient: layer copies
  /// (clone) start unbound and are re-bound by their new owner.
  void set_workspace(kernels::Workspace* ws) { workspace_ = ws; }
  /// Binds the thread pool batch-parallel kernels run on (null = global
  /// pool).  Transient, like set_workspace().
  void set_pool(par::ThreadPool* pool) { pool_ = pool; }

 protected:
  Layer() = default;
  /// Workspace/pool bindings and the private arena are deliberately NOT
  /// copied: a cloned layer must not share scratch memory with its source
  /// (replicas run concurrently in the trainer).
  Layer(const Layer&) noexcept {}
  Layer& operator=(const Layer&) noexcept { return *this; }

  /// The bound arena, or a lazily created private one when standalone.
  kernels::Workspace& scratch() {
    if (workspace_ != nullptr) return *workspace_;
    if (!local_ws_) local_ws_ = std::make_unique<kernels::Workspace>();
    return *local_ws_;
  }

  par::ThreadPool* pool_ = nullptr;

 private:
  kernels::Workspace* workspace_ = nullptr;
  std::unique_ptr<kernels::Workspace> local_ws_;
};

/// 2-D convolution, stride 1, symmetric zero padding.
class Conv2D final : public Layer {
 public:
  /// Kernels are `out_channels` x `in_channels` x `k` x `k`.
  Conv2D(int in_channels, int out_channels, int kernel, int padding, Rng& rng);

  Tensor forward(const Tensor& x, bool train) override;
  Tensor backward(const Tensor& grad_y) override;
  std::vector<Param*> params() override { return {&weight_, &bias_}; }
  std::string name() const override { return "conv2d"; }
  std::unique_ptr<Layer> clone() const override {
    return std::make_unique<Conv2D>(*this);
  }
  std::vector<int> output_shape(const std::vector<int>& in) const override;

  int in_channels() const { return in_channels_; }
  int out_channels() const { return out_channels_; }
  int kernel() const { return kernel_; }
  int padding() const { return padding_; }

 private:
  int in_channels_;
  int out_channels_;
  int kernel_;
  int padding_;
  Param weight_;
  Param bias_;
  Tensor cached_x_;
};

/// Max pooling with square window `k`, stride `k` (floor division of dims).
class MaxPool2D final : public Layer {
 public:
  explicit MaxPool2D(int k);

  Tensor forward(const Tensor& x, bool train) override;
  Tensor backward(const Tensor& grad_y) override;
  std::string name() const override { return "maxpool2d"; }
  std::unique_ptr<Layer> clone() const override {
    return std::make_unique<MaxPool2D>(*this);
  }
  std::vector<int> output_shape(const std::vector<int>& in) const override;

  int k() const { return k_; }

 private:
  int k_;
  std::vector<int> in_shape_;
  std::vector<std::size_t> argmax_;  // flat input index per output element
};

/// Elementwise rectified linear unit.
class ReLU final : public Layer {
 public:
  Tensor forward(const Tensor& x, bool train) override;
  Tensor backward(const Tensor& grad_y) override;
  std::string name() const override { return "relu"; }
  std::unique_ptr<Layer> clone() const override {
    return std::make_unique<ReLU>(*this);
  }
  std::vector<int> output_shape(const std::vector<int>& in) const override {
    return in;
  }

 private:
  std::vector<std::uint8_t> mask_;  // 1 where x > 0 (byte mask: bit access
                                    // in vector<bool> defeats the pointer
                                    // loops and is not addressable)
};

/// Collapses (N,C,H,W) (or any rank) to (N, features).
class Flatten final : public Layer {
 public:
  Tensor forward(const Tensor& x, bool train) override;
  Tensor backward(const Tensor& grad_y) override;
  std::string name() const override { return "flatten"; }
  std::unique_ptr<Layer> clone() const override {
    return std::make_unique<Flatten>(*this);
  }
  std::vector<int> output_shape(const std::vector<int>& in) const override;

 private:
  std::vector<int> in_shape_;
};

/// Fully connected layer: (N, in) -> (N, out).
class Dense final : public Layer {
 public:
  Dense(int in_features, int out_features, Rng& rng);

  Tensor forward(const Tensor& x, bool train) override;
  Tensor backward(const Tensor& grad_y) override;
  std::vector<Param*> params() override { return {&weight_, &bias_}; }
  std::string name() const override { return "dense"; }
  std::unique_ptr<Layer> clone() const override {
    return std::make_unique<Dense>(*this);
  }
  std::vector<int> output_shape(const std::vector<int>& in) const override;

  int in_features() const { return in_features_; }
  int out_features() const { return out_features_; }

 private:
  int in_features_;
  int out_features_;
  Param weight_;  // (out, in)
  Param bias_;    // (out)
  Tensor cached_x_;
};

}  // namespace zeiot::ml
