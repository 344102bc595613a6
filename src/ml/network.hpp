// Sequential network container: composes layers, exposes the parameter list
// for optimizers, and reports per-layer shapes for the MicroDeep
// unit-assignment machinery (which needs to know the geometry of every
// layer to map units onto sensor nodes).
#pragma once

#include <memory>
#include <vector>

#include "ml/layers.hpp"

namespace zeiot::ml {

class Network {
 public:
  Network() = default;
  Network(Network&&) = default;
  Network& operator=(Network&&) = default;

  /// Appends a layer; returns a reference for further configuration.  The
  /// layer is bound to this network's workspace arena and thread pool.
  Layer& add(std::unique_ptr<Layer> layer);

  template <typename L, typename... Args>
  L& emplace(Args&&... args) {
    auto layer = std::make_unique<L>(std::forward<Args>(args)...);
    L& ref = *layer;
    add(std::move(layer));
    return ref;
  }

  std::size_t num_layers() const { return layers_.size(); }
  Layer& layer(std::size_t i);
  const Layer& layer(std::size_t i) const;

  /// Forward pass through all layers.
  Tensor forward(const Tensor& x, bool train);
  /// Backward pass; call with dL/d(output of last layer).
  Tensor backward(const Tensor& grad_out);

  /// All trainable parameters in layer order.
  std::vector<Param*> params();
  /// Zeroes every parameter gradient.
  void zero_grads();
  /// Deep copy (layer clones) for data-parallel replicas.
  Network clone() const;
  /// Copies parameter *values* from `src` (identical architecture
  /// required); gradients are untouched.  Used to resync replicas with the
  /// primary before each sharded batch.
  void copy_param_values_from(Network& src);
  /// Total number of trainable scalars.
  std::size_t num_parameters() const;

  /// Shapes (excluding batch) flowing through the network for a given input
  /// shape — index 0 is the input itself, index i+1 the output of layer i.
  std::vector<std::vector<int>> shape_trace(const std::vector<int>& input) const;

  /// Binds the thread pool the layers' batch-parallel kernels run on
  /// (null = global pool, sized by ZEIOT_THREADS).  Propagates to every
  /// current and future layer.
  void set_pool(par::ThreadPool* pool);
  par::ThreadPool* pool() const { return pool_; }

  /// The scratch arena shared by this network's layers.  Held behind a
  /// unique_ptr so its address survives Network moves (the trainer moves
  /// replica networks into vectors) while layer bindings stay valid.
  kernels::Workspace& workspace() { return *workspace_; }

 private:
  std::vector<std::unique_ptr<Layer>> layers_;
  std::unique_ptr<kernels::Workspace> workspace_ =
      std::make_unique<kernels::Workspace>();
  par::ThreadPool* pool_ = nullptr;
};

}  // namespace zeiot::ml
