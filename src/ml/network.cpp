#include "ml/network.hpp"

#include <algorithm>

namespace zeiot::ml {

Layer& Network::add(std::unique_ptr<Layer> layer) {
  ZEIOT_CHECK_MSG(layer != nullptr, "cannot add null layer");
  layer->set_workspace(workspace_.get());
  layer->set_pool(pool_);
  layers_.push_back(std::move(layer));
  return *layers_.back();
}

void Network::set_pool(par::ThreadPool* pool) {
  pool_ = pool;
  for (auto& l : layers_) l->set_pool(pool);
}

Layer& Network::layer(std::size_t i) {
  ZEIOT_CHECK_MSG(i < layers_.size(), "layer index out of range");
  return *layers_[i];
}

const Layer& Network::layer(std::size_t i) const {
  ZEIOT_CHECK_MSG(i < layers_.size(), "layer index out of range");
  return *layers_[i];
}

Tensor Network::forward(const Tensor& x, bool train) {
  ZEIOT_CHECK_MSG(!layers_.empty(), "empty network");
  Tensor h = x;
  for (auto& l : layers_) h = l->forward(h, train);
  return h;
}

Tensor Network::backward(const Tensor& grad_out) {
  ZEIOT_CHECK_MSG(!layers_.empty(), "empty network");
  Tensor g = grad_out;
  for (auto it = layers_.rbegin(); it != layers_.rend(); ++it) {
    g = (*it)->backward(g);
  }
  return g;
}

std::vector<Param*> Network::params() {
  std::vector<Param*> all;
  for (auto& l : layers_) {
    for (Param* p : l->params()) all.push_back(p);
  }
  return all;
}

void Network::zero_grads() {
  for (Param* p : params()) p->grad.fill(0.0f);
}

Network Network::clone() const {
  Network copy;
  copy.pool_ = pool_;
  for (const auto& l : layers_) {
    // Clones arrive unbound (Layer copies drop transient bindings); each
    // replica gets its OWN arena so concurrent replicas never share scratch.
    auto cl = l->clone();
    cl->set_workspace(copy.workspace_.get());
    cl->set_pool(copy.pool_);
    copy.layers_.push_back(std::move(cl));
  }
  return copy;
}

void Network::copy_param_values_from(Network& src) {
  const auto mine = params();
  const auto theirs = src.params();
  ZEIOT_CHECK_MSG(mine.size() == theirs.size(),
                  "copy_param_values_from: architecture mismatch");
  for (std::size_t i = 0; i < mine.size(); ++i) {
    ZEIOT_CHECK_MSG(mine[i]->value.size() == theirs[i]->value.size(),
                    "copy_param_values_from: shape mismatch at param " << i);
    std::copy(theirs[i]->value.data(),
              theirs[i]->value.data() + theirs[i]->value.size(),
              mine[i]->value.data());
  }
}

std::size_t Network::num_parameters() const {
  std::size_t n = 0;
  for (const auto& l : layers_) {
    for (Param* p : const_cast<Layer&>(*l).params()) n += p->value.size();
  }
  return n;
}

std::vector<std::vector<int>> Network::shape_trace(
    const std::vector<int>& input) const {
  std::vector<std::vector<int>> trace;
  trace.push_back(input);
  std::vector<int> cur = input;
  for (const auto& l : layers_) {
    cur = l->output_shape(cur);
    trace.push_back(cur);
  }
  return trace;
}

}  // namespace zeiot::ml
