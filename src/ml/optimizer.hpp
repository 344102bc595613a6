// First-order optimizers over a network's parameter list.
#pragma once

#include <vector>

#include "ml/layers.hpp"

namespace zeiot::ml {

/// Interface: applies one update step from accumulated gradients.
class Optimizer {
 public:
  virtual ~Optimizer() = default;
  /// Consumes the gradients currently stored in `params` (does not zero
  /// them; callers zero before the next accumulation).
  virtual void step(const std::vector<Param*>& params) = 0;
};

/// SGD with classical momentum and optional L2 weight decay.
class Sgd final : public Optimizer {
 public:
  explicit Sgd(double lr, double momentum = 0.9, double weight_decay = 0.0);
  void step(const std::vector<Param*>& params) override;

  double lr() const { return lr_; }

 private:
  double lr_;
  double momentum_;
  double weight_decay_;
  std::vector<std::vector<float>> velocity_;  // lazily sized per param
};

/// Adam (Kingma & Ba) with bias correction.
class Adam final : public Optimizer {
 public:
  explicit Adam(double lr, double beta1 = 0.9, double beta2 = 0.999,
                double eps = 1e-8);
  void step(const std::vector<Param*>& params) override;

  double lr() const { return lr_; }

 private:
  double lr_;
  double beta1_;
  double beta2_;
  double eps_;
  long t_ = 0;
  std::vector<std::vector<float>> m_;
  std::vector<std::vector<float>> v_;
};

}  // namespace zeiot::ml
