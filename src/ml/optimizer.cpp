#include "ml/optimizer.hpp"

#include <cmath>

namespace zeiot::ml {

Sgd::Sgd(double lr, double momentum, double weight_decay)
    : lr_(lr), momentum_(momentum), weight_decay_(weight_decay) {
  ZEIOT_CHECK_MSG(lr > 0.0, "learning rate must be > 0");
  ZEIOT_CHECK_MSG(momentum >= 0.0 && momentum < 1.0, "momentum in [0,1)");
  ZEIOT_CHECK_MSG(weight_decay >= 0.0, "weight decay must be >= 0");
}

void Sgd::step(const std::vector<Param*>& params) {
  if (velocity_.size() != params.size()) {
    velocity_.clear();
    for (const Param* p : params) velocity_.emplace_back(p->value.size(), 0.0f);
  }
  for (std::size_t pi = 0; pi < params.size(); ++pi) {
    Param& p = *params[pi];
    ZEIOT_CHECK_MSG(velocity_[pi].size() == p.value.size(),
                    "optimizer was initialised for a different network");
    auto& vel = velocity_[pi];
    for (std::size_t i = 0; i < p.value.size(); ++i) {
      const double g =
          p.grad[i] + weight_decay_ * static_cast<double>(p.value[i]);
      vel[i] = static_cast<float>(momentum_ * vel[i] - lr_ * g);
      p.value[i] += vel[i];
    }
  }
}

Adam::Adam(double lr, double beta1, double beta2, double eps)
    : lr_(lr), beta1_(beta1), beta2_(beta2), eps_(eps) {
  ZEIOT_CHECK_MSG(lr > 0.0, "learning rate must be > 0");
  ZEIOT_CHECK_MSG(beta1 >= 0.0 && beta1 < 1.0, "beta1 in [0,1)");
  ZEIOT_CHECK_MSG(beta2 >= 0.0 && beta2 < 1.0, "beta2 in [0,1)");
  ZEIOT_CHECK_MSG(eps > 0.0, "eps must be > 0");
}

void Adam::step(const std::vector<Param*>& params) {
  if (m_.size() != params.size()) {
    m_.clear();
    v_.clear();
    for (const Param* p : params) {
      m_.emplace_back(p->value.size(), 0.0f);
      v_.emplace_back(p->value.size(), 0.0f);
    }
    t_ = 0;
  }
  ++t_;
  const double bc1 = 1.0 - std::pow(beta1_, static_cast<double>(t_));
  const double bc2 = 1.0 - std::pow(beta2_, static_cast<double>(t_));
  for (std::size_t pi = 0; pi < params.size(); ++pi) {
    Param& p = *params[pi];
    ZEIOT_CHECK_MSG(m_[pi].size() == p.value.size(),
                    "optimizer was initialised for a different network");
    for (std::size_t i = 0; i < p.value.size(); ++i) {
      const double g = p.grad[i];
      m_[pi][i] = static_cast<float>(beta1_ * m_[pi][i] + (1.0 - beta1_) * g);
      v_[pi][i] =
          static_cast<float>(beta2_ * v_[pi][i] + (1.0 - beta2_) * g * g);
      const double mhat = m_[pi][i] / bc1;
      const double vhat = v_[pi][i] / bc2;
      p.value[i] -=
          static_cast<float>(lr_ * mhat / (std::sqrt(vhat) + eps_));
    }
  }
}

}  // namespace zeiot::ml
