#include "microdeep/distributed.hpp"

#include <cmath>

namespace zeiot::microdeep {

MicroDeepModel::MicroDeepModel(ml::Network& net, const WsnTopology& wsn,
                               std::vector<int> input_shape,
                               MicroDeepConfig cfg)
    : net_(net),
      wsn_(wsn),
      input_shape_(std::move(input_shape)),
      cfg_(cfg),
      graph_(UnitGraph::build(net, input_shape_)),
      rng_(cfg.seed) {
  ZEIOT_CHECK_MSG(cfg_.staleness >= 0.0, "staleness must be >= 0");
  switch (cfg_.assignment) {
    case AssignmentKind::Centralized:
      assignment_ = std::make_unique<Assignment>(
          assign_centralized(graph_, wsn_, cfg_.sink));
      break;
    case AssignmentKind::Nearest:
      assignment_ = std::make_unique<Assignment>(assign_nearest(graph_, wsn_));
      break;
    case AssignmentKind::BalancedHeuristic:
      assignment_ = std::make_unique<Assignment>(
          assign_balanced_heuristic(graph_, wsn_));
      break;
  }
  // Cross-node fraction for every parameterised network layer.
  layer_cross_fraction_.assign(net_.num_layers(), 0.0);
  for (std::size_t li = 0; li < net_.num_layers(); ++li) {
    const int ul = graph_.unit_layer_of_net_layer(li);
    if (ul >= 1) {
      layer_cross_fraction_[li] =
          assignment_->cross_edge_fraction_into_layer(
              static_cast<std::size_t>(ul));
    }
  }
}

CommCostReport MicroDeepModel::comm_cost() const {
  return compute_comm_cost(*assignment_, wsn_, cfg_.cost_options, cfg_.obs);
}

void MicroDeepModel::install_grad_hook(ml::Trainer& trainer) {
  if (cfg_.staleness <= 0.0) return;
  // Map each parameter back to its owning network layer once.
  struct ParamNoise {
    ml::Param* param;
    double factor;  // staleness * cross_fraction of the layer
  };
  auto plan = std::make_shared<std::vector<ParamNoise>>();
  for (std::size_t li = 0; li < net_.num_layers(); ++li) {
    const double f = cfg_.staleness * layer_cross_fraction_[li];
    for (ml::Param* p : net_.layer(li).params()) {
      plan->push_back({p, f});
    }
  }
  trainer.set_grad_hook([this, plan](std::vector<ml::Param*>&) {
    for (const auto& pn : *plan) {
      if (pn.factor <= 0.0) continue;
      // RMS of the accumulated gradient sets the noise scale so the
      // perturbation tracks the training phase (large early, small late).
      double sq = 0.0;
      ml::Tensor& g = pn.param->grad;
      for (std::size_t i = 0; i < g.size(); ++i) {
        sq += static_cast<double>(g[i]) * static_cast<double>(g[i]);
      }
      const double rms = std::sqrt(sq / static_cast<double>(g.size()));
      if (rms == 0.0) continue;
      const double sigma = pn.factor * rms;
      for (std::size_t i = 0; i < g.size(); ++i) {
        g[i] += static_cast<float>(rng_.normal(0.0, sigma));
      }
    }
  });
}

ml::TrainHistory MicroDeepModel::train(const ml::Dataset& train,
                                       const ml::Dataset& val,
                                       const ml::TrainConfig& tcfg,
                                       ml::Optimizer& opt) {
  ml::Trainer trainer(net_, opt, rng_.split(1), cfg_.pool);
  install_grad_hook(trainer);
  obs::ProfilerRegistry* const prof =
      cfg_.obs != nullptr ? &cfg_.obs->profiler() : nullptr;
  obs::ScopedTimer timer(prof,
                         prof != nullptr ? prof->region("microdeep.train") : 0);
  const auto hist = trainer.fit(train, val, tcfg);
  if (cfg_.obs != nullptr) {
    cfg_.obs->metrics().gauge("microdeep.train.best_val_accuracy")
        .set(hist.best_val_accuracy);
  }
  return hist;
}

double MicroDeepModel::evaluate(const ml::Dataset& data) {
  // Evaluation does not need an optimizer step; reuse a throwaway SGD.
  ml::Sgd opt(1e-3);
  ml::Trainer trainer(net_, opt, rng_.split(2), cfg_.pool);
  return trainer.evaluate(data);
}

double MicroDeepModel::evaluate_with_failures(const ml::Dataset& data,
                                              const std::vector<bool>& dead,
                                              CommCostReport* cost_after) {
  const ml::Dataset masked = mask_dead_inputs(data, graph_, wsn_, dead);
  if (cost_after != nullptr) {
    Assignment migrated = *assignment_;
    migrated.reassign_dead_nodes(wsn_, dead);
    *cost_after = compute_comm_cost(migrated, wsn_, cfg_.cost_options,
                                    cfg_.obs);
  }
  return evaluate(masked);
}

double MicroDeepModel::evaluate_under_plan(const ml::Dataset& data, double t,
                                           CommCostReport* cost_after) {
  ZEIOT_CHECK_MSG(cfg_.fault != nullptr,
                  "evaluate_under_plan needs cfg.fault");
  const std::vector<bool> dead = cfg_.fault->dead_mask(t, wsn_.num_nodes());
  return evaluate_with_failures(data, dead, cost_after);
}

ml::Dataset mask_dead_inputs(const ml::Dataset& data, const UnitGraph& graph,
                             const WsnTopology& wsn,
                             const std::vector<bool>& dead) {
  ZEIOT_CHECK_MSG(dead.size() == wsn.num_nodes(), "dead mask size mismatch");
  const UnitLayer& input = graph.layers().front();
  // Owner node per input cell.
  std::vector<bool> cell_dead(static_cast<std::size_t>(input.num_units()));
  for (int i = 0; i < input.num_units(); ++i) {
    const UnitId u = input.first_unit + static_cast<UnitId>(i);
    cell_dead[static_cast<std::size_t>(i)] =
        dead[wsn.nearest_node(graph.position(u, wsn.area()))];
  }
  ml::Dataset out;
  for (std::size_t s = 0; s < data.size(); ++s) {
    ml::Tensor x = data.x(s);
    ZEIOT_CHECK_MSG(x.ndim() == 3, "expected (C,H,W) samples");
    ZEIOT_CHECK_MSG(x.dim(1) == input.height && x.dim(2) == input.width,
                    "sample grid does not match the unit graph input");
    for (int c = 0; c < x.dim(0); ++c) {
      for (int y = 0; y < input.height; ++y) {
        for (int xx = 0; xx < input.width; ++xx) {
          if (cell_dead[static_cast<std::size_t>(y * input.width + xx)]) {
            x.at({c, y, xx}) = 0.0f;
          }
        }
      }
    }
    out.add(std::move(x), data.label(s));
  }
  return out;
}

}  // namespace zeiot::microdeep
