// MicroDeep model: a CNN bound to a WSN via a unit assignment, trained with
// the distributed-update model of the paper.
//
// The paper executes backpropagation in a distributed fashion where "weights
// of units are updated independently by each sensor node to avoid
// communication overhead, sacrificing some accuracy".  We model that
// accuracy sacrifice at the gradient level: parameter gradients whose
// incoming unit-layer traffic crosses node boundaries are perturbed by
// zero-mean noise proportional to (a) the layer's cross-node edge fraction
// and (b) the gradient's own RMS — i.e. the more a layer depends on remote
// activations/errors, the staler/noisier its local update.  With
// `staleness = 0` the model degenerates to exact centralized training.
#pragma once

#include <memory>

#include "fault/injector.hpp"
#include "microdeep/comm_cost.hpp"
#include "ml/trainer.hpp"

namespace zeiot::microdeep {

/// Strategy selector for bundled assignment construction.
enum class AssignmentKind { Centralized, Nearest, BalancedHeuristic };

struct MicroDeepConfig {
  AssignmentKind assignment = AssignmentKind::BalancedHeuristic;
  /// Sink node for the centralized baseline.
  NodeId sink = 0;
  /// Strength of the local-update (stale gradient) perturbation; 0 = exact.
  double staleness = 0.25;
  /// Communication-cost options used for reports.
  CommCostOptions cost_options{};
  /// Seed for the model's internal randomness (init, batching, staleness).
  std::uint64_t seed = 42;
  /// Optional observability context (null = no metrics/tracing).  Must
  /// outlive the model.  comm_cost() publishes the Fig. 8/10 gauges and
  /// train() times itself as the "microdeep.train" profiler region.
  obs::Observability* obs = nullptr;
  /// Optional fault injector (null = no faults).  Must outlive the model.
  /// evaluate_under_plan() derives the dead-node set from its plan.
  fault::FaultInjector* fault = nullptr;
  /// Worker pool for training and evaluation (null = par::global_pool(),
  /// which honours ZEIOT_THREADS).  Must outlive the model.
  par::ThreadPool* pool = nullptr;
};

/// Builds and owns the unit graph + assignment for an existing network and
/// topology, and provides training/evaluation with distributed effects plus
/// the communication-cost report that reproduces Fig. 10.
class MicroDeepModel {
 public:
  /// `net` must outlive the model.  `input_shape` is (C,H,W).
  MicroDeepModel(ml::Network& net, const WsnTopology& wsn,
                 std::vector<int> input_shape, MicroDeepConfig cfg = {});

  const UnitGraph& unit_graph() const { return graph_; }
  const Assignment& assignment() const { return *assignment_; }
  const WsnTopology& wsn() const { return wsn_; }
  const MicroDeepConfig& config() const { return cfg_; }

  /// Per-node communication cost of one training sample (or inference when
  /// cost_options.include_backward is false).
  CommCostReport comm_cost() const;

  /// Trains the bound network with the distributed-update model installed.
  ml::TrainHistory train(const ml::Dataset& train, const ml::Dataset& val,
                         const ml::TrainConfig& tcfg, ml::Optimizer& opt);

  /// Validation accuracy of the current weights.
  double evaluate(const ml::Dataset& data);

  /// Evaluates robustness: inputs sensed by `dead` nodes read as zero
  /// (missing data), and their units migrate to the nearest alive node.
  /// Returns accuracy on `data`; `cost_after` (optional) receives the
  /// post-migration communication report.
  double evaluate_with_failures(const ml::Dataset& data,
                                const std::vector<bool>& dead,
                                CommCostReport* cost_after = nullptr);

  /// Snapshot of `evaluate_with_failures` under the configured injector's
  /// plan: the dead-node set is the plan's death..revival spans active at
  /// plan time `t` (cfg.fault must be non-null).  This is the accuracy
  /// degradation probe the chaos benches sweep over fault intensity.
  double evaluate_under_plan(const ml::Dataset& data, double t,
                             CommCostReport* cost_after = nullptr);

 private:
  void install_grad_hook(ml::Trainer& trainer);

  ml::Network& net_;
  const WsnTopology& wsn_;
  std::vector<int> input_shape_;
  MicroDeepConfig cfg_;
  UnitGraph graph_;
  std::unique_ptr<Assignment> assignment_;
  Rng rng_;
  /// Cross-node fraction per network layer that owns parameters.
  std::vector<double> layer_cross_fraction_;
};

/// Zeroes the input cells of `data` owned by dead nodes (the sensing view
/// of a node failure).  Channels collapse onto the same cell owner.
ml::Dataset mask_dead_inputs(const ml::Dataset& data, const UnitGraph& graph,
                             const WsnTopology& wsn,
                             const std::vector<bool>& dead);

}  // namespace zeiot::microdeep
