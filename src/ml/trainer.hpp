// Mini-batch training loop with per-epoch history and evaluation helpers.
//
// The trainer exposes a gradient-transform hook: MicroDeep uses it to model
// the accuracy impact of node-local weight updates (cross-node gradient
// terms arriving stale/partial) without duplicating the training loop.
//
// Execution is data-parallel and deterministic: each mini-batch is split
// into fixed 8-sample shards (independent of the worker count), every
// shard runs forward/backward on its own network replica, and the shard
// gradients are summed into the primary network in shard order before the
// optimizer step.  Results are therefore bit-identical between
// ZEIOT_THREADS=1 and ZEIOT_THREADS=N.
#pragma once

#include <functional>
#include <vector>

#include "common/confusion.hpp"
#include "ml/dataset.hpp"
#include "ml/loss.hpp"
#include "ml/network.hpp"
#include "ml/optimizer.hpp"

namespace zeiot::par {
class ThreadPool;
}

namespace zeiot::obs {
class Observability;
}

namespace zeiot::ml {

struct TrainConfig {
  int epochs = 10;
  int batch_size = 16;
  /// Stop early when the model has not improved for this many epochs
  /// (0 disables early stopping).  Improvement means higher validation
  /// accuracy, or — when no validation set is supplied — lower epoch
  /// train loss.
  int patience = 0;
  /// Worker pool for sharded execution (null = par::global_pool(), which
  /// honours ZEIOT_THREADS).
  par::ThreadPool* pool = nullptr;
  /// Null-sink observability.  With spans enabled, fit() records one
  /// TrainEpoch span per epoch on the virtual epoch axis (t = epoch index,
  /// value = epoch train loss) with TrainShard children for the
  /// data-parallel shards (recorded on the calling thread during the
  /// shard-order reduction, so the stream is thread-count independent).
  /// The profiler gains trainer.fit / trainer.epoch wall-time regions.
  obs::Observability* obs = nullptr;
};

struct EpochStats {
  double train_loss = 0.0;
  double train_accuracy = 0.0;
  double val_accuracy = 0.0;
};

struct TrainHistory {
  std::vector<EpochStats> epochs;
  double best_val_accuracy = 0.0;
};

class Trainer {
 public:
  /// Called after gradients are accumulated, before the optimizer step.
  /// MicroDeep installs its distributed-update model here.
  using GradHook = std::function<void(std::vector<Param*>&)>;

  /// `pool` is the default worker pool for fit/evaluate (null =
  /// par::global_pool()); TrainConfig::pool overrides it per fit.
  Trainer(Network& net, Optimizer& opt, Rng rng,
          par::ThreadPool* pool = nullptr);

  void set_grad_hook(GradHook hook) { grad_hook_ = std::move(hook); }

  /// Trains on `train`, tracking accuracy on `val` each epoch.
  TrainHistory fit(const Dataset& train, const Dataset& val,
                   const TrainConfig& cfg);

  /// Accuracy of the current network on `data`.
  double evaluate(const Dataset& data);

  /// Full confusion matrix on `data`.
  ConfusionMatrix confusion(const Dataset& data, int num_classes);

  /// Predicted label for one sample.
  int predict(const Tensor& x);

 private:
  /// Replica pool sized to `count`, lazily cloned from net_.
  void ensure_replicas(std::size_t count);

  Network& net_;
  Optimizer& opt_;
  Rng rng_;
  GradHook grad_hook_;
  par::ThreadPool* pool_;
  std::vector<Network> replicas_;
  std::vector<std::vector<Param*>> replica_params_;
};

}  // namespace zeiot::ml
