#include "ml/trainer.hpp"

#include <algorithm>
#include <limits>

#include "obs/obs.hpp"
#include "par/parallel.hpp"

namespace zeiot::ml {

namespace {

/// Samples per data-parallel shard.  Fixed shard boundaries (not tied to
/// the worker count) are what keep training reproducible.
constexpr std::size_t kShardGrain = 8;

/// Correct predictions of `net` over samples [lo, hi) of `data`, evaluated
/// in fixed 64-sample batches.  Counts are integers, so the total is
/// independent of how the range is split across workers.
std::size_t count_correct(Network& net, const Dataset& data, std::size_t lo,
                          std::size_t hi) {
  constexpr std::size_t kEvalBatch = 64;
  std::size_t correct = 0;
  std::vector<std::size_t> idx;
  for (std::size_t start = lo; start < hi; start += kEvalBatch) {
    const std::size_t end = std::min(hi, start + kEvalBatch);
    idx.clear();
    for (std::size_t i = start; i < end; ++i) idx.push_back(i);
    auto [xb, yb] = data.batch(idx);
    Tensor logits = net.forward(xb, /*train=*/false);
    const int k = logits.dim(1);
    for (int b = 0; b < logits.dim(0); ++b) {
      const float* row = logits.data() + static_cast<std::size_t>(b) * k;
      const int pred =
          static_cast<int>(std::max_element(row, row + k) - row);
      if (pred == yb[static_cast<std::size_t>(b)]) ++correct;
    }
  }
  return correct;
}

/// Correct predictions among the logit rows of one (shard) batch.
std::size_t batch_correct(const Tensor& logits, const std::vector<int>& yb) {
  std::size_t correct = 0;
  const int k = logits.dim(1);
  for (int b = 0; b < logits.dim(0); ++b) {
    const float* row = logits.data() + static_cast<std::size_t>(b) * k;
    const int pred = static_cast<int>(std::max_element(row, row + k) - row);
    if (pred == yb[static_cast<std::size_t>(b)]) ++correct;
  }
  return correct;
}

}  // namespace

Trainer::Trainer(Network& net, Optimizer& opt, Rng rng, par::ThreadPool* pool)
    : net_(net), opt_(opt), rng_(rng), pool_(pool) {}

void Trainer::ensure_replicas(std::size_t count) {
  // Network moves (vector growth) relocate only the layer-pointer table;
  // the Layer objects — and therefore the cached Param* lists — stay put.
  while (replicas_.size() < count) {
    replicas_.push_back(net_.clone());
    replica_params_.push_back(replicas_.back().params());
  }
}

TrainHistory Trainer::fit(const Dataset& train, const Dataset& val,
                          const TrainConfig& cfg) {
  ZEIOT_CHECK_MSG(!train.empty(), "cannot fit on an empty dataset");
  ZEIOT_CHECK_MSG(cfg.epochs > 0 && cfg.batch_size > 0,
                  "epochs and batch_size must be > 0");
  par::ThreadPool& pool =
      cfg.pool != nullptr ? *cfg.pool
                          : (pool_ != nullptr ? *pool_ : par::global_pool());

  // Observability: virtual-time spans on the epoch axis + wall-time
  // profiler regions.  Shard spans are recorded on this thread during the
  // shard-order reduction — never from worker bodies — so the span stream
  // is identical at any ZEIOT_THREADS.
  obs::SpanRecorder* const sp =
      (cfg.obs != nullptr && cfg.obs->spans_enabled()) ? &cfg.obs->spans()
                                                       : nullptr;
  obs::ProfilerRegistry* const prof =
      cfg.obs != nullptr ? &cfg.obs->profiler() : nullptr;
  const obs::ProfilerRegistry::RegionId fit_region =
      prof != nullptr ? prof->region("trainer.fit") : 0;
  const obs::ProfilerRegistry::RegionId epoch_region =
      prof != nullptr ? prof->region("trainer.epoch") : 0;
  obs::ScopedTimer fit_timer(prof, fit_region);

  TrainHistory hist;
  auto params = net_.params();
  int since_best = 0;
  double best_train_loss = std::numeric_limits<double>::infinity();
  for (int epoch = 0; epoch < cfg.epochs; ++epoch) {
    obs::ScopedTimer epoch_timer(prof, epoch_region);
    const obs::SpanId epoch_span =
        sp != nullptr
            ? sp->open(obs::SpanKind::TrainEpoch, static_cast<double>(epoch),
                       0, 0, static_cast<std::uint32_t>(epoch), 0)
            : 0;
    auto order = rng_.permutation(train.size());
    double loss_sum = 0.0;  // sample-weighted: sum of per-sample losses
    std::size_t correct = 0;
    for (std::size_t start = 0; start < order.size();
         start += static_cast<std::size_t>(cfg.batch_size)) {
      const std::size_t end = std::min(
          order.size(), start + static_cast<std::size_t>(cfg.batch_size));
      const std::size_t bn = end - start;
      const auto shards = par::make_chunks(bn, kShardGrain);
      // Fixed shards, per-shard replicas, gradients reduced into the
      // primary in shard order.
      ensure_replicas(shards.size());
      std::vector<double> shard_loss(shards.size(), 0.0);
      std::vector<std::size_t> shard_correct(shards.size(), 0);
      pool.run(shards.size(), [&](std::size_t s) {
        Network& rep = replicas_[s];
        rep.copy_param_values_from(net_);  // concurrent reads only
        rep.zero_grads();
        const std::vector<std::size_t> idx(
            order.begin() + static_cast<long>(start + shards[s].begin),
            order.begin() + static_cast<long>(start + shards[s].end));
        auto [xb, yb] = train.batch(idx);
        Tensor logits = rep.forward(xb, /*train=*/true);
        LossResult lr = softmax_cross_entropy(logits, yb);
        shard_loss[s] = lr.loss;
        shard_correct[s] = batch_correct(logits, yb);
        // The shard loss gradient is normalized by the shard size;
        // reweight so the summed shard gradients equal the batch-mean
        // gradient: d(mean over batch) = sum_s (n_s / bn) d(mean over s).
        lr.grad.scale_(static_cast<float>(shards[s].size()) /
                       static_cast<float>(bn));
        rep.backward(lr.grad);
      });
      net_.zero_grads();
      // The batch occupies [epoch + start/n, epoch + end/n] on the
      // virtual epoch axis; shard spans tile it evenly.
      const double bt0 = static_cast<double>(epoch) +
                         static_cast<double>(start) /
                             static_cast<double>(order.size());
      const double bt1 = static_cast<double>(epoch) +
                         static_cast<double>(end) /
                             static_cast<double>(order.size());
      const double shard_w = (bt1 - bt0) / static_cast<double>(shards.size());
      const auto batch_idx = static_cast<std::uint32_t>(
          start / static_cast<std::size_t>(cfg.batch_size));
      for (std::size_t s = 0; s < shards.size(); ++s) {
        for (std::size_t p = 0; p < params.size(); ++p) {
          params[p]->grad.add_(replica_params_[s][p]->grad);
        }
        loss_sum += shard_loss[s] * static_cast<double>(shards[s].size());
        correct += shard_correct[s];
        if (sp != nullptr) {
          sp->add(obs::SpanKind::TrainShard,
                  bt0 + static_cast<double>(s) * shard_w,
                  bt0 + static_cast<double>(s + 1) * shard_w, epoch_span, 0,
                  static_cast<std::uint32_t>(s), batch_idx, shard_loss[s]);
        }
      }
      if (grad_hook_) grad_hook_(params);
      opt_.step(params);
    }
    EpochStats es;
    es.train_loss = loss_sum / static_cast<double>(train.size());
    es.train_accuracy =
        static_cast<double>(correct) / static_cast<double>(train.size());
    es.val_accuracy = val.empty() ? 0.0 : evaluate(val);
    hist.epochs.push_back(es);
    if (sp != nullptr) {
      sp->close(epoch_span, static_cast<double>(epoch + 1), es.train_loss);
    }
    // Early stopping tracks validation accuracy when a validation set is
    // supplied; with none, it falls back to train-loss improvement (a
    // val_accuracy pinned at 0.0 would otherwise never "improve" and
    // patience would always fire after exactly `patience` epochs).
    bool improved;
    if (!val.empty()) {
      improved = es.val_accuracy > hist.best_val_accuracy;
      if (improved) hist.best_val_accuracy = es.val_accuracy;
    } else {
      improved = es.train_loss < best_train_loss;
      if (improved) best_train_loss = es.train_loss;
    }
    since_best = improved ? 0 : since_best + 1;
    if (cfg.patience > 0 && since_best >= cfg.patience) break;
  }
  return hist;
}

double Trainer::evaluate(const Dataset& data) {
  if (data.empty()) return 0.0;
  const std::size_t n = data.size();
  // Chunk layout depends only on n: the classic 64-sample eval batches,
  // merged into at most 16 worker chunks so the replica pool stays small.
  const std::size_t grain = std::max<std::size_t>(64, (n + 15) / 16);
  const auto chunks = par::make_chunks(n, grain);
  par::ThreadPool& pool = pool_ != nullptr ? *pool_ : par::global_pool();
  std::size_t correct = 0;
  if (chunks.size() <= 1 || pool.num_threads() <= 1) {
    correct = count_correct(net_, data, 0, n);
  } else {
    ensure_replicas(chunks.size());
    std::vector<std::size_t> per_chunk(chunks.size(), 0);
    pool.run(chunks.size(), [&](std::size_t c) {
      replicas_[c].copy_param_values_from(net_);
      per_chunk[c] =
          count_correct(replicas_[c], data, chunks[c].begin, chunks[c].end);
    });
    for (std::size_t v : per_chunk) correct += v;
  }
  return static_cast<double>(correct) / static_cast<double>(n);
}

ConfusionMatrix Trainer::confusion(const Dataset& data, int num_classes) {
  ZEIOT_CHECK_MSG(num_classes > 0, "num_classes must be > 0");
  ConfusionMatrix cm(static_cast<std::size_t>(num_classes));
  for (std::size_t i = 0; i < data.size(); ++i) {
    cm.add(static_cast<std::size_t>(data.label(i)),
           static_cast<std::size_t>(predict(data.x(i))));
  }
  return cm;
}

int Trainer::predict(const Tensor& x) {
  std::vector<int> shape = x.shape();
  shape.insert(shape.begin(), 1);
  Tensor xb = x.reshape(shape);
  Tensor logits = net_.forward(xb, /*train=*/false);
  return static_cast<int>(logits.argmax());
}

}  // namespace zeiot::ml
