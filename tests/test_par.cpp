// zeiot::par — deterministic thread pool, chunking, ordered reduction, and
// the cross-subsystem determinism guarantee: bit-identical results at any
// worker count for the trainer, the assignment search, and merged metrics.
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/hash.hpp"
#include "microdeep/distributed.hpp"
#include "microdeep/search.hpp"
#include "ml/kernels/backend.hpp"
#include "ml/trainer.hpp"
#include "netexec/netexec.hpp"
#include "par/parallel.hpp"

using namespace zeiot;
using namespace zeiot::par;

// ---------------------------------------------------------------- chunks --

TEST(MakeChunks, CoversRangeContiguouslyWithSequentialIndices) {
  for (std::size_t n : {1u, 7u, 64u, 100u, 1000u}) {
    for (std::size_t grain : {1u, 3u, 8u, 64u, 2000u}) {
      const auto chunks = make_chunks(n, grain);
      ASSERT_FALSE(chunks.empty());
      EXPECT_EQ(chunks.front().begin, 0u);
      EXPECT_EQ(chunks.back().end, n);
      for (std::size_t c = 0; c < chunks.size(); ++c) {
        EXPECT_EQ(chunks[c].index, c);
        EXPECT_LT(chunks[c].begin, chunks[c].end);
        EXPECT_LE(chunks[c].size(), grain);
        if (c > 0) {
          EXPECT_EQ(chunks[c].begin, chunks[c - 1].end);
        }
      }
    }
  }
}

TEST(MakeChunks, EmptyRangeYieldsNoChunks) {
  EXPECT_TRUE(make_chunks(0).empty());
  EXPECT_TRUE(make_chunks(0, 5).empty());
}

TEST(MakeChunks, DefaultGrainBoundsChunkCount) {
  for (std::size_t n : {1u, 63u, 64u, 65u, 10000u}) {
    const auto chunks = make_chunks(n);
    EXPECT_LE(chunks.size(), kDefaultMaxChunks);
    EXPECT_EQ(chunks.back().end, n);
  }
}

// ------------------------------------------------------------------ pool --

TEST(ThreadPool, ExecutesEveryIndexExactlyOnce) {
  for (std::size_t threads : {1u, 2u, 4u}) {
    ThreadPool pool(threads);
    EXPECT_EQ(pool.num_threads(), threads);
    constexpr std::size_t kCount = 1000;
    std::vector<std::atomic<int>> hits(kCount);
    pool.run(kCount, [&](std::size_t i) { hits[i].fetch_add(1); });
    for (std::size_t i = 0; i < kCount; ++i) EXPECT_EQ(hits[i].load(), 1);
  }
}

TEST(ThreadPool, ZeroCountIsANoOp) {
  ThreadPool pool(4);
  pool.run(0, [&](std::size_t) { FAIL() << "must not be called"; });
}

TEST(ThreadPool, SurvivesRepeatedReuse) {
  ThreadPool pool(4);
  std::atomic<std::size_t> total{0};
  for (int round = 0; round < 200; ++round) {
    pool.run(64, [&](std::size_t) { total.fetch_add(1); });
  }
  EXPECT_EQ(total.load(), 200u * 64u);
}

// Many short jobs of varying size on one pool: a worker claiming an index
// just as one job drains must not run it against the next job's function,
// and run() must not return while any task is still running.  Either
// defect shows up as an index that ran twice, a task still in flight after
// run() returned, or a hang.  Both are rare per job, so each pool size runs
// 1M jobs, one test case per size so ctest times and schedules them apart.
namespace {
void expect_back_to_back_jobs_run_every_index_once(std::size_t threads) {
  constexpr std::size_t kJobs = 1000000;
  ThreadPool pool(threads);
  std::vector<std::atomic<int>> hits(31);
  std::atomic<int> in_flight{0};
  std::size_t bad_jobs = 0;
  for (std::size_t job = 0; job < kJobs; ++job) {
    const std::size_t count = 2 + job % 30;
    for (auto& h : hits) h.store(0, std::memory_order_relaxed);
    pool.run(count, [&](std::size_t i) {
      in_flight.fetch_add(1);
      hits[i < hits.size() ? i : 0].fetch_add(1);
      in_flight.fetch_sub(1);
    });
    bool ok = in_flight.load() == 0;
    for (std::size_t i = 0; i < hits.size(); ++i) {
      ok = ok && hits[i].load() == (i < count ? 1 : 0);
    }
    if (!ok) ++bad_jobs;
  }
  EXPECT_EQ(bad_jobs, 0u) << "pool of " << threads << " threads";
}
}  // namespace

TEST(ThreadPool, BackToBackJobsRunEveryIndexExactlyOnceOn2Threads) {
  expect_back_to_back_jobs_run_every_index_once(2);
}

TEST(ThreadPool, BackToBackJobsRunEveryIndexExactlyOnceOn3Threads) {
  expect_back_to_back_jobs_run_every_index_once(3);
}

TEST(ThreadPool, BackToBackJobsRunEveryIndexExactlyOnceOn4Threads) {
  expect_back_to_back_jobs_run_every_index_once(4);
}

TEST(ThreadPool, PropagatesLowestIndexException) {
  ThreadPool pool(4);
  try {
    pool.run(64, [&](std::size_t i) {
      if (i == 5 || i == 17 || i == 40) {
        throw std::runtime_error("boom " + std::to_string(i));
      }
    });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "boom 5");
  }
  // The pool stays usable after a throwing region.
  std::atomic<int> ok{0};
  pool.run(16, [&](std::size_t) { ok.fetch_add(1); });
  EXPECT_EQ(ok.load(), 16);
}

TEST(ThreadPool, NestedRunsExecuteInlineWithoutDeadlock) {
  ThreadPool pool(4);
  std::atomic<std::size_t> total{0};
  pool.run(8, [&](std::size_t) {
    // Re-entrant use of the same pool must serialize, not deadlock.
    pool.run(50, [&](std::size_t) { total.fetch_add(1); });
  });
  EXPECT_EQ(total.load(), 8u * 50u);
}

TEST(DefaultThreads, HonorsZeiotThreadsEnv) {
  ASSERT_EQ(setenv("ZEIOT_THREADS", "3", 1), 0);
  EXPECT_EQ(default_threads(), 3u);
  ASSERT_EQ(setenv("ZEIOT_THREADS", "99999", 1), 0);
  EXPECT_EQ(default_threads(), 512u);  // clamped
  ASSERT_EQ(setenv("ZEIOT_THREADS", "not-a-number", 1), 0);
  EXPECT_GE(default_threads(), 1u);  // falls back to hardware
  ASSERT_EQ(unsetenv("ZEIOT_THREADS"), 0);
  EXPECT_GE(default_threads(), 1u);
}

// ------------------------------------------------------- loops/reductions --

TEST(ParallelFor, MatchesSerialForAnyPoolSize) {
  constexpr std::size_t kN = 517;
  std::vector<int> expected(kN);
  for (std::size_t i = 0; i < kN; ++i) {
    expected[i] = static_cast<int>(i * i % 1009);
  }
  for (std::size_t threads : {1u, 2u, 4u}) {
    ThreadPool pool(threads);
    std::vector<int> got(kN, -1);
    parallel_for(
        kN, [&](std::size_t i) { got[i] = static_cast<int>(i * i % 1009); },
        &pool, 7);
    EXPECT_EQ(got, expected);
  }
}

TEST(ParallelForChunks, SeesEveryChunkOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> seen(make_chunks(100, 9).size());
  parallel_for_chunks(
      100, 9,
      [&](const ChunkRange& c) {
        EXPECT_EQ(c.size(), c.end - c.begin);
        seen[c.index].fetch_add(1);
      },
      &pool);
  for (auto& s : seen) EXPECT_EQ(s.load(), 1);
}

TEST(OrderedReduce, FloatSumIsBitIdenticalAcrossPoolSizes) {
  // Values spanning many magnitudes: float addition is non-associative
  // here, so any reduction-order difference would change the bits.
  constexpr std::size_t kN = 4096;
  std::vector<float> xs(kN);
  Rng rng(99);
  for (auto& x : xs) {
    x = static_cast<float>(rng.uniform(-1.0, 1.0)) *
        static_cast<float>(1 << (rng.uniform_int(0, 20)));
  }
  auto sum_with = [&](std::size_t threads) {
    ThreadPool pool(threads);
    return ordered_reduce<float>(
        kN, 0.0f,
        [&](const ChunkRange& c) {
          float s = 0.0f;
          for (std::size_t i = c.begin; i < c.end; ++i) s += xs[i];
          return s;
        },
        [](float a, float b) { return a + b; }, &pool, 64);
  };
  const float s1 = sum_with(1);
  const float s2 = sum_with(2);
  const float s4 = sum_with(4);
  EXPECT_EQ(s1, s2);  // exact bit equality, not near-equality
  EXPECT_EQ(s1, s4);
}

TEST(OrderedReduce, FoldsChunksInIndexOrder) {
  ThreadPool pool(4);
  const auto order = ordered_reduce<std::vector<std::size_t>>(
      100, {}, [](const ChunkRange& c) { return std::vector<std::size_t>{c.index}; },
      [](std::vector<std::size_t> acc, std::vector<std::size_t> v) {
        acc.push_back(v.front());
        return acc;
      },
      &pool, 9);
  for (std::size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
}

TEST(Substream, IsAPureFunctionOfBaseAndKey) {
  const Rng base(1234);
  Rng a = substream(base, 7);
  Rng b = substream(base, 7);
  Rng c = substream(base, 8);
  bool any_diff = false;
  for (int i = 0; i < 64; ++i) {
    const double va = a.uniform(0.0, 1.0);
    EXPECT_EQ(va, b.uniform(0.0, 1.0));
    if (va != c.uniform(0.0, 1.0)) any_diff = true;
  }
  EXPECT_TRUE(any_diff);
  // The base stream is never advanced by substream().
  Rng fresh(1234);
  Rng copy = base;
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(copy.uniform(0.0, 1.0), fresh.uniform(0.0, 1.0));
  }
}

// ------------------------------------------- cross-subsystem determinism --

namespace {

ml::Network make_test_net(std::uint64_t seed) {
  Rng rng(seed);
  ml::Network net;
  net.emplace<ml::Conv2D>(1, 2, 3, 1, rng);
  net.emplace<ml::ReLU>();
  net.emplace<ml::Flatten>();
  net.emplace<ml::Dense>(2 * 6 * 6, 2, rng);
  return net;
}

ml::Dataset make_test_data(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  ml::Dataset data;
  for (std::size_t s = 0; s < n; ++s) {
    ml::Tensor x({1, 6, 6});
    double mean = 0.0;
    for (std::size_t i = 0; i < x.size(); ++i) {
      x[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
      mean += x[i];
    }
    data.add(std::move(x), mean > 0.0 ? 1 : 0);
  }
  return data;
}

struct TrainOutcome {
  ml::TrainHistory hist;
  std::vector<float> weights;
  double accuracy = 0.0;
};

TrainOutcome train_with_pool(std::size_t threads) {
  ThreadPool pool(threads);
  ml::Network net = make_test_net(7);
  ml::Adam opt(0.01);
  ml::Trainer trainer(net, opt, Rng(11), &pool);
  ml::TrainConfig cfg;
  cfg.epochs = 3;
  cfg.batch_size = 16;
  const ml::Dataset train = make_test_data(60, 21);
  const ml::Dataset val = make_test_data(20, 22);
  TrainOutcome out;
  out.hist = trainer.fit(train, val, cfg);
  for (ml::Param* p : net.params()) {
    for (std::size_t i = 0; i < p->value.size(); ++i) {
      out.weights.push_back(p->value[i]);
    }
  }
  out.accuracy = trainer.evaluate(val);
  return out;
}

}  // namespace

TEST(Determinism, TrainingIsBitIdenticalAcrossPoolSizes) {
  const TrainOutcome a = train_with_pool(1);
  const TrainOutcome b = train_with_pool(4);
  ASSERT_EQ(a.hist.epochs.size(), b.hist.epochs.size());
  for (std::size_t e = 0; e < a.hist.epochs.size(); ++e) {
    EXPECT_EQ(a.hist.epochs[e].train_loss, b.hist.epochs[e].train_loss);
    EXPECT_EQ(a.hist.epochs[e].train_accuracy, b.hist.epochs[e].train_accuracy);
    EXPECT_EQ(a.hist.epochs[e].val_accuracy, b.hist.epochs[e].val_accuracy);
  }
  ASSERT_EQ(a.weights.size(), b.weights.size());
  for (std::size_t i = 0; i < a.weights.size(); ++i) {
    ASSERT_EQ(a.weights[i], b.weights[i]) << "weight " << i;
  }
  EXPECT_EQ(a.accuracy, b.accuracy);
}

namespace {

/// Digest of a fit whose batches each fit in one shard: the final
/// parameter bits and every epoch's stats.  41 samples leave a short tail
/// batch at every batch size below.  The scalar backend is pinned so the
/// digest is the same on hosts with and without AVX2.
std::uint64_t one_shard_fit_digest(bool adam, int batch_size,
                                   std::size_t threads) {
  ml::kernels::ScopedBackend backend(ml::kernels::BackendKind::Scalar);
  ThreadPool pool(threads);
  ml::Network net = make_test_net(7);
  ml::Adam adam_opt(0.01);
  ml::Sgd sgd_opt(0.05);
  ml::Optimizer& opt = adam ? static_cast<ml::Optimizer&>(adam_opt) : sgd_opt;
  ml::Trainer trainer(net, opt, Rng(13), &pool);
  ml::TrainConfig cfg;
  cfg.epochs = 2;
  cfg.batch_size = batch_size;
  const ml::TrainHistory hist =
      trainer.fit(make_test_data(41, 23), make_test_data(12, 24), cfg);
  Fnv1a f;
  for (const ml::EpochStats& e : hist.epochs) {
    f.mix_bits(e.train_loss);
    f.mix_bits(e.train_accuracy);
    f.mix_bits(e.val_accuracy);
  }
  for (const ml::Param* p : net.params()) {
    for (std::size_t i = 0; i < p->value.size(); ++i) {
      const float v = p->value[i];
      std::uint32_t bits = 0;
      std::memcpy(&bits, &v, sizeof(bits));
      f.mix(bits);
    }
  }
  return f.value();
}

}  // namespace

TEST(Determinism, OneShardBatchFitsArePinned) {
  const struct {
    bool adam;
    int batch_size;
    std::uint64_t digest;
  } pins[] = {
      {true, 1, 15035147519347929834ULL}, {true, 3, 10198019038037610052ULL},
      {true, 5, 8595857160353812723ULL},  {true, 8, 10899411087200214007ULL},
      {false, 1, 6409581274025669539ULL}, {false, 3, 8110008773260065570ULL},
      {false, 5, 6919549627650967581ULL}, {false, 8, 955040130589039461ULL},
  };
  for (const auto& pin : pins) {
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      EXPECT_EQ(one_shard_fit_digest(pin.adam, pin.batch_size, threads),
                pin.digest)
          << (pin.adam ? "adam" : "sgd") << " batch " << pin.batch_size
          << " threads " << threads;
    }
  }
}

TEST(Determinism, AssignmentSearchPicksSameWinnerAcrossPoolSizes) {
  ml::Network net = make_test_net(3);
  const auto graph = microdeep::UnitGraph::build(net, {1, 6, 6});
  const auto wsn = microdeep::WsnTopology::grid({0.0, 0.0, 6.0, 6.0}, 3, 3);
  auto run_search = [&](std::size_t threads, obs::Observability& obs) {
    ThreadPool pool(threads);
    microdeep::AssignmentSearchOptions opts;
    opts.pool = &pool;
    return microdeep::search_assignment(graph, wsn, opts, &obs);
  };
  obs::Observability obs1, obs4;
  const auto r1 = run_search(1, obs1);
  const auto r4 = run_search(4, obs4);
  EXPECT_EQ(r1.best_index, r4.best_index);
  EXPECT_EQ(r1.best_max_cost, r4.best_max_cost);
  ASSERT_EQ(r1.candidates.size(), r4.candidates.size());
  for (std::size_t i = 0; i < r1.candidates.size(); ++i) {
    EXPECT_EQ(r1.candidates[i].label, r4.candidates[i].label);
    EXPECT_EQ(r1.candidates[i].max_cost, r4.candidates[i].max_cost);
    EXPECT_EQ(r1.candidates[i].mean_cost, r4.candidates[i].mean_cost);
  }
  for (microdeep::UnitId u = 0; u < graph.num_units(); ++u) {
    EXPECT_EQ(r1.best.node_of(u), r4.best.node_of(u));
  }
  // The published gauges (and therefore the metrics JSON) agree too.
  EXPECT_EQ(obs1.metrics().to_json(), obs4.metrics().to_json());
}

TEST(Determinism, ExecutorTraceDigestMatchesAcrossPoolSizes) {
  // End-to-end probe: train with a pool of 1 vs 4, then run one netexec
  // inference over the resulting weights with recording on.  Identical
  // weights and assignment must give identical records (bit-exact digest).
  auto digest_with = [&](std::size_t threads) {
    ThreadPool pool(threads);
    ml::Network net = make_test_net(7);
    ml::Adam opt(0.01);
    ml::Trainer trainer(net, opt, Rng(11), &pool);
    ml::TrainConfig cfg;
    cfg.epochs = 2;
    cfg.batch_size = 16;
    trainer.fit(make_test_data(48, 33), {}, cfg);
    const auto graph = microdeep::UnitGraph::build(net, {1, 6, 6});
    const auto wsn = microdeep::WsnTopology::grid({0.0, 0.0, 6.0, 6.0}, 3, 3);
    const auto assignment = microdeep::assign_balanced_heuristic(graph, wsn);
    ml::Tensor sample({1, 6, 6});
    Rng srng(5);
    for (std::size_t i = 0; i < sample.size(); ++i) {
      sample[i] = static_cast<float>(srng.uniform(-1.0, 1.0));
    }
    obs::Observability obs;
    obs.enable_spans(1 << 16);
    netexec::NetExecConfig ncfg;
    ncfg.obs = &obs;
    netexec::NetworkExecutor exec(net, graph, assignment, wsn, ncfg);
    (void)exec.run(sample);
    EXPECT_GT(obs.spans().size(), 0u);
    EXPECT_EQ(obs.spans().dropped(), 0u);
    return obs.spans().digest();
  };
  EXPECT_EQ(digest_with(1), digest_with(4));
}

TEST(Determinism, MergedMetricsRegistriesMatchAcrossPoolSizes) {
  // The bench-sweep pattern: per-point registries merged in point order.
  auto sweep_json = [&](std::size_t threads) {
    ThreadPool pool(threads);
    constexpr std::size_t kPoints = 6;
    std::vector<obs::MetricsRegistry> per(kPoints);
    parallel_for(
        kPoints,
        [&](std::size_t i) {
          per[i].counter("sweep.work", {{"point", std::to_string(i)}})
              .inc(static_cast<double>(i + 1));
          per[i].gauge("sweep.value").set(static_cast<double>(i * i));
        },
        &pool, 1);
    obs::MetricsRegistry merged;
    for (const auto& r : per) merged.merge(r);
    return merged.to_json();
  };
  EXPECT_EQ(sweep_json(1), sweep_json(4));
}

// ------------------------------------------------- fleet substream purity --
//
// Property (rides on the fleet simulator): a deployment's outcome digest is
// a pure function of (fleet_seed, kind, cell_id, parameters).  Randomized
// fleet configurations — mixed templates, sizes 1..256, random seeds —
// must reproduce each deployment's digest when that deployment runs alone
// in a singleton fleet, and a different fleet seed must move the digests.

#include "fleet/fleet.hpp"

namespace {

std::vector<zeiot::fleet::DeploymentSpec> random_fleet(Rng& rng,
                                                       std::size_t n,
                                                       bool allow_inference) {
  using zeiot::fleet::DeploymentSpec;
  using zeiot::fleet::TemplateKind;
  std::vector<DeploymentSpec> specs;
  for (std::size_t i = 0; i < n; ++i) {
    DeploymentSpec spec;
    // Mostly cheap E6 cells; a sprinkle of CNN deployments when allowed.
    const bool inference = allow_inference && rng.uniform_int(0, 7) == 0;
    if (inference) {
      spec.kind = rng.uniform_int(0, 1) == 0 ? TemplateKind::LoungeE1
                                             : TemplateKind::IrArrayE2;
      spec.samples = 1;
    } else {
      spec.kind = TemplateKind::BackscatterCellE6;
      spec.devices = static_cast<std::size_t>(rng.uniform_int(1, 8));
      spec.horizon_s = 0.25;
      spec.wlan_rate_hz = static_cast<double>(rng.uniform_int(10, 60));
    }
    spec.cell_id = static_cast<std::uint64_t>(rng.uniform_int(0, 1 << 20));
    specs.push_back(spec);
  }
  return specs;
}

/// Runs the fleet with every deployment recording into its own span
/// recorder, so each row's digest covers the deployment's whole record.
zeiot::fleet::FleetResult run_fleet_cfg(
    std::vector<zeiot::fleet::DeploymentSpec> specs, std::uint64_t seed) {
  zeiot::obs::Observability obs;
  obs.enable_spans(1 << 20);
  zeiot::fleet::FleetConfig cfg;
  cfg.seed = seed;
  cfg.deployments = std::move(specs);
  cfg.obs = &obs;
  cfg.span_capacity = 1 << 16;
  zeiot::fleet::FleetSimulator fleet(std::move(cfg));
  zeiot::fleet::FleetResult res = fleet.run();
  // The fleet record folds every slot's drops: none may be truncated.
  EXPECT_GT(obs.spans().size(), 0u);
  EXPECT_EQ(obs.spans().dropped(), 0u);
  return res;
}

}  // namespace

TEST(Determinism, FleetDeploymentDigestsDependOnlyOnSeedAndIdentity) {
  Rng meta(20260808);
  // Trial sizes cover the spec'd 1..256 range; inference templates join
  // only the small trials (template construction dominates otherwise).
  const struct {
    std::size_t n;
    bool inference;
  } trials[] = {{1, false}, {12, true}, {256, false}};
  for (const auto& trial : trials) {
    const std::uint64_t fleet_seed =
        static_cast<std::uint64_t>(meta.uniform_int(1, 1000000));
    const auto specs = random_fleet(meta, trial.n, trial.inference);
    const auto full = run_fleet_cfg(specs, fleet_seed);

    // Each probed deployment, alone in a singleton fleet, reproduces its
    // in-fleet digest exactly.
    for (int probe = 0; probe < 3; ++probe) {
      const auto k = static_cast<std::size_t>(
          meta.uniform_int(0, static_cast<std::int64_t>(trial.n) - 1));
      const auto solo = run_fleet_cfg({specs[k]}, fleet_seed);
      EXPECT_EQ(solo.digest[0], full.digest[k])
          << "n=" << trial.n << " k=" << k << " seed=" << fleet_seed;
    }

    // A different fleet seed re-keys every deployment substream.
    const auto reseeded = run_fleet_cfg(specs, fleet_seed + 1);
    EXPECT_NE(reseeded.digest, full.digest)
        << "fleet seed had no effect (n=" << trial.n << ")";
  }
}
