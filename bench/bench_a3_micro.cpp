// A3 — Microbenchmarks of the hot substrate paths (google-benchmark):
// CNN layer forward/backward (GEMM and retained naive reference), the raw
// GEMM/im2col kernels, the event-queue kernel (schedule-then-run and the
// steady-state hold model), RNG, the 802.11ac compressed-feedback
// pipeline, and the comm-cost computation.  After the timed runs, main()
// re-measures the same workloads with a coarse wall-clock and publishes
// them as perf.* gauges in the metrics JSON — the series
// tools/bench_compare diffs between runs.
#include <benchmark/benchmark.h>

#include <vector>

#include "bench_report.hpp"
#include "microdeep/comm_cost.hpp"
#include "ml/kernels/backend.hpp"
#include "ml/kernels/gemm.hpp"
#include "ml/kernels/im2col.hpp"
#include "ml/kernels/reference.hpp"
#include "netexec/netexec.hpp"
#include "obs/span.hpp"
#include "phy/beamforming.hpp"
#include "sim/simulator.hpp"

using namespace zeiot;

namespace {

ml::Tensor random_tensor(std::vector<int> shape, std::uint64_t seed) {
  Rng rng(seed);
  ml::Tensor t(std::move(shape));
  for (std::size_t i = 0; i < t.size(); ++i) {
    t[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
  }
  return t;
}

void BM_Conv2DForward(benchmark::State& state) {
  Rng rng(1);
  ml::Conv2D conv(4, 8, 3, 1, rng);
  const ml::Tensor x = random_tensor({8, 4, 17, 25}, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(conv.forward(x, false));
  }
  state.SetItemsProcessed(state.iterations() * 8);
}
BENCHMARK(BM_Conv2DForward);

void BM_Conv2DBackward(benchmark::State& state) {
  Rng rng(1);
  ml::Conv2D conv(4, 8, 3, 1, rng);
  const ml::Tensor x = random_tensor({8, 4, 17, 25}, 2);
  const ml::Tensor y = conv.forward(x, true);
  const ml::Tensor g = random_tensor(y.shape(), 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(conv.backward(g));
  }
  state.SetItemsProcessed(state.iterations() * 8);
}
BENCHMARK(BM_Conv2DBackward);

void BM_Conv2DForwardNaive(benchmark::State& state) {
  Rng rng(1);
  const ml::Tensor w = [&] {
    ml::Tensor t({8, 4, 3, 3});
    t.he_init(rng, 4 * 3 * 3);
    return t;
  }();
  const ml::Tensor b({8});
  const ml::Tensor x = random_tensor({8, 4, 17, 25}, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ml::kernels::reference::conv2d_forward(x, w, b, 1));
  }
  state.SetItemsProcessed(state.iterations() * 8);
}
BENCHMARK(BM_Conv2DForwardNaive);

void BM_DenseForward(benchmark::State& state) {
  Rng rng(1);
  ml::Dense dense(384, 32, rng);
  const ml::Tensor x = random_tensor({32, 384}, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dense.forward(x, false));
  }
  state.SetItemsProcessed(state.iterations() * 32);
}
BENCHMARK(BM_DenseForward);

void BM_DenseBackward(benchmark::State& state) {
  Rng rng(1);
  ml::Dense dense(384, 32, rng);
  const ml::Tensor x = random_tensor({32, 384}, 2);
  const ml::Tensor y = dense.forward(x, true);
  const ml::Tensor g = random_tensor(y.shape(), 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dense.backward(g));
  }
  state.SetItemsProcessed(state.iterations() * 32);
}
BENCHMARK(BM_DenseBackward);

// Raw kernels on the BM_Conv2DForward geometry: weight (8 x 36) times the
// packed panel (36 x 425) per image.
void BM_Gemm(benchmark::State& state) {
  const int m = 8, k = 36, n = 425;
  const ml::Tensor a = random_tensor({m, k}, 2);
  const ml::Tensor b = random_tensor({k, n}, 3);
  std::vector<float> c(static_cast<std::size_t>(m) * n, 0.0f);
  for (auto _ : state) {
    ml::kernels::sgemm_accum(m, n, k, a.data(), k, b.data(), n, c.data(), n);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * m * n * k);  // flops
}
BENCHMARK(BM_Gemm);

void BM_Im2col(benchmark::State& state) {
  const ml::Tensor x = random_tensor({4, 17, 25}, 2);
  std::vector<float> cols(static_cast<std::size_t>(4 * 3 * 3) * 17 * 25);
  for (auto _ : state) {
    ml::kernels::im2col(x.data(), 4, 17, 25, 3, 1, 17, 25, cols.data());
    benchmark::DoNotOptimize(cols.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<long>(cols.size()));  // floats packed
}
BENCHMARK(BM_Im2col);

void BM_MaxPoolForward(benchmark::State& state) {
  ml::MaxPool2D pool(2);
  const ml::Tensor x = random_tensor({8, 8, 16, 24}, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(pool.forward(x, false));
  }
}
BENCHMARK(BM_MaxPoolForward);

void BM_EventQueueScheduleRun(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(5);
  for (auto _ : state) {
    sim::Simulator sim;
    for (std::size_t i = 0; i < n; ++i) {
      sim.schedule(rng.uniform(0.0, 1000.0), [] {});
    }
    sim.run();
  }
  state.SetItemsProcessed(state.iterations() * static_cast<long>(n));
}
BENCHMARK(BM_EventQueueScheduleRun)->Arg(1000)->Arg(10000);

// The hold model of event-queue benchmarks: `pending` events in flight,
// each of which schedules one successor when it runs, at now plus a seeded
// delay in 1/64 s steps so equal times (FIFO ties) are common.
class EventHold {
 public:
  explicit EventHold(std::size_t pending) {
    for (std::size_t i = 0; i < pending; ++i) arm();
  }
  EventHold(const EventHold&) = delete;
  EventHold& operator=(const EventHold&) = delete;

  /// Runs `events` events; returns the number run.
  std::size_t run(std::size_t events) { return sim_.run(events); }

 private:
  double delay() {
    return static_cast<double>(rng_.uniform_int(0, 63)) / 64.0;
  }
  void arm() { sim_.schedule(delay(), [this] { arm(); }); }

  sim::Simulator sim_;
  Rng rng_{5};
};

constexpr std::size_t kHoldBatch = 4096;

void BM_EventQueueHold(benchmark::State& state) {
  EventHold hold(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) benchmark::DoNotOptimize(hold.run(kHoldBatch));
  state.SetItemsProcessed(state.iterations() *
                          static_cast<long>(kHoldBatch));
}
BENCHMARK(BM_EventQueueHold)->Arg(64)->Arg(1024);

void BM_RngNormal(benchmark::State& state) {
  Rng rng(7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.normal());
  }
}
BENCHMARK(BM_RngNormal);

void BM_CompressedFeedback(benchmark::State& state) {
  phy::CsiEnvironment env;
  env.subcarriers = static_cast<int>(state.range(0));
  Rng rng(9);
  const auto h = phy::generate_csi(env, {4.0, 3.0}, 0.05, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(phy::compressed_feedback_features(h));
  }
}
BENCHMARK(BM_CompressedFeedback)->Arg(8)->Arg(52);

void BM_CommCost(benchmark::State& state) {
  Rng rng(1);
  ml::Network net;
  net.emplace<ml::Conv2D>(1, 4, 3, 1, rng);
  net.emplace<ml::ReLU>();
  net.emplace<ml::MaxPool2D>(2);
  net.emplace<ml::Flatten>();
  net.emplace<ml::Dense>(4 * 8 * 12, 8, rng);
  net.emplace<ml::ReLU>();
  net.emplace<ml::Dense>(8, 2, rng);
  const auto g = microdeep::UnitGraph::build(net, {1, 17, 25});
  Rng wsn_rng(2);
  const auto wsn = microdeep::WsnTopology::jittered_grid(
      {0.0, 0.0, 50.0, 34.0}, 10, 5, wsn_rng);
  const auto a = microdeep::assign_balanced_heuristic(g, wsn);
  for (auto _ : state) {
    benchmark::DoNotOptimize(microdeep::compute_comm_cost(a, wsn));
  }
}
BENCHMARK(BM_CommCost);

// Same evaluation through the bounded entry point with an explicit reused
// scratch — the assignment-search inner loop.
void BM_CommCostReusedScratch(benchmark::State& state) {
  Rng rng(1);
  ml::Network net;
  net.emplace<ml::Conv2D>(1, 4, 3, 1, rng);
  net.emplace<ml::ReLU>();
  net.emplace<ml::MaxPool2D>(2);
  net.emplace<ml::Flatten>();
  net.emplace<ml::Dense>(4 * 8 * 12, 8, rng);
  net.emplace<ml::ReLU>();
  net.emplace<ml::Dense>(8, 2, rng);
  const auto g = microdeep::UnitGraph::build(net, {1, 17, 25});
  Rng wsn_rng(2);
  const auto wsn = microdeep::WsnTopology::jittered_grid(
      {0.0, 0.0, 50.0, 34.0}, 10, 5, wsn_rng);
  const auto a = microdeep::assign_balanced_heuristic(g, wsn);
  microdeep::CommCostScratch scratch;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        microdeep::compute_comm_cost_bounded(a, wsn, {}, scratch));
  }
}
BENCHMARK(BM_CommCostReusedScratch);

void BM_UnitGraphBuild(benchmark::State& state) {
  Rng rng(1);
  ml::Network net;
  net.emplace<ml::Conv2D>(1, 4, 3, 1, rng);
  net.emplace<ml::ReLU>();
  net.emplace<ml::MaxPool2D>(2);
  net.emplace<ml::Flatten>();
  net.emplace<ml::Dense>(4 * 8 * 12, 8, rng);
  net.emplace<ml::ReLU>();
  net.emplace<ml::Dense>(8, 2, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(microdeep::UnitGraph::build(net, {1, 17, 25}));
  }
}
BENCHMARK(BM_UnitGraphBuild);

// Span-recorder hot path: one root open/close plus one closed child per
// iteration.  The enabled variant prices what tracing adds per recorded
// span; the disabled variant must price as a bool test per call — the
// null-sink guarantee every instrumented subsystem relies on.
void BM_SpanRecord(benchmark::State& state) {
  obs::SpanRecorder rec(1 << 16);
  for (auto _ : state) {
    if (rec.size() + 2 > rec.capacity()) rec.clear();
    const obs::SpanId root = rec.open(obs::SpanKind::Inference, 0.0, 0, 42);
    rec.add(obs::SpanKind::HopTx, 0.0, 1e-3, root, 42, 1, 2, 3e-6);
    rec.close(root, 2e-3, 1.0);
    benchmark::DoNotOptimize(rec.size());
  }
  state.SetItemsProcessed(state.iterations() * 2);  // spans recorded
}
BENCHMARK(BM_SpanRecord);

void BM_SpanRecordDisabled(benchmark::State& state) {
  obs::SpanRecorder rec;  // capacity 0: the null sink
  for (auto _ : state) {
    const obs::SpanId root = rec.open(obs::SpanKind::Inference, 0.0, 0, 42);
    rec.add(obs::SpanKind::HopTx, 0.0, 1e-3, root, 42, 1, 2, 3e-6);
    rec.close(root, 2e-3, 1.0);
    benchmark::DoNotOptimize(rec.size());
  }
  state.SetItemsProcessed(state.iterations() * 2);
}
BENCHMARK(BM_SpanRecordDisabled);

}  // namespace

// Custom main (instead of benchmark_main) so the binary can emit the
// standard metrics report after the timed runs.  The benchmarks above run
// fully un-instrumented — the observability null sink keeps the measured
// hot paths at seed speed — and a separate instrumented pass afterwards
// populates the comm-cost series for the report.
int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  obs::Observability obs;
  {
    Rng rng(1);
    ml::Network net;
    net.emplace<ml::Conv2D>(1, 4, 3, 1, rng);
    net.emplace<ml::ReLU>();
    net.emplace<ml::MaxPool2D>(2);
    net.emplace<ml::Flatten>();
    net.emplace<ml::Dense>(4 * 8 * 12, 8, rng);
    net.emplace<ml::ReLU>();
    net.emplace<ml::Dense>(8, 2, rng);
    const auto g = microdeep::UnitGraph::build(net, {1, 17, 25});
    Rng wsn_rng(2);
    const auto wsn = microdeep::WsnTopology::jittered_grid(
        {0.0, 0.0, 50.0, 34.0}, 10, 5, wsn_rng);
    const auto a = microdeep::assign_balanced_heuristic(g, wsn);
    (void)microdeep::compute_comm_cost(a, wsn, {}, &obs);

    // perf.* gauges: one coarse wall-clock sample per hot path, on the
    // same workloads as the google-benchmark runs above.  These land in
    // the metrics JSON so tools/bench_compare can diff two runs.
    {
      Rng lrng(1);
      ml::Conv2D conv(4, 8, 3, 1, lrng);
      const ml::Tensor cx = random_tensor({8, 4, 17, 25}, 2);
      const ml::Tensor cy = conv.forward(cx, true);
      const ml::Tensor cg = random_tensor(cy.shape(), 3);
      bench::record_perf(
          obs, "conv2d_forward",
          bench::time_workload([&] { (void)conv.forward(cx, false); }), 8.0);
      bench::record_perf(obs, "conv2d_backward",
                         bench::time_workload([&] { (void)conv.backward(cg); }),
                         8.0);
      const ml::Tensor cw = random_tensor({8, 4, 3, 3}, 4);
      const ml::Tensor cb({8});
      bench::record_perf(obs, "conv2d_forward_naive",
                         bench::time_workload([&] {
                           (void)ml::kernels::reference::conv2d_forward(
                               cx, cw, cb, 1);
                         }),
                         8.0);

      ml::Dense dense(384, 32, lrng);
      const ml::Tensor dx = random_tensor({32, 384}, 5);
      const ml::Tensor dy = dense.forward(dx, true);
      const ml::Tensor dg = random_tensor(dy.shape(), 6);
      bench::record_perf(
          obs, "dense_forward",
          bench::time_workload([&] { (void)dense.forward(dx, false); }, 50),
          32.0);
      bench::record_perf(
          obs, "dense_backward",
          bench::time_workload([&] { (void)dense.backward(dg); }, 50), 32.0);
      const ml::Tensor dw = random_tensor({32, 384}, 7);
      const ml::Tensor db({32});
      bench::record_perf(obs, "dense_forward_naive",
                         bench::time_workload(
                             [&] {
                               (void)ml::kernels::reference::dense_forward(
                                   dx, dw, db);
                             },
                             50),
                         32.0);

      ml::MaxPool2D pool(2);
      const ml::Tensor px = random_tensor({8, 8, 16, 24}, 8);
      bench::record_perf(
          obs, "maxpool_forward",
          bench::time_workload([&] { (void)pool.forward(px, false); }, 20),
          8.0);

      const int gm = 8, gk = 36, gn = 425;
      const ml::Tensor ga = random_tensor({gm, gk}, 9);
      const ml::Tensor gb2 = random_tensor({gk, gn}, 10);
      std::vector<float> gc(static_cast<std::size_t>(gm) * gn, 0.0f);
      bench::record_perf(obs, "gemm",
                         bench::time_workload(
                             [&] {
                               ml::kernels::sgemm_accum(gm, gn, gk, ga.data(),
                                                        gk, gb2.data(), gn,
                                                        gc.data(), gn);
                             },
                             200),
                         2.0 * gm * gn * gk);
      // Per-backend SGEMM throughput: one perf.a3.gemm.<backend>.gflops
      // gauge per backend the dispatcher can actually run on this host, so
      // tools/bench_compare can diff scalar vs SIMD run over run.  A larger
      // shape than the conv geometry (64 x 144 x 425 — sixteen stacked
      // conv panels) amortizes per-call overhead into a stable rate.
      {
        const int bm = 64, bk = 144, bn = 425;
        const ml::Tensor ba = random_tensor({bm, bk}, 13);
        const ml::Tensor bb = random_tensor({bk, bn}, 14);
        std::vector<float> bc(static_cast<std::size_t>(bm) * bn, 0.0f);
        const double flops = 2.0 * bm * bn * bk;
        for (const auto kind : {ml::kernels::BackendKind::Scalar,
                                ml::kernels::BackendKind::Avx2}) {
          if (!ml::kernels::backend_available(kind)) continue;
          ml::kernels::ScopedBackend pin(kind);
          const double wall = bench::time_workload(
              [&] {
                ml::kernels::sgemm_accum(bm, bn, bk, ba.data(), bk, bb.data(),
                                         bn, bc.data(), bn);
              },
              100);
          obs.metrics()
              .gauge(std::string("perf.a3.gemm.") +
                     ml::kernels::backend_name(kind) + ".gflops")
              .set(flops / wall / 1e9);
        }
      }

      const ml::Tensor ix = random_tensor({4, 17, 25}, 11);
      std::vector<float> cols(static_cast<std::size_t>(4 * 3 * 3) * 17 * 25);
      bench::record_perf(obs, "im2col",
                         bench::time_workload(
                             [&] {
                               ml::kernels::im2col(ix.data(), 4, 17, 25, 3, 1,
                                                   17, 25, cols.data());
                             },
                             200),
                         static_cast<double>(cols.size()));

      bench::record_perf(
          obs, "comm_cost",
          bench::time_workload([&] { (void)microdeep::compute_comm_cost(a, wsn); },
                               50),
          1.0);
      microdeep::CommCostScratch scratch;
      bench::record_perf(obs, "comm_cost_scratch",
                         bench::time_workload(
                             [&] {
                               (void)microdeep::compute_comm_cost_bounded(
                                   a, wsn, {}, scratch);
                             },
                             50),
                         1.0);

      EventHold hold(1024);
      constexpr std::size_t kHoldEvents = 1 << 18;
      bench::record_perf(
          obs, "sim_hold",
          bench::time_workload([&] { (void)hold.run(kHoldEvents); }),
          static_cast<double>(kHoldEvents));
    }

    // Tracing-overhead check: the same short netexec replay timed three
    // ways — no observability, a null-sink context (spans disabled), and
    // spans enabled.  Span capture must stay within ~5% of the null-sink
    // wall time; the spans-disabled guard itself prices at ~0% (see
    // BM_SpanRecordDisabled for the per-call cost).  Ratios are published
    // as gauges so tools/bench_compare tracks them run over run; the 5%
    // bound warns rather than fails because single-shot wall clocks on CI
    // runners are noisy.
    {
      const ml::Tensor sample = random_tensor({1, 17, 25}, 12);
      netexec::NetExecConfig ncfg;
      ncfg.channel.loss_per_hop = 0.05;  // exercise retry/backoff spans
      constexpr int kRuns = 4;
      const auto replay = [&](obs::Observability* nobs) {
        netexec::NetExecConfig c = ncfg;
        c.obs = nobs;
        netexec::NetworkExecutor exec(net, g, a, wsn, c);
        for (int i = 0; i < kRuns; ++i) (void)exec.run(sample);
      };
      const double noobs_s = bench::time_workload([&] { replay(nullptr); });
      obs::Observability null_obs;  // metrics only, spans disabled
      const double null_s = bench::time_workload([&] { replay(&null_obs); });
      obs::Observability span_obs;
      span_obs.enable_spans(1 << 18);
      const double spans_s = bench::time_workload([&] {
        span_obs.spans().clear();
        replay(&span_obs);
      });
      bench::record_perf(obs, "netexec_noobs", noobs_s, kRuns);
      bench::record_perf(obs, "netexec_null_sink", null_s, kRuns);
      bench::record_perf(obs, "netexec_spans", spans_s, kRuns);
      obs.metrics()
          .gauge("obs.overhead.null_sink_ratio")
          .set(null_s / noobs_s);
      obs.metrics().gauge("obs.overhead.spans_ratio").set(spans_s / null_s);
      if (spans_s > null_s * 1.05) {
        std::cerr << "WARNING: bench_a3_micro: span tracing overhead "
                  << (spans_s / null_s - 1.0) * 100.0
                  << "% exceeds the 5% budget (null-sink replay " << null_s
                  << " s, spans-enabled " << spans_s << " s)\n";
      }
    }
  }
  bench::write_bench_report("bench_a3_micro", obs);
  return 0;
}
