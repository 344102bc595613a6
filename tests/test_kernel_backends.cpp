// Backend conformance suite for the runtime-dispatched SIMD kernels
// (ctest label: kernels).
//
// Pins the contracts promised in ml/kernels/backend.hpp:
//   * dispatch — the ZEIOT_KERNEL_BACKEND grammar, availability probing,
//     ScopedBackend restore semantics, loud failure on unavailable kinds;
//   * float conformance — scalar and AVX2 GEMMs agree with a double-
//     precision reference (and with each other) within documented ULP
//     bounds on randomized shapes covering every remainder path;
//   * the int8 transport grid — quantize_value rounding, clamping and
//     saturation against hand-computed vectors, and calibration scales
//     that are bit-identical under every backend;
//   * 64-byte alignment regression — Tensor, AlignedVector, Workspace
//     carvings (the AVX2 tile loads rely on it for aligned-ish streams);
//   * per-node memory model — an int8 deployment needs strictly less peak
//     residency than a float one;
//   * netexec quantized transport — single-node deployments are bit-exact
//     vs float transport, distributed ones pay strictly less airtime
//     energy, and act_scales validation rejects malformed configs.
#include "ml/kernels/backend.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "common/error.hpp"
#include "microdeep/memory.hpp"
#include "microdeep/quant.hpp"
#include "ml/dataset.hpp"
#include "ml/kernels/aligned.hpp"
#include "ml/kernels/gemm.hpp"
#include "ml/kernels/workspace.hpp"
#include "netexec/netexec.hpp"
#include "par/thread_pool.hpp"

namespace zeiot::ml::kernels {
namespace {

using microdeep::Assignment;
using microdeep::UnitGraph;
using microdeep::WsnTopology;

bool is_aligned64(const void* p) {
  return reinterpret_cast<std::uintptr_t>(p) % kTensorAlignment == 0;
}

std::vector<float> random_floats(std::size_t n, Rng& rng, double lo = -1.0,
                                 double hi = 1.0) {
  std::vector<float> v(n);
  for (float& x : v) x = static_cast<float>(rng.uniform(lo, hi));
  return v;
}

/// Double-precision naive C += A*B reference (the conformance anchor both
/// float backends must stay near).
std::vector<float> ref_sgemm(int m, int n, int k, const std::vector<float>& a,
                             const std::vector<float>& b,
                             const std::vector<float>& c0) {
  std::vector<float> c = c0;
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < n; ++j) {
      double acc = c0[static_cast<std::size_t>(i) * n + j];
      for (int p = 0; p < k; ++p) {
        acc += static_cast<double>(a[static_cast<std::size_t>(i) * k + p]) *
               static_cast<double>(b[static_cast<std::size_t>(p) * n + j]);
      }
      c[static_cast<std::size_t>(i) * n + j] = static_cast<float>(acc);
    }
  }
  return c;
}

/// Double-precision naive C += A*B^T (B stored n x k row-major).
std::vector<float> ref_sgemm_abt(int m, int n, int k,
                                 const std::vector<float>& a,
                                 const std::vector<float>& b,
                                 const std::vector<float>& c0) {
  std::vector<float> c = c0;
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < n; ++j) {
      double acc = c0[static_cast<std::size_t>(i) * n + j];
      for (int p = 0; p < k; ++p) {
        acc += static_cast<double>(a[static_cast<std::size_t>(i) * k + p]) *
               static_cast<double>(b[static_cast<std::size_t>(j) * k + p]);
      }
      c[static_cast<std::size_t>(i) * n + j] = static_cast<float>(acc);
    }
  }
  return c;
}

/// |got - want| <= k_terms * 4 ulp-ish relative bound: the backends keep
/// fixed orders but reassociate differently from the double reference, so
/// the error budget scales with the reduction length.
void expect_gemm_close(const std::vector<float>& got,
                       const std::vector<float>& want, int k_terms,
                       const char* what) {
  ASSERT_EQ(got.size(), want.size());
  const double rtol = 1e-6 * std::max(8.0, static_cast<double>(k_terms));
  for (std::size_t i = 0; i < got.size(); ++i) {
    const double scale =
        std::max({1.0, std::abs(static_cast<double>(got[i])),
                  std::abs(static_cast<double>(want[i]))});
    EXPECT_NEAR(got[i], want[i], rtol * scale)
        << what << " diverges at flat index " << i;
  }
}

void expect_bitwise_equal(const Tensor& a, const Tensor& b,
                          const char* what) {
  ASSERT_EQ(a.shape(), b.shape()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const float fa = a[i], fb = b[i];
    std::uint32_t ba = 0, bb = 0;
    std::memcpy(&ba, &fa, sizeof(ba));
    std::memcpy(&bb, &fb, sizeof(bb));
    ASSERT_EQ(ba, bb) << what << ": element " << i << " differs bitwise ("
                      << fa << " vs " << fb << ")";
  }
}

// ---------------------------------------------------------------------------
// Dispatch.

TEST(BackendDispatch, ScalarIsAlwaysAvailableAndComplete) {
  EXPECT_TRUE(backend_available(BackendKind::Scalar));
  ScopedBackend pin(BackendKind::Scalar);
  const Backend& b = active_backend();
  EXPECT_EQ(b.kind, BackendKind::Scalar);
  EXPECT_NE(b.sgemm_accum, nullptr);
  EXPECT_NE(b.sgemm_abt_accum, nullptr);
}

TEST(BackendDispatch, ParseBackendGrammar) {
  EXPECT_EQ(parse_backend("scalar"), BackendKind::Scalar);
  EXPECT_EQ(parse_backend("avx2"), BackendKind::Avx2);
  EXPECT_EQ(parse_backend("neon"), BackendKind::Neon);
  // "auto" / "" resolve to something the host can actually run.
  EXPECT_TRUE(backend_available(parse_backend("auto")));
  EXPECT_TRUE(backend_available(parse_backend("")));
  EXPECT_THROW(parse_backend("sse9"), Error);
  EXPECT_THROW(parse_backend("AVX2"), Error);  // grammar is lowercase
}

TEST(BackendDispatch, BackendNamesAreStable) {
  EXPECT_STREQ(backend_name(BackendKind::Scalar), "scalar");
  EXPECT_STREQ(backend_name(BackendKind::Avx2), "avx2");
  EXPECT_STREQ(backend_name(BackendKind::Neon), "neon");
}

TEST(BackendDispatch, UnavailableBackendThrowsLoudly) {
  // NEON is a recognised name but never available on x86 builds; if this
  // ever starts passing on a real aarch64 port, drop the guard.
  if (backend_available(BackendKind::Neon)) GTEST_SKIP();
  EXPECT_THROW(set_backend(BackendKind::Neon), Error);
}

TEST(BackendDispatch, ScopedBackendPinsAndRestores) {
  const BackendKind before = active_backend().kind;
  {
    ScopedBackend pin(BackendKind::Scalar);
    EXPECT_EQ(active_backend().kind, BackendKind::Scalar);
    EXPECT_EQ(active_backend().name, std::string("scalar"));
  }
  EXPECT_EQ(active_backend().kind, before);
}

TEST(BackendDispatch, Avx2TableMatchesCpuid) {
  // backend_available must agree with the probe + build flags; on the CI
  // hosts that run this suite with ZEIOT_KERNEL_BACKEND=avx2, this is the
  // test that would catch a silently-scalar "avx2" table.
  if (!backend_available(BackendKind::Avx2)) GTEST_SKIP()
      << "host/build has no AVX2+FMA";
  ScopedBackend pin(BackendKind::Avx2);
  EXPECT_EQ(active_backend().kind, BackendKind::Avx2);
  EXPECT_NE(active_backend().sgemm_accum,
            static_cast<SgemmFn>(&detail::sgemm_accum_scalar));
}

// ---------------------------------------------------------------------------
// Float conformance: scalar vs AVX2 vs double reference.

TEST(FloatConformance, SgemmAccumMatchesReferenceOnRandomShapes) {
  Rng rng(2024);
  // m sweeps every 6-row remainder (1..5) plus multi-tile rows; n sweeps
  // the 16-wide, 8-wide, and masked-tail column paths; k exercises the
  // grouped-by-4 scalar order and the FMA chains.
  for (std::uint64_t trial = 0; trial < 24; ++trial) {
    const int m = static_cast<int>(rng.uniform_int(1, 14));
    const int n = static_cast<int>(rng.uniform_int(1, 41));
    const int k = static_cast<int>(rng.uniform_int(1, 71));
    const auto a = random_floats(static_cast<std::size_t>(m) * k, rng);
    const auto b = random_floats(static_cast<std::size_t>(k) * n, rng);
    const auto c0 = random_floats(static_cast<std::size_t>(m) * n, rng);
    const auto want = ref_sgemm(m, n, k, a, b, c0);

    auto run = [&](BackendKind kind) {
      ScopedBackend pin(kind);
      std::vector<float> c = c0;
      sgemm_accum(m, n, k, a.data(), k, b.data(), n, c.data(), n);
      return c;
    };
    const auto scalar = run(BackendKind::Scalar);
    expect_gemm_close(scalar, want, k, "scalar sgemm_accum");
    if (backend_available(BackendKind::Avx2)) {
      const auto avx2 = run(BackendKind::Avx2);
      expect_gemm_close(avx2, want, k, "avx2 sgemm_accum");
      expect_gemm_close(avx2, scalar, k, "avx2-vs-scalar sgemm_accum");
    }
  }
}

TEST(FloatConformance, SgemmAbtAccumMatchesReferenceOnRandomShapes) {
  Rng rng(4048);
  for (std::uint64_t trial = 0; trial < 24; ++trial) {
    const int m = static_cast<int>(rng.uniform_int(1, 10));
    const int n = static_cast<int>(rng.uniform_int(1, 10));
    const int k = static_cast<int>(rng.uniform_int(1, 130));
    const auto a = random_floats(static_cast<std::size_t>(m) * k, rng);
    const auto b = random_floats(static_cast<std::size_t>(n) * k, rng);
    const auto c0 = random_floats(static_cast<std::size_t>(m) * n, rng);
    const auto want = ref_sgemm_abt(m, n, k, a, b, c0);

    auto run = [&](BackendKind kind) {
      ScopedBackend pin(kind);
      std::vector<float> c = c0;
      sgemm_abt_accum(m, n, k, a.data(), k, b.data(), k, c.data(), n);
      return c;
    };
    const auto scalar = run(BackendKind::Scalar);
    expect_gemm_close(scalar, want, k, "scalar sgemm_abt_accum");
    if (backend_available(BackendKind::Avx2)) {
      const auto avx2 = run(BackendKind::Avx2);
      expect_gemm_close(avx2, want, k, "avx2 sgemm_abt_accum");
    }
  }
}

TEST(FloatConformance, PerBackendRerunsAreBitIdentical) {
  Rng rng(77);
  const int m = 11, n = 23, k = 37;
  const auto a = random_floats(static_cast<std::size_t>(m) * k, rng);
  const auto b = random_floats(static_cast<std::size_t>(k) * n, rng);
  for (BackendKind kind : {BackendKind::Scalar, BackendKind::Avx2}) {
    if (!backend_available(kind)) continue;
    ScopedBackend pin(kind);
    std::vector<float> c1(static_cast<std::size_t>(m) * n, 0.25f);
    std::vector<float> c2 = c1;
    sgemm_accum(m, n, k, a.data(), k, b.data(), n, c1.data(), n);
    sgemm_accum(m, n, k, a.data(), k, b.data(), n, c2.data(), n);
    EXPECT_EQ(0, std::memcmp(c1.data(), c2.data(), c1.size() * sizeof(float)))
        << backend_name(kind) << " rerun diverges";
  }
}

// ---------------------------------------------------------------------------
// The int8 transport grid.

TEST(RequantGoldens, QuantizeValueClampsAndRoundsHalfAwayFromZero) {
  using microdeep::quantize_value;
  EXPECT_EQ(quantize_value(0.0f, 1.0f), 0);
  EXPECT_EQ(quantize_value(0.5f, 1.0f), 1);
  EXPECT_EQ(quantize_value(-0.5f, 1.0f), -1);
  EXPECT_EQ(quantize_value(300.0f, 1.0f), 127);
  EXPECT_EQ(quantize_value(-300.0f, 1.0f), -127);
  EXPECT_EQ(quantize_value(1.27f, 0.01f), 127);
  EXPECT_EQ(quantize_value(-1.27f, 0.01f), -127);
  // Quotients far beyond any integer type saturate with their own sign.
  const float inf = std::numeric_limits<float>::infinity();
  EXPECT_EQ(quantize_value(1.0f, 1e-30f), 127);
  EXPECT_EQ(quantize_value(-1.0f, 1e-30f), -127);
  EXPECT_EQ(quantize_value(inf, 1.0f), 127);
  EXPECT_EQ(quantize_value(-inf, 1.0f), -127);
  EXPECT_EQ(quantize_value(std::numeric_limits<float>::quiet_NaN(), 1.0f), 0);
}

// ---------------------------------------------------------------------------
// 64-byte alignment regression (Tensor / AlignedVector / Workspace).

TEST(Alignment, TensorAllocationsAre64ByteAligned) {
  // Odd shapes on purpose: alignment must come from the allocator, not
  // from lucky size rounding.
  for (const auto& shape : std::vector<std::vector<int>>{
           {1}, {3, 5}, {3, 7, 7}, {2, 10, 10, 10}, {129}}) {
    Tensor t(shape);
    EXPECT_TRUE(is_aligned64(t.data())) << t.shape_str();
    Tensor copy = t;
    EXPECT_TRUE(is_aligned64(copy.data())) << "copy of " << t.shape_str();
  }
}

TEST(Alignment, AlignedVectorStaysAlignedAcrossGrowth) {
  AlignedVector<float> v;
  for (std::size_t n : {1u, 17u, 100u, 1000u, 4097u}) {
    v.resize(n);
    EXPECT_TRUE(is_aligned64(v.data())) << "size " << n;
  }
}

TEST(Alignment, WorkspaceCarvingsAre64ByteAligned) {
  Workspace ws;
  static_assert(Workspace::align_floats(1) == 16);
  static_assert(Workspace::align_floats(16) == 16);
  static_assert(Workspace::align_floats(17) == 32);
  ws.reset();
  ws.require(Workspace::align_floats(7) + Workspace::align_floats(33) +
             Workspace::align_floats(100));
  EXPECT_TRUE(is_aligned64(ws.alloc(Workspace::align_floats(7))));
  EXPECT_TRUE(is_aligned64(ws.alloc(Workspace::align_floats(33))));
  EXPECT_TRUE(is_aligned64(ws.alloc(Workspace::align_floats(100))));
}

// ---------------------------------------------------------------------------
// Whole-network determinism.

ml::Network make_cnn(Rng& rng, int in_ch = 2, int grid = 8) {
  ml::Network net;
  net.emplace<ml::Conv2D>(in_ch, 3, 3, 1, rng);
  net.emplace<ml::ReLU>();
  net.emplace<ml::MaxPool2D>(2);
  net.emplace<ml::Flatten>();
  net.emplace<ml::Dense>(3 * (grid / 2) * (grid / 2), 8, rng);
  net.emplace<ml::ReLU>();
  net.emplace<ml::Dense>(8, 3, rng);
  return net;
}

/// One 3-D sample (no batch dim) — the shape NetworkExecutor::run expects.
Tensor random_sample(std::vector<int> shape, std::uint64_t seed) {
  Rng rng(seed);
  Tensor t(std::move(shape));
  for (std::size_t i = 0; i < t.size(); ++i) {
    t[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
  }
  return t;
}

Tensor random_batch(int n, std::vector<int> shape, std::uint64_t seed) {
  Rng rng(seed);
  shape.insert(shape.begin(), n);
  Tensor t(std::move(shape));
  for (std::size_t i = 0; i < t.size(); ++i) {
    t[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
  }
  return t;
}

TEST(NetworkDeterminism, ForwardBitIdenticalAcrossThreadCountsPerBackend) {
  Rng rng(11);
  ml::Network net = make_cnn(rng);
  const Tensor x = random_batch(4, {2, 8, 8}, 99);
  for (BackendKind kind : {BackendKind::Scalar, BackendKind::Avx2}) {
    if (!backend_available(kind)) continue;
    ScopedBackend pin(kind);
    par::ThreadPool one(1), four(4);
    net.set_pool(&one);
    const Tensor y1 = net.forward(x, /*train=*/false);
    net.set_pool(&four);
    const Tensor y4 = net.forward(x, /*train=*/false);
    net.set_pool(nullptr);
    const Tensor yg = net.forward(x, /*train=*/false);
    expect_bitwise_equal(y1, y4, backend_name(kind));
    expect_bitwise_equal(y1, yg, backend_name(kind));
  }
}

TEST(NetworkDeterminism, BackendsAgreeWithinUlpBoundsOnForward) {
  if (!backend_available(BackendKind::Avx2)) GTEST_SKIP();
  Rng rng(12);
  ml::Network net = make_cnn(rng);
  const Tensor x = random_batch(4, {2, 8, 8}, 100);
  ScopedBackend pin_s(BackendKind::Scalar);
  const Tensor ys = net.forward(x, false);
  Tensor ya;
  {
    ScopedBackend pin_a(BackendKind::Avx2);
    ya = net.forward(x, false);
  }
  ASSERT_EQ(ys.shape(), ya.shape());
  for (std::size_t i = 0; i < ys.size(); ++i) {
    const double scale = std::max(
        {1.0, std::abs(static_cast<double>(ys[i])), std::abs(static_cast<double>(ya[i]))});
    EXPECT_NEAR(ys[i], ya[i], 1e-4 * scale) << "logit " << i;
  }
}

// ---------------------------------------------------------------------------
// Unit-layer activation calibration.

TEST(UnitActivationScales, OneFinitePositiveScalePerUnitLayer) {
  Rng rng(31);
  ml::Network net = make_cnn(rng);
  const std::vector<int> shape{2, 8, 8};
  const UnitGraph graph = UnitGraph::build(net, shape);
  const Tensor calib = random_batch(12, shape, 14);
  const auto scales =
      microdeep::calibrate_unit_activation_scales(net, graph, calib);
  ASSERT_EQ(scales.size(), graph.layers().size());
  for (std::size_t i = 0; i < scales.size(); ++i) {
    EXPECT_TRUE(std::isfinite(scales[i])) << "layer " << i;
    EXPECT_GT(scales[i], 0.0f) << "layer " << i;
  }
  // Deterministic: same inputs, same scales.
  EXPECT_EQ(scales,
            microdeep::calibrate_unit_activation_scales(net, graph, calib));
}

TEST(UnitActivationScales, IdenticalAcrossBackends) {
  // The scales come from the scalar unit kernels the nodes run, never from
  // the dispatched GEMM, so int8 frames carry the same grid on every host.
  Rng rng(32);
  ml::Network net = make_cnn(rng, 3, 10);
  const std::vector<int> shape{3, 10, 10};
  const UnitGraph graph = UnitGraph::build(net, shape);
  const Tensor calib = random_batch(32, shape, 15);
  std::vector<float> scalar;
  {
    ScopedBackend pin(BackendKind::Scalar);
    scalar = microdeep::calibrate_unit_activation_scales(net, graph, calib);
  }
  if (!backend_available(BackendKind::Avx2)) {
    GTEST_SKIP() << "no AVX2 backend on this host";
  }
  ScopedBackend pin(BackendKind::Avx2);
  const auto avx2 =
      microdeep::calibrate_unit_activation_scales(net, graph, calib);
  ASSERT_EQ(scalar.size(), avx2.size());
  for (std::size_t i = 0; i < scalar.size(); ++i) {
    EXPECT_EQ(std::memcmp(&scalar[i], &avx2[i], sizeof(float)), 0)
        << "unit layer " << i << ": " << scalar[i] << " vs " << avx2[i];
  }
}

// ---------------------------------------------------------------------------
// Per-node memory model.

struct MemoryScenario {
  ml::Network net;
  UnitGraph graph;
  WsnTopology wsn;
};

MemoryScenario make_memory_scenario(std::uint64_t seed) {
  Rng rng(seed);
  // A deliberately dense-heavy net: each of the 32 Dense units carries a
  // 27-weight row, so weights and activations both weigh in the residency.
  ml::Network net;
  net.emplace<ml::Conv2D>(1, 3, 3, 1, rng);
  net.emplace<ml::ReLU>();
  net.emplace<ml::MaxPool2D>(2);
  net.emplace<ml::Flatten>();
  net.emplace<ml::Dense>(3 * 3 * 3, 32, rng);
  net.emplace<ml::ReLU>();
  net.emplace<ml::Dense>(32, 2, rng);
  UnitGraph graph = UnitGraph::build(net, {1, 6, 6});
  WsnTopology wsn = WsnTopology::grid({0.0, 0.0, 6.0, 6.0}, 3, 3);
  return {std::move(net), std::move(graph), std::move(wsn)};
}

TEST(MemoryModel, Int8DeploymentNeedsStrictlyLessPeakMemory) {
  MemoryScenario s = make_memory_scenario(41);
  const Assignment a = microdeep::assign_nearest(s.graph, s.wsn);
  const auto m_float = microdeep::make_node_memory_model(s.net, s.graph, 4, 4);
  const auto m_int8 = microdeep::make_node_memory_model(s.net, s.graph, 1, 1);
  const auto per_node =
      microdeep::compute_node_memory(a, s.wsn.num_nodes(), m_float);
  ASSERT_EQ(per_node.size(), s.wsn.num_nodes());
  const std::size_t pf =
      microdeep::peak_node_memory(a, s.wsn.num_nodes(), m_float);
  const std::size_t pi =
      microdeep::peak_node_memory(a, s.wsn.num_nodes(), m_int8);
  EXPECT_EQ(pf, *std::max_element(per_node.begin(), per_node.end()));
  EXPECT_GT(pf, 0u);
  EXPECT_LT(pi, pf);
  // int8 charges 1/4 per weight and activation byte but keeps the 4-byte
  // bias/requant rows, so the ratio lands strictly between 1/4 and 1.
  EXPECT_GT(pi * 4, pf / 2);
}

// ---------------------------------------------------------------------------
// netexec quantized transport.

netexec::NetExecConfig quant_config(ml::Network& net, const UnitGraph& graph,
                                    const Tensor& calib) {
  netexec::NetExecConfig cfg;
  cfg.quantized_transport = true;
  cfg.act_scales =
      microdeep::calibrate_unit_activation_scales(net, graph, calib);
  return cfg;
}

TEST(QuantizedTransport, ActScalesValidation) {
  Rng rng(51);
  ml::Network net = make_cnn(rng, 1, 6);
  const UnitGraph graph = UnitGraph::build(net, {1, 6, 6});
  const WsnTopology wsn = WsnTopology::grid({0.0, 0.0, 6.0, 6.0}, 3, 3);
  const Assignment a = microdeep::assign_nearest(graph, wsn);

  netexec::NetExecConfig cfg;
  cfg.quantized_transport = true;  // no scales at all
  EXPECT_THROW(netexec::NetworkExecutor(net, graph, a, wsn, cfg), Error);

  cfg.act_scales.assign(graph.layers().size() - 1, 0.5f);  // wrong size
  EXPECT_THROW(netexec::NetworkExecutor(net, graph, a, wsn, cfg), Error);

  cfg.act_scales.assign(graph.layers().size(), 0.5f);
  cfg.act_scales.back() = 0.0f;  // non-positive scale
  EXPECT_THROW(netexec::NetworkExecutor(net, graph, a, wsn, cfg), Error);

  // An infinite scale would snap every value to 0 * inf = NaN.
  cfg.act_scales.back() = std::numeric_limits<float>::infinity();
  EXPECT_THROW(netexec::NetworkExecutor(net, graph, a, wsn, cfg), Error);

  cfg.act_scales.back() = 0.5f;
  EXPECT_NO_THROW(netexec::NetworkExecutor(net, graph, a, wsn, cfg));
}

TEST(QuantizedTransport, SingleNodeDeploymentIsBitExact) {
  // With every unit on one node there are no radio frames, so the int8
  // transport grid must never touch an activation: quantized and float
  // configs produce bitwise-identical logits.
  Rng rng(52);
  ml::Network net = make_cnn(rng, 1, 6);
  const std::vector<int> shape{1, 6, 6};
  const UnitGraph graph = UnitGraph::build(net, shape);
  const WsnTopology wsn = WsnTopology::grid({0.0, 0.0, 1.0, 1.0}, 1, 1);
  const Assignment a = microdeep::assign_nearest(graph, wsn);
  const Tensor sample = random_sample(shape, 15);

  netexec::NetExecConfig fcfg;
  netexec::NetworkExecutor fexec(net, graph, a, wsn, fcfg);
  const auto fres = fexec.run(sample);

  auto qcfg = quant_config(net, graph, random_batch(8, shape, 16));
  netexec::NetworkExecutor qexec(net, graph, a, wsn, qcfg);
  const auto qres = qexec.run(sample);

  EXPECT_EQ(fres.messages, 0u);
  EXPECT_EQ(qres.messages, 0u);
  expect_bitwise_equal(qres.output, fres.output, "single-node quantized");
}

TEST(QuantizedTransport, DistributedDeploymentPaysLessEnergyDeterministically) {
  Rng rng(53);
  ml::Network net = make_cnn(rng, 1, 6);
  const std::vector<int> shape{1, 6, 6};
  const UnitGraph graph = UnitGraph::build(net, shape);
  const WsnTopology wsn = WsnTopology::grid({0.0, 0.0, 6.0, 6.0}, 3, 3);
  const Assignment a = microdeep::assign_nearest(graph, wsn);
  const Tensor sample = random_sample(shape, 17);

  netexec::NetExecConfig fcfg;
  netexec::NetworkExecutor fexec(net, graph, a, wsn, fcfg);
  const auto fres = fexec.run(sample);
  ASSERT_GT(fres.messages, 0u);
  ASSERT_FALSE(fres.degraded);

  const auto qcfg = quant_config(net, graph, random_batch(8, shape, 18));
  netexec::NetworkExecutor qexec(net, graph, a, wsn, qcfg);
  const auto qres = qexec.run(sample);
  EXPECT_FALSE(qres.degraded);

  // Same logical message plan, strictly smaller frames.
  EXPECT_EQ(qres.messages, fres.messages);
  EXPECT_LT(qres.energy_j, fres.energy_j);
  EXPECT_LE(qres.latency_s, fres.latency_s);

  // Deterministic: a fresh executor with the same config replays the same
  // inference bit for bit.
  netexec::NetworkExecutor qexec2(net, graph, a, wsn, qcfg);
  const auto qres2 = qexec2.run(sample);
  expect_bitwise_equal(qres2.output, qres.output, "quantized rerun");
  EXPECT_EQ(qres2.energy_j, qres.energy_j);
  EXPECT_EQ(qres2.messages, qres.messages);
}

TEST(QuantizedTransport, QuantizedLogitsStayNearFloatLogits) {
  Rng rng(54);
  ml::Network net = make_cnn(rng, 1, 6);
  const std::vector<int> shape{1, 6, 6};
  const UnitGraph graph = UnitGraph::build(net, shape);
  const WsnTopology wsn = WsnTopology::grid({0.0, 0.0, 6.0, 6.0}, 3, 3);
  const Assignment a = microdeep::assign_balanced_heuristic(graph, wsn);
  const Tensor sample = random_sample(shape, 19);
  const Tensor calib = random_batch(16, shape, 20);

  netexec::NetExecConfig fcfg;
  netexec::NetworkExecutor fexec(net, graph, a, wsn, fcfg);
  const auto fres = fexec.run(sample);
  const auto qcfg = quant_config(net, graph, calib);
  netexec::NetworkExecutor qexec(net, graph, a, wsn, qcfg);
  const auto qres = qexec.run(sample);

  ASSERT_EQ(fres.output.shape(), qres.output.shape());
  double max_abs = 1.0;
  for (std::size_t i = 0; i < fres.output.size(); ++i) {
    max_abs = std::max(max_abs, std::abs(static_cast<double>(fres.output[i])));
  }
  for (std::size_t i = 0; i < fres.output.size(); ++i) {
    EXPECT_NEAR(qres.output[i], fres.output[i], 0.15 * max_abs)
        << "logit " << i;
  }
}

}  // namespace
}  // namespace zeiot::ml::kernels
