// Differential conformance suite: NetworkExecutor (network-in-the-loop)
// against the plain unit walk and the comm-cost message set.
//
// The load-bearing contract: over a zero-loss/zero-latency channel the
// event-driven execution must reproduce microdeep::unit_walk's logits
// bit-for-bit, and its MicroDeepHop instants must be exactly one per
// (producer unit, consumer node) pair of the unit graph's cross-node
// edges — the messages compute_comm_cost counts — on randomized
// topologies and assignments.  Lossy channels must be deterministic per
// seed, and raising the loss probability must never reduce the number of
// retransmissions (keyed-substream monotone coupling).
#include "netexec/netexec.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <set>
#include <tuple>
#include <utility>

#include "common/hash.hpp"
#include "microdeep/comm_cost.hpp"
#include "microdeep/unit_compute.hpp"
#include "par/thread_pool.hpp"

namespace zeiot::netexec {
namespace {

using microdeep::Assignment;
using microdeep::UnitGraph;
using microdeep::WsnTopology;

const Rect kArea{0.0, 0.0, 10.0, 10.0};

ml::Network make_cnn(Rng& rng, int in_ch, int grid) {
  ml::Network net;
  net.emplace<ml::Conv2D>(in_ch, 3, 3, 1, rng);
  net.emplace<ml::ReLU>();
  net.emplace<ml::MaxPool2D>(2);
  net.emplace<ml::Flatten>();
  net.emplace<ml::Dense>(3 * (grid / 2) * (grid / 2), 6, rng);
  net.emplace<ml::ReLU>();
  net.emplace<ml::Dense>(6, 2, rng);
  return net;
}

ml::Tensor random_sample(std::vector<int> shape, std::uint64_t seed) {
  Rng rng(seed);
  ml::Tensor t(std::move(shape));
  for (std::size_t i = 0; i < t.size(); ++i) {
    t[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
  }
  return t;
}

/// Conformance channel: no loss, no latency, no compute time.
NetExecConfig ideal_config() {
  NetExecConfig cfg;
  cfg.channel = ChannelConfig::ideal();
  cfg.unit_compute_s = 0.0;
  return cfg;
}

/// One MicroDeepHop instant: (t, source node, destination node, hops).
struct Hop {
  double t = 0.0;
  std::uint32_t src = 0;
  std::uint32_t dst = 0;
  double hops = 0.0;

  bool operator==(const Hop&) const = default;
  bool operator<(const Hop& o) const {
    return std::tie(t, src, dst, hops) < std::tie(o.t, o.src, o.dst, o.hops);
  }
};

/// MicroDeepHop instants only (netexec additionally records per-hop
/// PacketTx/PacketRx instants and the span tree), sorted so two hop lists
/// compare as multisets.
std::vector<Hop> hop_events(const obs::Observability& o) {
  std::vector<Hop> evs;
  for (std::size_t i = 0; i < o.spans().size(); ++i) {
    const obs::SpanEvent& e = o.spans().at(i);
    if (e.kind == obs::SpanKind::MicroDeepHop) {
      evs.push_back({e.t0, e.a, e.b, e.value});
    }
  }
  std::sort(evs.begin(), evs.end());
  return evs;
}

/// The hop instants an ideal-channel inference must record, derived from
/// the unit graph alone: one per (producer unit, consumer node) pair over
/// the cross-node dependency edges, at t = 0, from the producer's node to
/// the consumer's with the route's hop count as value, sorted.
std::vector<Hop> reference_hops(const UnitGraph& graph,
                                const Assignment& assignment,
                                const WsnTopology& wsn) {
  std::set<std::pair<microdeep::UnitId, microdeep::NodeId>> messages;
  for (const microdeep::UnitEdge& e : graph.edges()) {
    const microdeep::NodeId dst = assignment.node_of(e.dst);
    if (assignment.node_of(e.src) != dst) messages.insert({e.src, dst});
  }
  std::vector<Hop> evs;
  for (const auto& [src, dst] : messages) {
    const microdeep::NodeId sn = assignment.node_of(src);
    evs.push_back({0.0, static_cast<std::uint32_t>(sn),
                   static_cast<std::uint32_t>(dst),
                   static_cast<double>(wsn.hops(sn, dst))});
  }
  std::sort(evs.begin(), evs.end());
  return evs;
}

/// FNV-1a over the sorted hop list (bit-exact field encoding).
std::uint64_t canonical_digest(const std::vector<Hop>& evs) {
  Fnv1a h;
  for (const Hop& e : evs) {
    h.mix_bits(e.t);
    h.mix(e.src);
    h.mix(e.dst);
    h.mix_bits(e.hops);
  }
  return h.value();
}

/// Logits of microdeep::unit_walk as a (1, K) tensor, like
/// NetInferenceResult::output.
ml::Tensor walk_logits(ml::Network& net, const UnitGraph& graph,
                       const ml::Tensor& sample) {
  const microdeep::ActTable acts = microdeep::unit_walk(net, graph, sample);
  const microdeep::UnitLayer& last = graph.layers().back();
  ml::Tensor out({1, last.num_units()});
  for (int i = 0; i < last.num_units(); ++i) {
    out[static_cast<std::size_t>(i)] =
        acts[last.first_unit + static_cast<microdeep::UnitId>(i)][0];
  }
  return out;
}

void expect_bitwise_equal(const ml::Tensor& a, const ml::Tensor& b) {
  ASSERT_EQ(a.shape(), b.shape());
  for (std::size_t i = 0; i < a.size(); ++i) {
    const float fa = a[i], fb = b[i];
    std::uint32_t ba = 0, bb = 0;
    std::memcpy(&ba, &fa, sizeof(ba));
    std::memcpy(&bb, &fb, sizeof(bb));
    EXPECT_EQ(ba, bb) << "logit " << i << " diverges bitwise: " << a[i]
                      << " vs " << b[i];
  }
}

/// An Assignment points at the UnitGraph it was built on, so a Scenario
/// rebinds its assignment to its own graph and is never copied or moved.
struct Scenario {
  Scenario(ml::Network n, UnitGraph g, WsnTopology w, const Assignment& a,
           std::vector<int> input_shape)
      : net(std::move(n)), graph(std::move(g)), wsn(std::move(w)),
        assignment(&graph, a.unit_map()), shape(std::move(input_shape)) {}
  Scenario(const Scenario&) = delete;
  Scenario& operator=(const Scenario&) = delete;

  ml::Network net;
  UnitGraph graph;
  WsnTopology wsn;
  Assignment assignment;
  std::vector<int> shape;
};

/// Randomized topology + assignment drawn from one seed.
Scenario make_scenario(std::uint64_t seed) {
  Rng rng(seed);
  const int in_ch = static_cast<int>(rng.uniform_int(1, 3));
  const int grid = rng.bernoulli(0.5) ? 6 : 8;
  ml::Network net = make_cnn(rng, in_ch, grid);
  UnitGraph graph = UnitGraph::build(net, {in_ch, grid, grid});
  const int topo = static_cast<int>(rng.uniform_int(0, 2));
  WsnTopology wsn =
      topo == 0   ? WsnTopology::grid(kArea, 4, 4)
      : topo == 1 ? WsnTopology::jittered_grid(kArea, 4, 4, rng)
                  : WsnTopology::random_uniform(kArea, 16, rng);
  const int kind = static_cast<int>(rng.uniform_int(0, 2));
  const Assignment assignment =
      kind == 0 ? microdeep::assign_nearest(graph, wsn)
      : kind == 1
          ? microdeep::assign_centralized(
                graph, wsn,
                static_cast<microdeep::NodeId>(
                    rng.uniform_int(0, static_cast<std::int64_t>(
                                           wsn.num_nodes()) - 1)))
          : microdeep::assign_balanced_heuristic(graph, wsn);
  return {std::move(net), std::move(graph), std::move(wsn), assignment,
          std::vector<int>{in_ch, grid, grid}};
}

TEST(NetexecConformance, IdealChannelBitMatchesExecutorRandomized) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    Scenario s = make_scenario(seed);
    const ml::Tensor sample = random_sample(s.shape, 100 + seed);

    obs::Observability net_obs;
    net_obs.enable_spans(1 << 16);
    NetExecConfig cfg = ideal_config();
    cfg.obs = &net_obs;
    NetworkExecutor exec(s.net, s.graph, s.assignment, s.wsn, cfg);
    const auto got = exec.run(sample);

    expect_bitwise_equal(got.output, walk_logits(s.net, s.graph, sample));
    microdeep::CommCostOptions unicast;
    unicast.aggregate_dense = false;
    unicast.include_backward = false;
    const auto ref_hops = reference_hops(s.graph, s.assignment, s.wsn);
    EXPECT_EQ(static_cast<double>(ref_hops.size()),
              microdeep::compute_comm_cost(s.assignment, s.wsn, unicast)
                  .total_messages)
        << "seed " << seed;
    EXPECT_EQ(got.messages, ref_hops.size()) << "seed " << seed;
    EXPECT_FALSE(got.degraded);
    EXPECT_EQ(got.frames_lost, 0u);
    EXPECT_EQ(got.retransmissions, 0u);

    ASSERT_GT(net_obs.spans().size(), 0u) << "seed " << seed;
    ASSERT_EQ(net_obs.spans().dropped(), 0u) << "seed " << seed;
    const auto got_hops = hop_events(net_obs);
    ASSERT_EQ(ref_hops.size(), got_hops.size()) << "seed " << seed;
    EXPECT_EQ(ref_hops, got_hops) << "seed " << seed;
    EXPECT_EQ(canonical_digest(ref_hops), canonical_digest(got_hops))
        << "seed " << seed;
  }
}

TEST(NetexecConformance, LosslessRealTimingStillBitMatchesOutputs) {
  // With zero loss the consumers always wait for complete inputs, so the
  // logits must stay bit-identical even under real airtime, per-node
  // radio/CPU serialization, and nonzero compute time.
  Scenario s = make_scenario(3);
  const ml::Tensor sample = random_sample(s.shape, 42);

  NetworkExecutor exec(s.net, s.graph, s.assignment, s.wsn, NetExecConfig{});
  const auto got = exec.run(sample);
  expect_bitwise_equal(got.output, walk_logits(s.net, s.graph, sample));
  EXPECT_GT(got.latency_s, 0.0);
  EXPECT_GT(got.energy_j, 0.0);
  EXPECT_FALSE(got.degraded);
}

TEST(NetexecConformance, EvaluateBitIdenticalAcrossThreadCounts) {
  Scenario s = make_scenario(5);
  ml::Dataset data;
  for (std::uint64_t i = 0; i < 12; ++i) {
    data.add(random_sample(s.shape, 200 + i), static_cast<int>(i % 2));
  }
  NetExecConfig cfg;
  cfg.channel.loss_per_hop = 0.1;
  cfg.max_retries = 64;
  cfg.seed = 7;

  NetworkExecutor a(s.net, s.graph, s.assignment, s.wsn, cfg);
  NetworkExecutor b(s.net, s.graph, s.assignment, s.wsn, cfg);
  par::ThreadPool one(1);
  par::ThreadPool four(4);
  const auto ra = a.evaluate(data, &one);
  const auto rb = b.evaluate(data, &four);

  EXPECT_EQ(ra.accuracy, rb.accuracy);
  EXPECT_EQ(ra.p50_latency_s, rb.p50_latency_s);
  EXPECT_EQ(ra.p99_latency_s, rb.p99_latency_s);
  EXPECT_EQ(ra.mean_energy_j, rb.mean_energy_j);
  EXPECT_EQ(ra.mean_retransmissions, rb.mean_retransmissions);
  EXPECT_EQ(ra.messages, rb.messages);
  EXPECT_EQ(ra.frames_lost, rb.frames_lost);
}

TEST(NetexecConformance, EvaluateZeroSamplesReturnsDefinedZeros) {
  Scenario s = make_scenario(5);
  obs::Observability o;
  NetExecConfig cfg;
  cfg.channel.loss_per_hop = 0.1;
  cfg.seed = 7;
  cfg.obs = &o;
  NetworkExecutor exec(s.net, s.graph, s.assignment, s.wsn, cfg);

  // An empty dataset must aggregate to defined zeros — no division by the
  // sample count, no percentile over an empty population, no indexing.
  const NetEvalResult r = exec.evaluate(ml::Dataset{});
  EXPECT_EQ(r.samples, 0u);
  EXPECT_EQ(r.accuracy, 0.0);
  EXPECT_EQ(r.p50_latency_s, 0.0);
  EXPECT_EQ(r.p99_latency_s, 0.0);
  EXPECT_EQ(r.mean_energy_j, 0.0);
  EXPECT_EQ(r.degraded_fraction, 0.0);
  EXPECT_EQ(r.mean_retransmissions, 0.0);
  EXPECT_EQ(r.messages, 0u);
  EXPECT_EQ(r.frames_lost, 0u);
  EXPECT_TRUE(r.latencies_s.empty());
  EXPECT_EQ(r.p50_breakdown.compute_s, 0.0);
  EXPECT_EQ(r.p99_breakdown.idle_s, 0.0);
  // The sample counter exists (at zero) so dashboards see the eval ran.
  EXPECT_TRUE(o.metrics().has("netexec.eval.samples"));
  EXPECT_EQ(o.metrics().counter_value("netexec.eval.samples"), 0.0);

  // A subsequent non-empty evaluate on the same executor still works.
  ml::Dataset data;
  data.add(random_sample(s.shape, 321), 0);
  const NetEvalResult r2 = exec.evaluate(data);
  EXPECT_EQ(r2.samples, 1u);
}

/// Lossy evaluate() with spans on: returns the populated context so tests
/// can inspect the merged span stream.
std::unique_ptr<obs::Observability> spanning_evaluate(Scenario& s,
                                                      const ml::Dataset& data,
                                                      par::ThreadPool* pool) {
  auto o = std::make_unique<obs::Observability>();
  o->enable_spans(1 << 16);
  NetExecConfig cfg;
  cfg.channel.loss_per_hop = 0.1;
  cfg.max_retries = 64;
  cfg.seed = 7;
  cfg.obs = o.get();
  NetworkExecutor exec(s.net, s.graph, s.assignment, s.wsn, cfg);
  (void)exec.evaluate(data, pool);
  return o;
}

TEST(NetexecConformance, EvaluateSpanDigestIdenticalAcrossThreadCounts) {
  Scenario s = make_scenario(5);
  ml::Dataset data;
  for (std::uint64_t i = 0; i < 12; ++i) {
    data.add(random_sample(s.shape, 200 + i), static_cast<int>(i % 2));
  }
  par::ThreadPool one(1);
  par::ThreadPool four(4);
  const auto oa = spanning_evaluate(s, data, &one);
  const auto ob = spanning_evaluate(s, data, &four);
  const auto oa2 = spanning_evaluate(s, data, &one);  // double-run identity

  ASSERT_GT(oa->spans().size(), 0u);
  EXPECT_EQ(oa->spans().dropped(), 0u);
  EXPECT_EQ(ob->spans().dropped(), 0u);
  // One root Inference span per sample, at any thread count.
  EXPECT_EQ(oa->spans().root_count(), data.size());
  EXPECT_EQ(ob->spans().root_count(), data.size());
  // The merged span stream — not just aggregates — is bit-identical across
  // thread counts and across reruns.
  EXPECT_EQ(oa->spans().digest(), ob->spans().digest());
  EXPECT_EQ(oa->spans().digest(), oa2->spans().digest());
  ASSERT_EQ(oa->spans().size(), ob->spans().size());
  for (std::size_t i = 0; i < oa->spans().size(); ++i) {
    ASSERT_EQ(oa->spans().at(i), ob->spans().at(i)) << "span " << i;
  }
}

TEST(NetexecConformance, SpanPhasesTileEveryRootSpan) {
  // Per-inference latency attribution: each root Inference span carries
  // exactly four Phase* children whose durations sum to the root duration
  // within one virtual tick (1 us), and whose values mirror the
  // NetInferenceResult::breakdown the executor reports.
  Scenario s = make_scenario(5);
  ml::Dataset data;
  for (std::uint64_t i = 0; i < 6; ++i) {
    data.add(random_sample(s.shape, 300 + i), static_cast<int>(i % 2));
  }
  obs::Observability o;
  o.enable_spans(1 << 16);
  NetExecConfig cfg;
  cfg.channel.loss_per_hop = 0.15;  // force retries so retry/idle show up
  cfg.seed = 11;
  cfg.obs = &o;
  NetworkExecutor exec(s.net, s.graph, s.assignment, s.wsn, cfg);
  (void)exec.evaluate(data, nullptr);

  const obs::SpanRecorder& spans = o.spans();
  std::size_t roots_checked = 0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const obs::SpanEvent& root = spans.at(i);
    if (root.parent != 0) continue;
    ASSERT_EQ(root.kind, obs::SpanKind::Inference);
    double phase_sum = 0.0;
    int phase_count = 0;
    for (std::size_t j = 0; j < spans.size(); ++j) {
      const obs::SpanEvent& c = spans.at(j);
      if (c.parent != root.id) continue;
      if (c.kind == obs::SpanKind::PhaseCompute ||
          c.kind == obs::SpanKind::PhaseAirtime ||
          c.kind == obs::SpanKind::PhaseRetry ||
          c.kind == obs::SpanKind::PhaseIdle) {
        phase_sum += c.duration();
        ++phase_count;
        // Phase children never extend past the root interval.
        EXPECT_GE(c.t0, root.t0 - 1e-12);
        EXPECT_LE(c.t1, root.t1 + 1e-12);
      }
    }
    EXPECT_EQ(phase_count, 4) << "root " << root.id;
    EXPECT_NEAR(phase_sum, root.duration(), 1e-6) << "root " << root.id;
    ++roots_checked;
  }
  EXPECT_EQ(roots_checked, data.size());
}

TEST(NetexecConformance, RunBreakdownMatchesLatencyAndRetries) {
  // The always-on breakdown (no spans needed) partitions the latency.
  Scenario s = make_scenario(3);
  const ml::Tensor sample = random_sample(s.shape, 42);
  NetExecConfig cfg;
  cfg.channel.loss_per_hop = 0.2;
  cfg.seed = 13;
  NetworkExecutor exec(s.net, s.graph, s.assignment, s.wsn, cfg);
  const auto got = exec.run(sample);
  EXPECT_NEAR(got.breakdown.total_s(), got.latency_s, 1e-6);
  EXPECT_GT(got.breakdown.compute_s, 0.0);
  EXPECT_GT(got.breakdown.airtime_s, 0.0);
  if (got.retransmissions > 0) {
    EXPECT_GT(got.breakdown.retry_s + got.breakdown.idle_s, 0.0);
  }
}

TEST(NetexecConformance, LossyRunsAreSeedDeterministic) {
  Scenario s = make_scenario(6);
  const ml::Tensor sample = random_sample(s.shape, 77);
  NetExecConfig cfg;
  cfg.channel.loss_per_hop = 0.3;
  cfg.max_retries = 2;  // force real losses and substitutions
  cfg.seed = 99;

  auto once = [&]() {
    obs::Observability o;
    o.enable_spans(1 << 16);
    NetExecConfig c = cfg;
    c.obs = &o;
    NetworkExecutor exec(s.net, s.graph, s.assignment, s.wsn, c);
    auto r = exec.run(sample);
    EXPECT_GT(o.spans().size(), 0u);
    EXPECT_EQ(o.spans().dropped(), 0u);
    return std::make_tuple(std::move(r), o.spans().digest());
  };
  auto [r1, d1] = once();
  auto [r2, d2] = once();

  expect_bitwise_equal(r1.output, r2.output);
  EXPECT_EQ(d1, d2) << "same-seed lossy runs must produce identical records";
  EXPECT_EQ(r1.transmissions, r2.transmissions);
  EXPECT_EQ(r1.retransmissions, r2.retransmissions);
  EXPECT_EQ(r1.frames_lost, r2.frames_lost);
  EXPECT_EQ(r1.substitutions, r2.substitutions);
  EXPECT_EQ(r1.degraded, r2.degraded);
  EXPECT_GT(r1.retransmissions, 0u);
}

TEST(NetexecConformance, MoreLossNeverFewerRetransmissions) {
  Scenario s = make_scenario(7);
  const ml::Tensor sample = random_sample(s.shape, 88);
  // max_retries is set high enough that no frame is ever abandoned at
  // these loss levels (asserted below): every frame then traverses its
  // full route, and the keyed coupling makes per-hop retry counts a
  // monotone function of the loss probability.
  const double levels[] = {0.0, 0.02, 0.1, 0.25};
  std::uint64_t prev = 0;
  bool first = true;
  for (const double p : levels) {
    NetExecConfig cfg;
    cfg.channel.loss_per_hop = p;
    cfg.max_retries = 64;
    cfg.seed = 4242;
    NetworkExecutor exec(s.net, s.graph, s.assignment, s.wsn, cfg);
    std::uint64_t retrans = 0;
    for (int i = 0; i < 3; ++i) {
      const auto r = exec.run(sample);
      ASSERT_EQ(r.frames_lost, 0u) << "loss " << p;
      ASSERT_FALSE(r.degraded) << "loss " << p;
      retrans += r.retransmissions;
    }
    if (!first) {
      EXPECT_GE(retrans, prev) << "loss " << p;
    }
    first = false;
    prev = retrans;
  }
  EXPECT_GT(prev, 0u) << "highest loss level should retransmit";
}

TEST(NetexecConformance, HeavyLossDegradesButTerminates) {
  Scenario s = make_scenario(8);
  const ml::Tensor sample = random_sample(s.shape, 123);
  NetExecConfig cfg;
  cfg.channel.loss_per_hop = 0.9;
  cfg.max_retries = 0;  // nearly every cross-node activation is lost
  cfg.seed = 11;
  NetworkExecutor exec(s.net, s.graph, s.assignment, s.wsn, cfg);
  const auto r = exec.run(sample);
  EXPECT_TRUE(r.degraded);
  EXPECT_GT(r.substitutions, 0u);
  EXPECT_GT(r.frames_lost, 0u);
  ASSERT_EQ(r.output.size(), 2u);  // the event loop drained and emitted
}

TEST(NetexecConformance, LastKnownMemorySubstitutesAcrossInferences) {
  // Centralized assignment: every non-input unit on the sink, so the only
  // cross-node traffic is input activations flowing in.  Under heavy loss
  // the cold sink substitutes zeros; but after one inference the
  // last-known memory holds every input unit's *true* activation (inputs
  // are always valid at their sensing node), so the second inference on
  // the same sample — substituted or delivered alike — feeds the sink
  // exact values and must reproduce the ideal logits bit-for-bit while
  // still being flagged degraded.
  Rng rng(21);
  ml::Network net = make_cnn(rng, 2, 6);
  UnitGraph graph = UnitGraph::build(net, {2, 6, 6});
  WsnTopology wsn = WsnTopology::grid(kArea, 4, 4);
  Assignment assignment = microdeep::assign_centralized(graph, wsn, 9);
  const ml::Tensor sample = random_sample({2, 6, 6}, 55);

  const ml::Tensor ideal = walk_logits(net, graph, sample);

  NetExecConfig lossy;
  lossy.channel.loss_per_hop = 0.9;
  lossy.max_retries = 0;
  lossy.seed = 5;
  NetworkExecutor exec(net, graph, assignment, wsn, lossy);

  const auto first = exec.run(sample);
  EXPECT_TRUE(first.degraded);
  EXPECT_GT(first.substitutions, 0u);

  const auto second = exec.run(sample);
  EXPECT_TRUE(second.degraded);  // frames are still lost...
  expect_bitwise_equal(second.output, ideal);  // ...values are not

  // reset_memory() returns the executor to the cold zero-substitute state.
  exec.reset_memory();
  const auto third = exec.run(sample);
  EXPECT_TRUE(third.degraded);
}

/// attribute_phases as first written: every interval edge sorted on
/// time, closes before opens at equal times, then the same sweep.
PhaseBreakdown tie_broken_sort_sweep(const PhaseIntervals& ivals,
                                     double horizon) {
  PhaseBreakdown out;
  if (horizon <= 0.0) return out;
  struct Edge {
    double t;
    int cat;
    int delta;
  };
  std::vector<Edge> edges;
  const std::vector<Interval>* lists[4] = {&ivals.compute, &ivals.checkpoint,
                                           &ivals.airtime, &ivals.retry};
  for (int cat = 0; cat < 4; ++cat) {
    for (const Interval& iv : *lists[cat]) {
      const double lo = std::max(0.0, iv.lo);
      const double hi = std::min(horizon, iv.hi);
      if (hi <= lo) continue;
      edges.push_back(Edge{lo, cat, +1});
      edges.push_back(Edge{hi, cat, -1});
    }
  }
  std::sort(edges.begin(), edges.end(), [](const Edge& x, const Edge& y) {
    if (x.t != y.t) return x.t < y.t;
    return x.delta < y.delta;
  });
  int active[4] = {0, 0, 0, 0};
  double acc[5] = {0.0, 0.0, 0.0, 0.0, 0.0};
  double prev = 0.0;
  auto flush = [&](double t) {
    if (t <= prev) return;
    const int cat = active[0] > 0 ? 0 : active[1] > 0 ? 1
                                    : active[2] > 0   ? 2
                                    : active[3] > 0   ? 3
                                                      : 4;
    acc[cat] += t - prev;
    prev = t;
  };
  for (const Edge& e : edges) {
    flush(e.t);
    active[e.cat] += e.delta;
  }
  flush(horizon);
  out.compute_s = acc[0];
  out.checkpoint_s = acc[1];
  out.airtime_s = acc[2];
  out.retry_s = acc[3];
  out.idle_s = acc[4];
  return out;
}

TEST(NetexecPhases, AttributionMatchesTheTieBrokenSortSweep) {
  // Tie-heavy random inputs: times on a 0.25 s grid (exact sums) or a 0.1 s
  // grid (rounded sums), intervals starting or ending together, repeated
  // back to back, of zero length, starting before 0, ending past the
  // horizon, and all four phases overlapping; horizons of zero or less
  // included.  Every phase must come out bit for bit as the reference's.
  Rng rng(99);
  for (int trial = 0; trial < 4000; ++trial) {
    SCOPED_TRACE(trial);
    const double step = trial % 2 == 0 ? 0.25 : 0.1;
    const auto tick = [&](int lo, int hi) {
      return step * static_cast<double>(rng.uniform_int(lo, hi));
    };
    PhaseIntervals ivals;
    std::vector<Interval>* lists[4] = {&ivals.compute, &ivals.checkpoint,
                                       &ivals.airtime, &ivals.retry};
    const auto n = rng.uniform_int(0, 60);
    for (std::int64_t i = 0; i < n; ++i) {
      std::vector<Interval>& list = *lists[rng.uniform_int(0, 3)];
      if (!list.empty() && rng.bernoulli(0.3)) {
        list.push_back(list.back());
        continue;
      }
      const double lo = tick(-2, 24);
      list.push_back(Interval{lo, lo + tick(0, 8)});
    }
    const double horizon = trial % 10 == 0 ? tick(-2, 0) : tick(1, 26);
    const PhaseBreakdown got = attribute_phases(ivals, horizon);
    const PhaseBreakdown want = tie_broken_sort_sweep(ivals, horizon);
    ASSERT_EQ(got.compute_s, want.compute_s);
    ASSERT_EQ(got.checkpoint_s, want.checkpoint_s);
    ASSERT_EQ(got.airtime_s, want.airtime_s);
    ASSERT_EQ(got.retry_s, want.retry_s);
    ASSERT_EQ(got.idle_s, want.idle_s);
  }
}

}  // namespace
}  // namespace zeiot::netexec
