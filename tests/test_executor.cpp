// The MicroDeep forward pass as the nodes run it: microdeep::unit_walk
// against ml::Network::forward, and netexec::NetworkExecutor's logits,
// message count and latency on lossless channels.
#include <gtest/gtest.h>

#include <cstring>

#include "microdeep/comm_cost.hpp"
#include "microdeep/unit_compute.hpp"
#include "netexec/netexec.hpp"

namespace zeiot::microdeep {
namespace {

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

/// A lossless channel with a fixed per-hop latency and per-unit compute
/// time.
netexec::NetExecConfig timed_config(double hop_s, double unit_s) {
  netexec::NetExecConfig cfg;
  cfg.channel.fixed_hop_latency_s = hop_s;
  cfg.unit_compute_s = unit_s;
  return cfg;
}

/// The unit walk must reproduce the tensor-level forward pass (to GEMM
/// summation-order rounding) — the deep validation of the unit graph
/// structure — and netexec over the assignment must reproduce the unit
/// walk's logits bit for bit.
void expect_matches_network(ml::Network& net, const std::vector<int>& shape,
                            const Assignment& a, const UnitGraph& g,
                            const WsnTopology& wsn, std::uint64_t seed) {
  const ml::Tensor sample = random_sample(shape, seed);
  std::vector<int> batched = shape;
  batched.insert(batched.begin(), 1);
  const ml::Tensor expected =
      net.forward(sample.reshape(batched), /*train=*/false);
  const ActTable acts = unit_walk(net, g, sample);
  const UnitLayer& last = g.layers().back();
  ASSERT_EQ(expected.shape(), (std::vector<int>{1, last.num_units()}));
  netexec::NetworkExecutor exec(net, g, a, wsn);
  const auto got = exec.run(sample);
  ASSERT_EQ(got.output.shape(), expected.shape());
  EXPECT_FALSE(got.degraded);
  for (int i = 0; i < last.num_units(); ++i) {
    const float walk = acts[last.first_unit + static_cast<UnitId>(i)][0];
    EXPECT_NEAR(walk, expected[static_cast<std::size_t>(i)], 1e-3)
        << "logit " << i << " diverges";
    const float net_logit = got.output[static_cast<std::size_t>(i)];
    EXPECT_EQ(std::memcmp(&net_logit, &walk, sizeof(float)), 0)
        << "logit " << i << ": netexec " << net_logit << " vs walk " << walk;
  }
}

TEST(Executor, MatchesNetworkForwardNearest) {
  Rng rng(1);
  ml::Network net = make_cnn(rng, 2, 6);
  const auto g = UnitGraph::build(net, {2, 6, 6});
  const auto wsn = WsnTopology::grid(kArea, 4, 4);
  const auto a = assign_nearest(g, wsn);
  expect_matches_network(net, {2, 6, 6}, a, g, wsn, 11);
}

TEST(Executor, MatchesNetworkForwardCentralized) {
  Rng rng(2);
  ml::Network net = make_cnn(rng, 1, 8);
  const auto g = UnitGraph::build(net, {1, 8, 8});
  const auto wsn = WsnTopology::grid(kArea, 4, 4);
  const auto a = assign_centralized(g, wsn, 7);
  expect_matches_network(net, {1, 8, 8}, a, g, wsn, 12);
}

TEST(Executor, MatchesNetworkForwardHeuristic) {
  Rng rng(3);
  ml::Network net = make_cnn(rng, 3, 6);
  const auto g = UnitGraph::build(net, {3, 6, 6});
  const auto wsn = WsnTopology::grid(kArea, 5, 5);
  const auto a = assign_balanced_heuristic(g, wsn);
  expect_matches_network(net, {3, 6, 6}, a, g, wsn, 13);
}

TEST(Executor, MatchesAcrossManySamples) {
  Rng rng(4);
  ml::Network net = make_cnn(rng, 2, 6);
  const auto g = UnitGraph::build(net, {2, 6, 6});
  const auto wsn = WsnTopology::grid(kArea, 4, 4);
  const auto a = assign_nearest(g, wsn);
  for (std::uint64_t seed = 20; seed < 30; ++seed) {
    expect_matches_network(net, {2, 6, 6}, a, g, wsn, seed);
  }
}

TEST(Executor, MessageCountMatchesCostModel) {
  Rng rng(5);
  ml::Network net = make_cnn(rng, 1, 6);
  const auto g = UnitGraph::build(net, {1, 6, 6});
  const auto wsn = WsnTopology::grid(kArea, 4, 4);
  const auto a = assign_nearest(g, wsn);
  netexec::NetworkExecutor exec(net, g, a, wsn);
  const auto result = exec.run(random_sample({1, 6, 6}, 31));
  CommCostOptions opts;
  opts.include_backward = false;
  opts.aggregate_dense = false;  // the executor counts unicast messages
  const auto cost = compute_comm_cost(a, wsn, opts);
  EXPECT_EQ(static_cast<double>(result.messages), cost.total_messages);
}

TEST(Executor, CentralizedSinkSerializesCompute) {
  Rng rng(6);
  ml::Network net_a = make_cnn(rng, 1, 8);
  ml::Network net_b = make_cnn(rng, 1, 8);
  const auto ga = UnitGraph::build(net_a, {1, 8, 8});
  const auto gb = UnitGraph::build(net_b, {1, 8, 8});
  const auto wsn = WsnTopology::grid(kArea, 4, 4);
  const auto central = assign_centralized(ga, wsn, 5);
  const auto spread = assign_nearest(gb, wsn);
  const auto sample = random_sample({1, 8, 8}, 41);
  // Compute-bound regime (slow MCUs, fast radio): the sink's serial
  // execution of every unit dominates, and spreading parallelises it.
  const auto compute_bound = timed_config(0.5e-3, 1e-3);
  netexec::NetworkExecutor ec(net_a, ga, central, wsn, compute_bound);
  netexec::NetworkExecutor es(net_b, gb, spread, wsn, compute_bound);
  const auto rc = ec.run(sample);
  const auto rs = es.run(sample);
  EXPECT_FALSE(rc.degraded);
  EXPECT_FALSE(rs.degraded);
  EXPECT_GT(rc.latency_s, rs.latency_s);
}

TEST(Executor, LatencyScalesWithHopLatency) {
  Rng rng(7);
  ml::Network net = make_cnn(rng, 1, 6);
  const auto g = UnitGraph::build(net, {1, 6, 6});
  const auto wsn = WsnTopology::grid(kArea, 4, 4);
  const auto a = assign_nearest(g, wsn);
  const auto sample = random_sample({1, 6, 6}, 51);
  netexec::NetworkExecutor slow(net, g, a, wsn, timed_config(10e-3, 100e-6));
  netexec::NetworkExecutor fast(net, g, a, wsn, timed_config(0.5e-3, 100e-6));
  EXPECT_GT(slow.run(sample).latency_s, fast.run(sample).latency_s);
}

TEST(Executor, ZeroLatencyChannelStillComputes) {
  Rng rng(8);
  ml::Network net = make_cnn(rng, 1, 6);
  const auto g = UnitGraph::build(net, {1, 6, 6});
  const auto wsn = WsnTopology::grid(kArea, 4, 4);
  const auto a = assign_nearest(g, wsn);
  netexec::NetExecConfig zero;
  zero.channel = netexec::ChannelConfig::ideal();
  zero.unit_compute_s = 0.0;
  netexec::NetworkExecutor exec(net, g, a, wsn, zero);
  const auto r = exec.run(random_sample({1, 6, 6}, 61));
  EXPECT_DOUBLE_EQ(r.latency_s, 0.0);
  EXPECT_FALSE(r.degraded);
  EXPECT_GT(r.messages, 0u);
}

TEST(Executor, RejectsWrongSampleShape) {
  Rng rng(9);
  ml::Network net = make_cnn(rng, 1, 6);
  const auto g = UnitGraph::build(net, {1, 6, 6});
  const auto wsn = WsnTopology::grid(kArea, 4, 4);
  const auto a = assign_nearest(g, wsn);
  const auto bad = random_sample({1, 5, 6}, 71);
  netexec::NetworkExecutor exec(net, g, a, wsn);
  EXPECT_THROW(exec.run(bad), Error);
  EXPECT_THROW(unit_walk(net, g, bad), Error);
}

}  // namespace
}  // namespace zeiot::microdeep
