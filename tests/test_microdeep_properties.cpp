// Property sweeps over the MicroDeep machinery: invariants that must hold
// for every combination of deployment style and assignment strategy.
#include <gtest/gtest.h>

#include <cstring>
#include <set>

#include "microdeep/comm_cost.hpp"
#include "microdeep/unit_compute.hpp"
#include "netexec/netexec.hpp"

namespace zeiot::microdeep {
namespace {

const Rect kArea{0.0, 0.0, 12.0, 12.0};

enum class Deploy { Grid, Jittered, Random };
enum class Assign { Centralized, Nearest, Heuristic };

struct Combo {
  Deploy deploy;
  Assign assign;
};

std::string combo_name(const ::testing::TestParamInfo<Combo>& info) {
  std::string s;
  switch (info.param.deploy) {
    case Deploy::Grid: s = "Grid"; break;
    case Deploy::Jittered: s = "Jittered"; break;
    case Deploy::Random: s = "Random"; break;
  }
  switch (info.param.assign) {
    case Assign::Centralized: s += "Centralized"; break;
    case Assign::Nearest: s += "Nearest"; break;
    case Assign::Heuristic: s += "Heuristic"; break;
  }
  return s;
}

WsnTopology make_wsn(Deploy d) {
  Rng rng(77);
  switch (d) {
    case Deploy::Grid: return WsnTopology::grid(kArea, 4, 4);
    case Deploy::Jittered:
      return WsnTopology::jittered_grid(kArea, 4, 4, rng);
    case Deploy::Random:
      return WsnTopology::random_uniform(kArea, 16, rng);
  }
  throw Error("unreachable");
}

ml::Network make_net(Rng& rng) {
  ml::Network net;
  net.emplace<ml::Conv2D>(2, 3, 3, 1, rng);
  net.emplace<ml::ReLU>();
  net.emplace<ml::MaxPool2D>(2);
  net.emplace<ml::Flatten>();
  net.emplace<ml::Dense>(3 * 4 * 4, 5, rng);
  net.emplace<ml::ReLU>();
  net.emplace<ml::Dense>(5, 2, rng);
  return net;
}

Assignment make_assignment(Assign a, const UnitGraph& g,
                           const WsnTopology& wsn) {
  switch (a) {
    case Assign::Centralized:
      return assign_centralized(g, wsn,
                                static_cast<NodeId>(wsn.num_nodes() / 2));
    case Assign::Nearest: return assign_nearest(g, wsn);
    case Assign::Heuristic: return assign_balanced_heuristic(g, wsn);
  }
  throw Error("unreachable");
}

class MicroDeepPropertyTest : public ::testing::TestWithParam<Combo> {
 protected:
  MicroDeepPropertyTest()
      : wsn_(make_wsn(GetParam().deploy)),
        rng_(5),
        net_(make_net(rng_)),
        graph_(UnitGraph::build(net_, {2, 8, 8})),
        assignment_(make_assignment(GetParam().assign, graph_, wsn_)) {}

  WsnTopology wsn_;
  Rng rng_;
  ml::Network net_;
  UnitGraph graph_;
  Assignment assignment_;
};

TEST_P(MicroDeepPropertyTest, EveryUnitOnAValidNode) {
  for (UnitId u = 0; u < graph_.num_units(); ++u) {
    EXPECT_LT(assignment_.node_of(u), wsn_.num_nodes());
  }
  const auto counts = assignment_.units_per_node(wsn_.num_nodes());
  std::size_t total = 0;
  for (std::size_t c : counts) total += c;
  EXPECT_EQ(total, graph_.num_units());
}

TEST_P(MicroDeepPropertyTest, CostAccountingBalances) {
  const auto r = compute_comm_cost(assignment_, wsn_);
  double sum = 0.0;
  for (double c : r.per_node) sum += c;
  // Every hop transmission charges exactly one tx and one rx.
  EXPECT_NEAR(sum, 2.0 * r.total_hop_transmissions, 1e-9);
  EXPECT_GE(r.max_cost, r.mean_cost);
  EXPECT_EQ(r.per_node.size(), wsn_.num_nodes());
}

TEST_P(MicroDeepPropertyTest, DenseAggregationNeverIncreasesTraffic) {
  CommCostOptions agg;
  agg.aggregate_dense = true;
  CommCostOptions raw;
  raw.aggregate_dense = false;
  const auto ra = compute_comm_cost(assignment_, wsn_, agg);
  const auto rr = compute_comm_cost(assignment_, wsn_, raw);
  EXPECT_LE(ra.total_hop_transmissions, rr.total_hop_transmissions + 1e-9);
}

TEST_P(MicroDeepPropertyTest, CrossFractionWithinBounds) {
  const double f = assignment_.cross_edge_fraction();
  EXPECT_GE(f, 0.0);
  EXPECT_LE(f, 1.0);
  for (std::size_t l = 1; l < graph_.layers().size(); ++l) {
    const double fl = assignment_.cross_edge_fraction_into_layer(l);
    EXPECT_GE(fl, 0.0);
    EXPECT_LE(fl, 1.0);
  }
}

TEST_P(MicroDeepPropertyTest, ExecutorMatchesNetworkForward) {
  Rng srng(31);
  ml::Tensor sample({2, 8, 8});
  for (std::size_t i = 0; i < sample.size(); ++i) {
    sample[i] = static_cast<float>(srng.uniform(-1.0, 1.0));
  }
  const ml::Tensor expected =
      net_.forward(sample.reshape({1, 2, 8, 8}), false);
  // The unit walk tracks the tensor forward pass to GEMM rounding, and
  // netexec over this deployment and assignment reproduces the walk's
  // logits bit for bit.
  const ActTable acts = unit_walk(net_, graph_, sample);
  netexec::NetworkExecutor exec(net_, graph_, assignment_, wsn_);
  const auto result = exec.run(sample);
  ASSERT_EQ(result.output.shape(), expected.shape());
  EXPECT_FALSE(result.degraded);
  EXPECT_GE(result.latency_s, 0.0);
  const UnitLayer& last = graph_.layers().back();
  for (std::size_t i = 0; i < expected.size(); ++i) {
    const float walk = acts[last.first_unit + static_cast<UnitId>(i)][0];
    EXPECT_NEAR(walk, expected[i], 1e-3);
    const float got = result.output[i];
    EXPECT_EQ(std::memcmp(&got, &walk, sizeof(float)), 0)
        << "logit " << i << ": netexec " << got << " vs walk " << walk;
  }
}

TEST_P(MicroDeepPropertyTest, FailureMigrationPreservesUnitCount) {
  Assignment migrated = assignment_;
  std::vector<bool> dead(wsn_.num_nodes(), false);
  dead[0] = dead[wsn_.num_nodes() - 1] = true;
  migrated.reassign_dead_nodes(wsn_, dead);
  const auto counts = migrated.units_per_node(wsn_.num_nodes());
  EXPECT_EQ(counts[0], 0u);
  EXPECT_EQ(counts[wsn_.num_nodes() - 1], 0u);
  std::size_t total = 0;
  for (std::size_t c : counts) total += c;
  EXPECT_EQ(total, graph_.num_units());
  // The migrated assignment still routes.
  const auto r = compute_comm_cost(migrated, wsn_);
  EXPECT_GE(r.total_messages, 0.0);
}

// --- Randomized layouts + CNN shapes -------------------------------------
// Property sweep over seeded random deployments and network shapes: the
// assignment invariants must hold for *every* draw, not just the fixtures
// above.  Failures print the seed, which reproduces the exact case.

struct RandomScenario {
  WsnTopology wsn;
  ml::Network net;
  UnitGraph graph;
  std::vector<int> input_shape;
};

RandomScenario make_random_scenario(std::uint64_t seed) {
  // Drawn from the paper's sensing regime: a *planned* (jittered-grid)
  // sensor field — the lounge deployment is instrumented, not scattered —
  // feeding a sizable input plane, where delivering raw readings to one
  // sink is the dominant traffic term (Sec. III / Fig. 10).
  Rng rng(seed);
  const int grid = 10 + 2 * static_cast<int>(rng.uniform_int(0, 2));  // 10/12/14
  const int in_ch = 1 + static_cast<int>(rng.uniform_int(0, 1));
  const int conv_ch = 2 + static_cast<int>(rng.uniform_int(0, 1));
  const int hidden = 4 + static_cast<int>(rng.uniform_int(0, 4));
  const int classes = 2 + static_cast<int>(rng.uniform_int(0, 1));
  const int rows = 5 + static_cast<int>(rng.uniform_int(0, 3));
  const int cols = 5 + static_cast<int>(rng.uniform_int(0, 3));

  ml::Network net;
  net.emplace<ml::Conv2D>(in_ch, conv_ch, 3, 1, rng);
  net.emplace<ml::ReLU>();
  net.emplace<ml::MaxPool2D>(2);
  net.emplace<ml::Flatten>();
  net.emplace<ml::Dense>(conv_ch * (grid / 2) * (grid / 2), hidden, rng);
  net.emplace<ml::ReLU>();
  net.emplace<ml::Dense>(hidden, classes, rng);

  WsnTopology wsn = WsnTopology::jittered_grid(kArea, rows, cols, rng);
  UnitGraph graph = UnitGraph::build(net, {in_ch, grid, grid});
  return {std::move(wsn), std::move(net), std::move(graph),
          {in_ch, grid, grid}};
}

constexpr std::uint64_t kRandomSeeds[] = {101, 202, 303, 404, 505,
                                          606, 707, 808};

TEST(AssignmentRandomized, EveryUnitAssignedExactlyOnce) {
  for (const std::uint64_t seed : kRandomSeeds) {
    const auto sc = make_random_scenario(seed);
    for (const Assignment& a :
         {assign_nearest(sc.graph, sc.wsn),
          assign_balanced_heuristic(sc.graph, sc.wsn),
          assign_centralized(sc.graph, sc.wsn, 0)}) {
      std::size_t total = 0;
      for (const std::size_t c : a.units_per_node(sc.wsn.num_nodes())) {
        total += c;
      }
      EXPECT_EQ(total, sc.graph.num_units()) << "seed " << seed;
      for (UnitId u = 0; u < sc.graph.num_units(); ++u) {
        ASSERT_LT(a.node_of(u), sc.wsn.num_nodes())
            << "seed " << seed << " unit " << u;
      }
    }
  }
}

TEST(AssignmentRandomized, HeuristicPeakCostNeverExceedsNaiveSink) {
  // The balanced heuristic exists to beat the naive everything-to-the-sink
  // deployment on peak per-node traffic (paper Fig. 10); that ordering
  // must hold on every random layout.
  for (const std::uint64_t seed : kRandomSeeds) {
    const auto sc = make_random_scenario(seed);
    const auto naive = compute_comm_cost(
        assign_centralized(sc.graph, sc.wsn, 0), sc.wsn);
    const auto smart = compute_comm_cost(
        assign_balanced_heuristic(sc.graph, sc.wsn), sc.wsn);
    EXPECT_LE(smart.max_cost, naive.max_cost + 1e-9) << "seed " << seed;
  }
}

TEST(AssignmentRandomized, PipelineIsDeterministicForFixedSeed) {
  for (const std::uint64_t seed : kRandomSeeds) {
    const auto a = make_random_scenario(seed);
    const auto b = make_random_scenario(seed);
    ASSERT_EQ(a.graph.num_units(), b.graph.num_units()) << "seed " << seed;
    const Assignment ha = assign_balanced_heuristic(a.graph, a.wsn);
    const Assignment hb = assign_balanced_heuristic(b.graph, b.wsn);
    for (UnitId u = 0; u < a.graph.num_units(); ++u) {
      ASSERT_EQ(ha.node_of(u), hb.node_of(u))
          << "seed " << seed << " diverged at unit " << u;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllCombos, MicroDeepPropertyTest,
    ::testing::Values(Combo{Deploy::Grid, Assign::Centralized},
                      Combo{Deploy::Grid, Assign::Nearest},
                      Combo{Deploy::Grid, Assign::Heuristic},
                      Combo{Deploy::Jittered, Assign::Centralized},
                      Combo{Deploy::Jittered, Assign::Nearest},
                      Combo{Deploy::Jittered, Assign::Heuristic},
                      Combo{Deploy::Random, Assign::Centralized},
                      Combo{Deploy::Random, Assign::Nearest},
                      Combo{Deploy::Random, Assign::Heuristic}),
    combo_name);

}  // namespace
}  // namespace zeiot::microdeep
