#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "microdeep/assignment.hpp"
#include "microdeep/comm_cost.hpp"
#include "microdeep/distributed.hpp"
#include "microdeep/unit_graph.hpp"
#include "microdeep/wsn.hpp"

namespace zeiot::microdeep {
namespace {

const Rect kArea{0.0, 0.0, 10.0, 10.0};

ml::Network small_cnn(Rng& rng) {
  ml::Network net;
  net.emplace<ml::Conv2D>(1, 2, 3, 1, rng);
  net.emplace<ml::ReLU>();
  net.emplace<ml::MaxPool2D>(2);
  net.emplace<ml::Flatten>();
  net.emplace<ml::Dense>(2 * 3 * 3, 4, rng);
  net.emplace<ml::ReLU>();
  net.emplace<ml::Dense>(4, 2, rng);
  return net;
}

// -------------------------------------------------------------------- WSN --

TEST(Wsn, GridIsConnectedWithExpectedDegree) {
  const auto wsn = WsnTopology::grid(kArea, 5, 5);
  EXPECT_EQ(wsn.num_nodes(), 25u);
  // Interior nodes have 8 neighbours; corners 3.
  EXPECT_GE(wsn.mean_degree(), 4.0);
  EXPECT_EQ(wsn.neighbors(12).size(), 8u);  // centre node
  EXPECT_EQ(wsn.neighbors(0).size(), 3u);   // corner node
}

TEST(Wsn, HopsAreShortestPaths) {
  const auto wsn = WsnTopology::grid(kArea, 5, 5);
  EXPECT_EQ(wsn.hops(0, 0), 0);
  EXPECT_EQ(wsn.hops(0, 1), 1);
  // Opposite corners of a 5x5 8-connected grid: 4 hops.
  EXPECT_EQ(wsn.hops(0, 24), 4);
  EXPECT_EQ(wsn.hops(24, 0), 4);
}

TEST(Wsn, NextHopWalksToDestination) {
  const auto wsn = WsnTopology::grid(kArea, 5, 5);
  NodeId cur = 0;
  int steps = 0;
  while (cur != 24 && steps < 100) {
    cur = wsn.next_hop(cur, 24);
    ++steps;
  }
  EXPECT_EQ(cur, 24u);
  EXPECT_EQ(steps, wsn.hops(0, 24));
}

TEST(Wsn, NearestNode) {
  const auto wsn = WsnTopology::grid(kArea, 5, 5);
  // The node at grid cell (0,0) has centre (1,1).
  EXPECT_EQ(wsn.nearest_node({1.0, 1.0}), 0u);
  EXPECT_EQ(wsn.nearest_node({9.0, 9.0}), 24u);
}

TEST(Wsn, RandomUniformConnects) {
  Rng rng(3);
  const auto wsn = WsnTopology::random_uniform(kArea, 40, rng);
  EXPECT_EQ(wsn.num_nodes(), 40u);
  for (NodeId a = 0; a < 40; ++a) {
    EXPECT_GE(wsn.hops(0, a), 0);  // reachable
  }
}

TEST(Wsn, DisconnectedTopologyRejected) {
  // Two nodes far apart relative to the radius.
  EXPECT_THROW(WsnTopology({{0.0, 0.0}, {9.0, 9.0}}, kArea, 1.0), Error);
}

TEST(Wsn, IsLinkSymmetric) {
  const auto wsn = WsnTopology::grid(kArea, 4, 4);
  for (NodeId a = 0; a < wsn.num_nodes(); ++a) {
    for (NodeId b = 0; b < wsn.num_nodes(); ++b) {
      EXPECT_EQ(wsn.is_link(a, b), wsn.is_link(b, a));
    }
  }
}

// -------------------------------------------------------------- UnitGraph --

TEST(UnitGraph, LayerStructure) {
  Rng rng(1);
  ml::Network net = small_cnn(rng);
  const auto g = UnitGraph::build(net, {1, 6, 6});
  // Input(6x6) + Conv(6x6) + Pool(3x3) + Dense(4) + Dense(2).
  ASSERT_EQ(g.layers().size(), 5u);
  EXPECT_EQ(g.layers()[0].kind, UnitLayer::Kind::Input);
  EXPECT_EQ(g.layers()[1].kind, UnitLayer::Kind::Conv);
  EXPECT_EQ(g.layers()[2].kind, UnitLayer::Kind::Pool);
  EXPECT_EQ(g.layers()[3].kind, UnitLayer::Kind::Dense);
  EXPECT_EQ(g.num_units(), 36u + 36u + 9u + 4u + 2u);
}

TEST(UnitGraph, EdgeCounts) {
  Rng rng(1);
  ml::Network net = small_cnn(rng);
  const auto g = UnitGraph::build(net, {1, 6, 6});
  // Conv 3x3 pad 1 on 6x6: interior units have 9 inputs, edges fewer.
  // Pool 2 on 6x6 -> 3x3: exactly 4 inputs each = 36 edges.
  // Dense: 9*4 + 4*2 = 44.
  std::size_t conv_edges = 0, pool_edges = 0, dense_edges = 0;
  for (const UnitEdge& e : g.edges()) {
    const auto dst_layer = g.layer_of(e.dst);
    if (dst_layer == 1) ++conv_edges;
    else if (dst_layer == 2) ++pool_edges;
    else ++dense_edges;
  }
  EXPECT_EQ(pool_edges, 36u);
  EXPECT_EQ(dense_edges, 44u);
  // 4 corners(4) + 16 edge cells(6) + 16 interior(9) = 16+96+144 = 256.
  EXPECT_EQ(conv_edges, 256u);
}

TEST(UnitGraph, PositionsInsideArea) {
  Rng rng(1);
  ml::Network net = small_cnn(rng);
  const auto g = UnitGraph::build(net, {1, 6, 6});
  for (UnitId u = 0; u < g.num_units(); ++u) {
    const Point2D p = g.position(u, kArea);
    EXPECT_TRUE(kArea.contains(p));
  }
}

TEST(UnitGraph, NetToUnitLayerMapping) {
  Rng rng(1);
  ml::Network net = small_cnn(rng);
  const auto g = UnitGraph::build(net, {1, 6, 6});
  EXPECT_EQ(g.unit_layer_of_net_layer(0), 1);   // conv
  EXPECT_EQ(g.unit_layer_of_net_layer(1), -1);  // relu
  EXPECT_EQ(g.unit_layer_of_net_layer(2), 2);   // pool
  EXPECT_EQ(g.unit_layer_of_net_layer(4), 3);   // dense 1
  EXPECT_EQ(g.unit_layer_of_net_layer(6), 4);   // dense 2
}

TEST(UnitGraph, NeighborsSymmetric) {
  Rng rng(1);
  ml::Network net = small_cnn(rng);
  const auto g = UnitGraph::build(net, {1, 6, 6});
  for (const UnitEdge& e : g.edges()) {
    const auto& ns = g.graph_neighbors(e.src);
    const auto& nd = g.graph_neighbors(e.dst);
    EXPECT_NE(std::find(ns.begin(), ns.end(), e.dst), ns.end());
    EXPECT_NE(std::find(nd.begin(), nd.end(), e.src), nd.end());
  }
}

// ------------------------------------------------------------- Assignment --

TEST(Assignment, CentralizedPinsInputsLocally) {
  Rng rng(1);
  ml::Network net = small_cnn(rng);
  const auto g = UnitGraph::build(net, {1, 6, 6});
  const auto wsn = WsnTopology::grid(kArea, 4, 4);
  const auto a = assign_centralized(g, wsn, 5);
  // Non-input units all on the sink.
  const auto& input = g.layers().front();
  for (UnitId u = static_cast<UnitId>(input.num_units()); u < g.num_units();
       ++u) {
    EXPECT_EQ(a.node_of(u), 5u);
  }
  // Input units stay at their sensing nodes (several distinct nodes).
  std::set<NodeId> owners;
  for (int i = 0; i < input.num_units(); ++i) {
    owners.insert(a.node_of(static_cast<UnitId>(i)));
  }
  EXPECT_GT(owners.size(), 4u);
}

TEST(Assignment, NearestIsGeometric) {
  Rng rng(1);
  ml::Network net = small_cnn(rng);
  const auto g = UnitGraph::build(net, {1, 6, 6});
  const auto wsn = WsnTopology::grid(kArea, 4, 4);
  const auto a = assign_nearest(g, wsn);
  for (UnitId u = 0; u < g.num_units(); ++u) {
    EXPECT_EQ(a.node_of(u), wsn.nearest_node(g.position(u, kArea)));
  }
}

TEST(Assignment, HeuristicBalancesLoad) {
  Rng rng(1);
  ml::Network net = small_cnn(rng);
  const auto g = UnitGraph::build(net, {1, 6, 6});
  const auto wsn = WsnTopology::grid(kArea, 4, 4);
  const auto nearest = assign_nearest(g, wsn);
  const auto heur = assign_balanced_heuristic(g, wsn);
  EXPECT_LE(heur.max_units_per_node(wsn.num_nodes()),
            nearest.max_units_per_node(wsn.num_nodes()));
  // Balanced to within slack of the ceiling average.
  const std::size_t target =
      (g.num_units() + wsn.num_nodes() - 1) / wsn.num_nodes();
  EXPECT_LE(heur.max_units_per_node(wsn.num_nodes()), target + 1);
}

TEST(Assignment, HeuristicKeepsInputsPinned) {
  Rng rng(1);
  ml::Network net = small_cnn(rng);
  const auto g = UnitGraph::build(net, {1, 6, 6});
  const auto wsn = WsnTopology::grid(kArea, 4, 4);
  const auto heur = assign_balanced_heuristic(g, wsn);
  const auto& input = g.layers().front();
  for (int i = 0; i < input.num_units(); ++i) {
    const auto u = static_cast<UnitId>(i);
    EXPECT_EQ(heur.node_of(u), wsn.nearest_node(g.position(u, kArea)));
  }
}

TEST(Assignment, CrossEdgeFractionBounds) {
  Rng rng(1);
  ml::Network net = small_cnn(rng);
  const auto g = UnitGraph::build(net, {1, 6, 6});
  const auto wsn = WsnTopology::grid(kArea, 4, 4);
  for (const auto& a : {assign_centralized(g, wsn, 0), assign_nearest(g, wsn),
                        assign_balanced_heuristic(g, wsn)}) {
    const double f = a.cross_edge_fraction();
    EXPECT_GE(f, 0.0);
    EXPECT_LE(f, 1.0);
    for (std::size_t l = 1; l < g.layers().size(); ++l) {
      const double fl = a.cross_edge_fraction_into_layer(l);
      EXPECT_GE(fl, 0.0);
      EXPECT_LE(fl, 1.0);
    }
  }
}

TEST(Assignment, ReassignDeadNodesMovesEverything) {
  Rng rng(1);
  ml::Network net = small_cnn(rng);
  const auto g = UnitGraph::build(net, {1, 6, 6});
  const auto wsn = WsnTopology::grid(kArea, 4, 4);
  auto a = assign_nearest(g, wsn);
  std::vector<bool> dead(wsn.num_nodes(), false);
  dead[0] = dead[5] = true;
  a.reassign_dead_nodes(wsn, dead);
  for (UnitId u = 0; u < g.num_units(); ++u) {
    EXPECT_FALSE(dead[a.node_of(u)]);
  }
  std::vector<bool> all_dead(wsn.num_nodes(), true);
  EXPECT_THROW(a.reassign_dead_nodes(wsn, all_dead), Error);
}

// -------------------------------------------------------------- Comm cost --

TEST(CommCost, SingleNodeNetworkIsFree) {
  Rng rng(1);
  ml::Network net = small_cnn(rng);
  const auto g = UnitGraph::build(net, {1, 6, 6});
  const WsnTopology wsn({{5.0, 5.0}}, kArea, 1.0);
  std::vector<NodeId> map(g.num_units(), 0);
  const Assignment a(&g, std::move(map));
  const auto r = compute_comm_cost(a, wsn);
  EXPECT_DOUBLE_EQ(r.max_cost, 0.0);
  EXPECT_DOUBLE_EQ(r.total_messages, 0.0);
}

TEST(CommCost, CentralizedConcentratesOnSink) {
  Rng rng(1);
  ml::Network net = small_cnn(rng);
  const auto g = UnitGraph::build(net, {1, 6, 6});
  const auto wsn = WsnTopology::grid(kArea, 4, 4);
  const auto central = assign_centralized(g, wsn, 5);
  const auto r = compute_comm_cost(central, wsn);
  EXPECT_EQ(r.hottest_node, 5u);
  EXPECT_GT(r.max_cost, 2.0 * r.mean_cost);
}

TEST(CommCost, DistributionPaysOffAtScale) {
  // At toy scale gathering everything at a sink is cheap; the distributed
  // assignment must win once the sensed field outgrows a node's share.
  Rng rng(1);
  ml::Network big;
  big.emplace<ml::Conv2D>(1, 2, 3, 1, rng);
  big.emplace<ml::ReLU>();
  big.emplace<ml::MaxPool2D>(2);
  big.emplace<ml::Flatten>();
  big.emplace<ml::Dense>(2 * 6 * 6, 4, rng);
  big.emplace<ml::ReLU>();
  big.emplace<ml::Dense>(4, 2, rng);
  const auto g = UnitGraph::build(big, {1, 12, 12});
  const auto wsn = WsnTopology::grid(kArea, 6, 6);
  const auto central = compute_comm_cost(assign_centralized(g, wsn, 14), wsn);
  const auto heur = compute_comm_cost(assign_balanced_heuristic(g, wsn), wsn);
  const auto nearest = compute_comm_cost(assign_nearest(g, wsn), wsn);
  EXPECT_LT(heur.max_cost, central.max_cost);
  EXPECT_LT(nearest.max_cost, central.max_cost);
}

TEST(CommCost, CentralizedPeakScalesWithFieldDistributedDoesNot) {
  auto peak_pair = [](int cells, int nodes_per_side) {
    Rng rng(1);
    ml::Network net;
    net.emplace<ml::Conv2D>(1, 2, 3, 1, rng);
    net.emplace<ml::ReLU>();
    net.emplace<ml::MaxPool2D>(2);
    net.emplace<ml::Flatten>();
    net.emplace<ml::Dense>(2 * (cells / 2) * (cells / 2), 4, rng);
    net.emplace<ml::ReLU>();
    net.emplace<ml::Dense>(4, 2, rng);
    const auto g = UnitGraph::build(net, {1, cells, cells});
    const auto wsn =
        WsnTopology::grid(kArea, nodes_per_side, nodes_per_side);
    return std::pair{
        compute_comm_cost(assign_centralized(g, wsn, 0), wsn).max_cost,
        compute_comm_cost(assign_nearest(g, wsn), wsn).max_cost};
  };
  const auto [c_small, d_small] = peak_pair(8, 4);
  const auto [c_big, d_big] = peak_pair(16, 8);
  // Quadrupling the sensed cells roughly quadruples the sink's load but
  // leaves the per-node distributed load nearly flat.
  EXPECT_GT(c_big / c_small, 3.0);
  EXPECT_LT(d_big / d_small, 2.0);
}

TEST(CommCost, BackwardAddsTrafficButSparesSensors) {
  Rng rng(1);
  ml::Network net = small_cnn(rng);
  const auto g = UnitGraph::build(net, {1, 6, 6});
  const auto wsn = WsnTopology::grid(kArea, 4, 4);
  const auto a = assign_nearest(g, wsn);
  CommCostOptions fwd;
  fwd.include_backward = false;
  CommCostOptions both;
  both.include_backward = true;
  const auto rf = compute_comm_cost(a, wsn, fwd);
  const auto rb = compute_comm_cost(a, wsn, both);
  // Backward retraces every route except those into the input layer
  // (sensing units receive no error), so traffic grows but less than 2x.
  EXPECT_GT(rb.total_messages, rf.total_messages);
  EXPECT_LT(rb.total_messages, 2.0 * rf.total_messages);
}

TEST(CommCost, PerNodeSumsToTwiceHops) {
  Rng rng(1);
  ml::Network net = small_cnn(rng);
  const auto g = UnitGraph::build(net, {1, 6, 6});
  const auto wsn = WsnTopology::grid(kArea, 4, 4);
  const auto a = assign_nearest(g, wsn);
  const auto r = compute_comm_cost(a, wsn);
  double sum = 0.0;
  for (double c : r.per_node) sum += c;
  // Every hop charges exactly one tx and one rx.
  EXPECT_NEAR(sum, 2.0 * r.total_hop_transmissions, 1e-9);
}

// ------------------------------------------------------- MicroDeep model --

TEST(MicroDeepModel, BuildsAndReportsCost) {
  Rng rng(1);
  ml::Network net = small_cnn(rng);
  const auto wsn = WsnTopology::grid(kArea, 4, 4);
  MicroDeepConfig cfg;
  cfg.assignment = AssignmentKind::BalancedHeuristic;
  MicroDeepModel model(net, wsn, {1, 6, 6}, cfg);
  const auto r = model.comm_cost();
  EXPECT_GT(r.total_messages, 0.0);
  EXPECT_EQ(r.per_node.size(), wsn.num_nodes());
}

TEST(MicroDeepModel, MaskDeadInputsZeroesCells) {
  Rng rng(1);
  ml::Network net = small_cnn(rng);
  const auto wsn = WsnTopology::grid(kArea, 4, 4);
  MicroDeepModel model(net, wsn, {1, 6, 6});
  ml::Dataset ds;
  ds.add(ml::Tensor({1, 6, 6}, 1.0f), 0);
  std::vector<bool> dead(wsn.num_nodes(), false);
  dead[0] = true;  // kills the node owning the top-left cells
  const auto masked = mask_dead_inputs(ds, model.unit_graph(), wsn, dead);
  double zeros = 0.0;
  for (std::size_t i = 0; i < masked.x(0).size(); ++i) {
    if (masked.x(0)[i] == 0.0f) ++zeros;
  }
  EXPECT_GT(zeros, 0.0);
  EXPECT_LT(zeros, 36.0);
}

TEST(MicroDeepModel, ZeroStalenessHookIsExact) {
  // With staleness 0 no hook is installed, so training is plain SGD; the
  // model must still train and evaluate without errors.
  Rng rng(2);
  ml::Network net = small_cnn(rng);
  const auto wsn = WsnTopology::grid(kArea, 4, 4);
  MicroDeepConfig cfg;
  cfg.staleness = 0.0;
  MicroDeepModel model(net, wsn, {1, 6, 6}, cfg);
  ml::Dataset ds;
  Rng drng(3);
  for (int i = 0; i < 40; ++i) {
    ml::Tensor x({1, 6, 6});
    const int label = i % 2;
    for (std::size_t j = 0; j < x.size(); ++j) {
      x[j] = static_cast<float>(drng.normal(label, 0.3));
    }
    ds.add(std::move(x), label);
  }
  ml::Sgd opt(0.05);
  ml::TrainConfig tcfg;
  tcfg.epochs = 5;
  tcfg.batch_size = 8;
  const auto hist = model.train(ds, ds, tcfg, opt);
  EXPECT_GT(hist.best_val_accuracy, 0.9);
}

}  // namespace
}  // namespace zeiot::microdeep
