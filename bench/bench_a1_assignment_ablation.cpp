// A1 — Ablation: unit-assignment strategies across both MicroDeep
// workloads (design choice called out in DESIGN.md).
//
// Compares centralized / nearest-geometric / balanced-heuristic placement
// on the E1 (temperature lounge) and E2 (IR array) network geometries:
// peak and mean per-node communication cost, load balance, and the
// fraction of CNN edges crossing node boundaries.
#include <iostream>

#include "bench_report.hpp"
#include "common/table.hpp"
#include "microdeep/comm_cost.hpp"
#include "microdeep/search.hpp"
#include "netexec/netexec.hpp"

using namespace zeiot;
using namespace zeiot::microdeep;

namespace {

ml::Network lounge_cnn(Rng& rng) {
  ml::Network net;
  net.emplace<ml::Conv2D>(1, 4, 3, 1, rng);
  net.emplace<ml::ReLU>();
  net.emplace<ml::MaxPool2D>(2);
  net.emplace<ml::Flatten>();
  net.emplace<ml::Dense>(4 * 8 * 12, 8, rng);
  net.emplace<ml::ReLU>();
  net.emplace<ml::Dense>(8, 2, rng);
  return net;
}

ml::Network array_cnn(Rng& rng) {
  ml::Network net;
  net.emplace<ml::Conv2D>(10, 4, 3, 1, rng);
  net.emplace<ml::ReLU>();
  net.emplace<ml::MaxPool2D>(2);
  net.emplace<ml::Flatten>();
  net.emplace<ml::Dense>(4 * 5 * 5, 16, rng);
  net.emplace<ml::ReLU>();
  net.emplace<ml::Dense>(16, 2, rng);
  return net;
}

void ablate(const std::string& workload, const ml::Network& net,
            const std::vector<int>& input_shape, const WsnTopology& wsn,
            Table& t, obs::Observability* obs) {
  const auto g = UnitGraph::build(net, input_shape);
  struct Row {
    const char* name;
    Assignment a;
  };
  std::vector<Row> rows;
  rows.push_back({"centralized", assign_centralized(
                                     g, wsn,
                                     static_cast<NodeId>(wsn.num_nodes() / 2))});
  rows.push_back({"nearest", assign_nearest(g, wsn)});
  rows.push_back({"heuristic", assign_balanced_heuristic(g, wsn)});
  // Publishes microdeep.search.* gauges; the heuristic row's later
  // compute_comm_cost re-publishes the standard comm_cost gauges, so those
  // keep tracking the paper's strategy.
  rows.push_back({"search", search_assignment(g, wsn, {}, obs).best});
  for (const auto& row : rows) {
    // Only the heuristic row publishes gauges; it is the strategy the
    // paper's figures track.
    const auto r = compute_comm_cost(
        row.a, wsn, {},
        std::string(row.name) == "heuristic" ? obs : nullptr);
    t.add_row({workload, row.name, Table::num(r.max_cost, 0),
               Table::num(r.mean_cost, 1),
               std::to_string(row.a.max_units_per_node(wsn.num_nodes())),
               Table::pct(row.a.cross_edge_fraction())});
  }
}

}  // namespace

int main() {
  std::cout << "=== A1: assignment-strategy ablation ===\n";
  obs::Observability obs;
  Table t({"workload", "assignment", "max cost", "mean cost",
           "max units/node", "cross edges"});

  {
    Rng rng(1);
    ml::Network net = lounge_cnn(rng);
    Rng wsn_rng(2);
    const auto wsn = WsnTopology::jittered_grid({0.0, 0.0, 50.0, 34.0}, 10, 5,
                                                wsn_rng);
    ablate("E1 lounge (50 nodes)", net, {1, 17, 25}, wsn, t, &obs);
  }
  {
    Rng rng(3);
    ml::Network net = array_cnn(rng);
    const auto wsn = WsnTopology::grid({0.0, 0.0, 5.0, 5.0}, 10, 10);
    ablate("E2 IR array (100 nodes)", net, {10, 10, 10}, wsn, t, &obs);
  }
  t.print(std::cout);
  std::cout << "takeaway: centralized minimizes total traffic but "
               "concentrates it on the sink; the heuristic trades a little "
               "mean traffic for the flattest peak and per-node balance\n";

  // Inference-latency ablation on a lossless channel: the second benefit
  // of distribution.  A sink computes every unit serially, while spread
  // units compute in parallel across nodes, so spreading wins by ~7.6x
  // when compute-bound.  Radio-bound, every node's frames queue at its
  // radio and the spread assignments win by only ~5%.
  std::cout << "\n--- inference latency (E1 geometry, per assignment) ---\n";
  Table lt({"assignment", "radio-bound (2 ms/hop, 0.1 ms/unit)",
            "compute-bound (0.5 ms/hop, 1 ms/unit)"});
  {
    Rng rng(5);
    ml::Network net = lounge_cnn(rng);
    const auto g = UnitGraph::build(net, {1, 17, 25});
    Rng wsn_rng(6);
    const auto wsn = WsnTopology::jittered_grid({0.0, 0.0, 50.0, 34.0}, 10, 5,
                                                wsn_rng);
    ml::Tensor sample({1, 17, 25});
    Rng srng(7);
    for (std::size_t i = 0; i < sample.size(); ++i) {
      sample[i] = static_cast<float>(srng.uniform(-1.0, 1.0));
    }
    auto latency_ms = [&](const Assignment& a, double hop_s, double unit_s,
                          obs::Observability* o) {
      netexec::NetExecConfig cfg;
      cfg.channel.fixed_hop_latency_s = hop_s;
      cfg.unit_compute_s = unit_s;
      cfg.obs = o;
      netexec::NetworkExecutor exec(net, g, a, wsn, cfg);
      const auto r = exec.run(sample);
      ZEIOT_CHECK_MSG(!r.degraded, "latency row missed a layer deadline");
      return Table::num(r.latency_s * 1e3, 1) + " ms";
    };
    struct Row {
      const char* name;
      Assignment a;
    };
    std::vector<Row> rows;
    rows.push_back({"centralized", assign_centralized(g, wsn, 22)});
    rows.push_back({"nearest", assign_nearest(g, wsn)});
    rows.push_back({"heuristic", assign_balanced_heuristic(g, wsn)});
    for (const auto& row : rows) {
      obs::Observability* o =
          std::string(row.name) == "heuristic" ? &obs : nullptr;
      lt.add_row({row.name, latency_ms(row.a, 2e-3, 0.1e-3, o),
                  latency_ms(row.a, 0.5e-3, 1e-3, o)});
    }
  }
  lt.print(std::cout);
  bench::write_bench_report("bench_a1_assignment_ablation", obs);
  return 0;
}
