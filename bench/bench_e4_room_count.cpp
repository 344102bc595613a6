// E4 — People counting on an already-deployed IEEE 802.15.4 WSN from
// synchronized inter-node + surrounding RSSI (paper Sec. IV.B, ref [66]).
//
// Paper results: ~79% accuracy for the number of people, with errors up
// to two people.
#include <iostream>

#include "bench_report.hpp"
#include "common/table.hpp"
#include "sensing/rssi/choco.hpp"
#include "sensing/rssi/room_count.hpp"

using namespace zeiot;
using namespace zeiot::sensing::rssi;

int main(int argc, char** argv) {
  const auto args = bench::parse_bench_args(argc, argv);
  std::cout << "=== E4: 802.15.4 RSSI people counting (Sec. IV.B) ===\n";
  Rng rng(7 + args.seed);  // 10 nodes, 0..10 people
  const auto res = evaluate_room_pipeline(
      /*train_rounds=*/args.smoke ? 20 : 100,
      /*eval_rounds=*/args.smoke ? 8 : 30, rng);

  Table t({"metric", "measured", "paper"});
  t.add_row({"exact count accuracy", Table::pct(res.exact_accuracy), "~79%"});
  t.add_row({"accuracy within +/-2 people",
             Table::pct(res.within_two_accuracy), "~100% (errors <= 2)"});
  t.add_row({"mean absolute error (people)",
             Table::num(res.mean_absolute_error, 2), "-"});
  t.print(std::cout);

  // The synchronization substrate: how tightly one Choco round aligns the
  // two RSSI measurements across the deployment.
  std::vector<Point2D> nodes;
  for (int i = 0; i < kRoomNodes; ++i) {
    // Perimeter layout mirrors the estimator's deployment.
    const double t01 = static_cast<double>(i) / kRoomNodes;
    nodes.push_back({kRoom.x0 + t01 * kRoom.width(), kRoom.y0 + 0.2});
  }
  const auto adj = connectivity_graph(nodes, 3.0);
  const auto round = run_flood(adj, 0);
  std::cout << "\nChoco round: flood " << round.flood_slots << " slots, "
            << "duration " << round.round_duration_s * 1e3 << " ms, "
            << "max sampling skew " << round.max_skew_s * 1e3 << " ms\n";

  std::cout << "\ncount confusion (rows = true count 0..10):\n";
  res.confusion.print(std::cout);

  obs::Observability obs;
  obs.metrics().gauge("sensing.room.exact_accuracy").set(res.exact_accuracy);
  obs.metrics()
      .gauge("sensing.room.within_two_accuracy")
      .set(res.within_two_accuracy);
  obs.metrics()
      .gauge("sensing.room.mean_absolute_error")
      .set(res.mean_absolute_error);
  obs.metrics().gauge("sensing.choco.max_skew_s").set(round.max_skew_s);
  bench::write_bench_report("bench_e4_room_count", obs);
  return 0;
}
