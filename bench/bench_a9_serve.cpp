// A9 — context-recognition serving front-end soak.
//
// The paper's end state is a building full of zero-energy deployments
// answering context queries continuously.  This bench soaks zeiot::serve
// with that traffic: an open-loop bursty/diurnal arrival stream over all
// five routes (E1/E2 CNN deployments, each planned on its first dispatch,
// E3/E4 NB estimators, E5 CSI kNN), policed by the token bucket and
// coalesced by the deterministic batcher.
//
// The headline row is requests offered per wall-second
// (perf.a9.serve.items_per_s).  It is the only host-dependent output: the
// counts, the virtual latencies and the report digest are the same on
// every host.
#include <chrono>
#include <iostream>

#include "bench_report.hpp"
#include "common/table.hpp"
#include "serve/serve.hpp"
#include "serve/workload.hpp"

using namespace zeiot;

namespace {

obs::Observability g_obs;

}  // namespace

int main(int argc, char** argv) {
  const auto args = bench::parse_bench_args(argc, argv);
  std::cout << "=== A9: context-recognition serving front-end (soak) ===\n";

  serve::RouteSetConfig rcfg;
  if (args.smoke) {
    rcfg.e3_train_trips_per_level = 6;
    rcfg.e3_scenarios = 12;
    rcfg.e4_train_rounds_per_count = 6;
    rcfg.e4_measurements = 24;
  }
  const auto t_build0 = std::chrono::steady_clock::now();
  const auto routes = serve::make_routes(rcfg);
  const double build_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    t_build0)
          .count();

  serve::WorkloadConfig wcfg;
  wcfg.num_requests = args.smoke ? 4000 : 400000;
  wcfg.seed = 7 + args.seed;
  const auto arrivals = serve::generate_workload(wcfg, *routes);

  serve::ServeConfig scfg;
  scfg.obs = &g_obs;
  if (args.smoke) {
    // Smoke exports the span record too; full runs keep spans off so the
    // hot path stays unobserved (the serve ctest label pins the tiling).
    g_obs.enable_spans(3 * wcfg.num_requests + 64);
  }

  std::cout << "routes built in " << Table::num(build_s, 2) << " s; offering "
            << arrivals.size() << " requests at mean "
            << Table::num(serve::kMeanRatePerS / 1e3, 0)
            << "k req/s (diurnal x burst modulated), admission "
            << Table::num(scfg.admission_rate_per_s / 1e3, 0)
            << "k req/s, queue bound " << scfg.queue_capacity << "\n";

  serve::Server server(routes.get(), scfg);
  const auto t0 = std::chrono::steady_clock::now();
  const serve::ServeReport rep = server.run(arrivals);
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  Table t({"route", "offered", "served", "shed", "rejected", "p50 (ms)",
           "p99 (ms)"});
  for (std::size_t r = 0; r < serve::kNumRoutes; ++r) {
    const auto route = static_cast<serve::Route>(r);
    const obs::Labels labels{{"route", serve::route_name(route)}};
    const auto& m = g_obs.metrics();
    t.add_row({serve::route_name(route),
               Table::num(m.counter_value("serve.offered", labels), 0),
               Table::num(m.counter_value("serve.served", labels), 0),
               Table::num(m.counter_value("serve.shed", labels), 0),
               Table::num(m.counter_value("serve.rejected", labels), 0),
               Table::num(rep.latency_quantile(route, 0.50) * 1e3, 3),
               Table::num(rep.latency_quantile(route, 0.99) * 1e3, 3)});
  }
  t.print(std::cout);

  const double req_per_s =
      wall_s > 0.0 ? static_cast<double>(rep.offered) / wall_s : 0.0;
  const double hit_rate =
      rep.plan_hits + rep.plan_misses > 0
          ? static_cast<double>(rep.plan_hits) /
                static_cast<double>(rep.plan_hits + rep.plan_misses)
          : 0.0;
  std::cout << "served " << rep.served << " / " << rep.offered << " (shed "
            << rep.shed << ", rejected " << rep.rejected << ") in "
            << Table::num(wall_s, 2) << " s  ("
            << Table::num(req_per_s / 1e3, 1) << "k req/s)\n"
            << "batches " << rep.batches << ", peak queue "
            << rep.peak_queue_depth << ", virtual horizon "
            << Table::num(rep.horizon_s, 3) << " s\n"
            << "plan cache: " << rep.plan_hits << " hits, " << rep.plan_misses
            << " misses (hit rate "
            << Table::pct(hit_rate) << ")\n"
            << "report digest: " << rep.digest() << "\n";

  g_obs.metrics().gauge("perf.a9.route_build.wall_s").set(build_s);
  g_obs.metrics()
      .gauge("serve.virtual_horizon_s")
      .set(rep.horizon_s);
  bench::record_perf(g_obs, "a9.serve", wall_s,
                     static_cast<double>(rep.offered));
  bench::write_bench_report("bench_a9_serve", g_obs);
  return 0;
}
