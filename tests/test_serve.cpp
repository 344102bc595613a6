// Conformance suite of the zeiot::serve front-end.
//
// The load-bearing contracts:
//  * accounting — served + shed + rejected == offered on every workload,
//    and the queue never exceeds its bound (the admission-control
//    properties of the ISSUE);
//  * determinism — the full response stream (ServeReport::digest()) is
//    bit-identical across reruns and across worker counts (1 vs 4);
//  * planning — the first dispatch against each CNN deployment plans it,
//    and every later dispatch against it reuses the plan;
//  * pinning — bench_a9 --smoke's report digest and counts are recorded;
//  * spans — every ServeRequest root is tiled exactly by its ServeQueue +
//    ServeService children (the netexec phase-tiling convention);
//  * labels — every served label is the one its route's own model gives
//    for the request's sample.
#include "serve/serve.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <map>
#include <memory>

#include "par/thread_pool.hpp"
#include "serve/workload.hpp"

namespace zeiot::serve {
namespace {

/// Shared route set: built once per test binary (training the five
/// pipelines dominates suite runtime otherwise).  Sized down from the
/// serving defaults but structurally complete — every route has a pool,
/// the CNN routes have kCnnVariants deployments each.
RouteSet& shared_routes() {
  static std::unique_ptr<RouteSet> routes = [] {
    RouteSetConfig cfg;
    cfg.e3_train_trips_per_level = 6;
    cfg.e3_scenarios = 8;
    cfg.e4_train_rounds_per_count = 6;
    cfg.e4_measurements = 16;
    return make_routes(cfg);
  }();
  return *routes;
}

/// Server config with a plan search without random restarts (nearest and
/// the four heuristic slacks): planning stays cheap so suites can afford
/// many servers.
ServeConfig test_config(obs::Observability* obs = nullptr) {
  ServeConfig cfg;
  cfg.search.random_restarts = 0;
  cfg.obs = obs;
  return cfg;
}

WorkloadConfig test_workload(std::size_t n = 600) {
  WorkloadConfig w;
  w.num_requests = n;
  return w;
}

TEST(Workload, SortedDenseAndInBounds) {
  RouteSet& routes = shared_routes();
  const auto reqs = generate_workload(test_workload(800), routes);
  ASSERT_EQ(reqs.size(), 800u);
  double prev = 0.0;
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    EXPECT_EQ(reqs[i].id, i);
    EXPECT_GE(reqs[i].arrival_s, prev);
    prev = reqs[i].arrival_s;
    EXPECT_LT(reqs[i].sample, routes.pool_size(reqs[i].route));
    EXPECT_LT(reqs[i].variant, routes.num_variants(reqs[i].route));
  }
}

// Property: every offered request gets exactly one typed outcome, the
// totals conserve, and the queue never exceeds its bound — across a sweep
// of admission rates and queue bounds that force all three outcomes.
TEST(Admission, ShedServedRejectedConserveAndQueueBounded) {
  RouteSet& routes = shared_routes();
  const auto reqs = generate_workload(test_workload(900), routes);
  bool saw_shed = false;
  bool saw_rejected = false;
  for (const double rate : {30000.0, 90000.0, 1e9}) {
    for (const std::size_t qcap : {std::size_t{16}, std::size_t{4096}}) {
      ServeConfig cfg = test_config();
      cfg.admission_rate_per_s = rate;
      cfg.admission_burst = 32.0;
      cfg.queue_capacity = qcap;
      Server server(&routes, cfg);
      const ServeReport rep = server.run(reqs);
      EXPECT_EQ(rep.offered, reqs.size());
      EXPECT_EQ(rep.served + rep.shed + rep.rejected, rep.offered);
      EXPECT_LE(rep.peak_queue_depth, qcap);
      std::uint64_t served = 0, shed = 0, rejected = 0;
      for (const Response& r : rep.responses) {
        switch (r.outcome) {
          case Outcome::Served:
            ++served;
            EXPECT_GE(r.label, 0);
            EXPECT_GT(r.latency_s, 0.0);
            break;
          case Outcome::Shed:
            ++shed;
            EXPECT_EQ(r.latency_s, 0.0);
            break;
          case Outcome::Rejected:
            ++rejected;
            EXPECT_EQ(r.latency_s, 0.0);
            break;
        }
      }
      EXPECT_EQ(served, rep.served);
      EXPECT_EQ(shed, rep.shed);
      EXPECT_EQ(rejected, rep.rejected);
      saw_shed = saw_shed || rep.shed > 0;
      saw_rejected = saw_rejected || rep.rejected > 0;
    }
  }
  // The sweep must actually exercise both refusal paths.
  EXPECT_TRUE(saw_shed);
  EXPECT_TRUE(saw_rejected);
}

// The determinism acceptance of the ISSUE: bit-identical serve results at
// 1 vs 4 workers and across reruns, pinned through the report digest.
TEST(Determinism, ReportDigestIdenticalAcrossThreadCountsAndReruns) {
  RouteSet& routes = shared_routes();
  const auto reqs = generate_workload(test_workload(500), routes);
  par::ThreadPool one(1);
  par::ThreadPool four(4);
  const ServeConfig cfg = test_config();

  routes.set_pool(&one);
  const std::uint64_t d1 = Server(&routes, cfg).run(reqs).digest();
  const std::uint64_t d1_rerun = Server(&routes, cfg).run(reqs).digest();
  routes.set_pool(&four);
  const std::uint64_t d4 = Server(&routes, cfg).run(reqs).digest();
  routes.set_pool(nullptr);

  EXPECT_EQ(d1, d1_rerun);
  EXPECT_EQ(d1, d4);

  // Different workload => different stream (digest is not degenerate).
  WorkloadConfig other = test_workload(500);
  other.seed = 8;
  const auto reqs2 = generate_workload(other, routes);
  EXPECT_NE(d1, Server(&routes, cfg).run(reqs2).digest());
}

// bench_a9_serve --smoke's run, pinned: its route sizes, its 4,000-request
// trace at workload seed 7 and the default server.  Every response field
// feeds the digest, so a change to routing, batching, admission, planning
// or labels moves it.
TEST(ServePinned, BenchA9SmokeReportIsPinned) {
  RouteSetConfig rcfg;
  rcfg.e3_train_trips_per_level = 6;
  rcfg.e3_scenarios = 12;
  rcfg.e4_train_rounds_per_count = 6;
  rcfg.e4_measurements = 24;
  const auto routes = make_routes(rcfg);
  WorkloadConfig w;
  w.num_requests = 4000;
  w.seed = 7;
  const auto reqs = generate_workload(w, *routes);
  const ServeReport rep = Server(routes.get(), ServeConfig{}).run(reqs);

  EXPECT_EQ(rep.digest(), 7985712391137564271ULL);
  EXPECT_EQ(rep.served, 3936u);
  EXPECT_EQ(rep.shed, 64u);
  EXPECT_EQ(rep.rejected, 0u);
  EXPECT_EQ(rep.plan_hits, 195u);
  EXPECT_EQ(rep.plan_misses, 6u);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(rep.horizon_s), 4594003615305811291ULL);
}

TEST(PlanCacheServing, FirstDispatchPerVariantMissesLaterOnesHit) {
  RouteSet& routes = shared_routes();
  // CNN-only traffic so every batch needs a plan.
  WorkloadConfig w = test_workload(200);
  w.route_mix = {1.0, 0.0, 0.0, 0.0, 0.0};
  const auto reqs = generate_workload(w, routes);
  const ServeReport rep = Server(&routes, test_config()).run(reqs);
  EXPECT_EQ(rep.plan_misses, routes.num_variants(Route::E1Temperature));
  EXPECT_EQ(rep.plan_hits + rep.plan_misses, rep.batches);
  EXPECT_GT(rep.plan_hits, 0u);

  // The batch that planned a deployment is the first one against it.
  std::map<std::uint32_t, std::uint32_t> first_batch;  // variant -> seq
  for (const Response& r : rep.responses) {
    if (r.outcome != Outcome::Served) continue;
    const auto [it, fresh] =
        first_batch.emplace(reqs[r.id].variant, r.batch_seq);
    if (!fresh) it->second = std::min(it->second, r.batch_seq);
  }
  EXPECT_EQ(first_batch.size(), routes.num_variants(Route::E1Temperature));
  for (const Response& r : rep.responses) {
    if (r.outcome != Outcome::Served) continue;
    EXPECT_EQ(r.plan_hit, r.batch_seq != first_batch[reqs[r.id].variant])
        << "request " << r.id;
  }
}

TEST(ServiceModel, UncontendedLatencyMatchesRouteParams) {
  RouteSet& routes = shared_routes();
  // Evenly spaced single-route traffic with gaps far above the service
  // time: no queueing, every batch is one request.
  std::vector<Request> reqs;
  for (std::uint64_t i = 0; i < 40; ++i) {
    Request r;
    r.id = i;
    r.route = Route::E4RoomCount;
    r.arrival_s = static_cast<double>(i) * 1e-3;
    r.sample = static_cast<std::uint32_t>(
        i % routes.pool_size(Route::E4RoomCount));
    reqs.push_back(r);
  }
  const ServeConfig cfg = test_config();
  const ServeReport rep = Server(&routes, cfg).run(reqs);
  ASSERT_EQ(rep.served, rep.offered);
  for (const Response& r : rep.responses) {
    // (arrival + service) - arrival: equal up to rounding of the virtual
    // clock addition, whose ulp is set by the arrival magnitude.
    EXPECT_NEAR(r.latency_s, kBatchOverheadS + kPerItemS, 1e-12);
  }
}

TEST(Batching, SaturatedEngineCoalescesUpToMaxBatch) {
  RouteSet& routes = shared_routes();
  // The workload's mean rate is beyond what the engine serves one request
  // at a time (1 / (kBatchOverheadS + kPerItemS) ~ 45k batches/s).
  WorkloadConfig w = test_workload(600);
  w.route_mix = {0.0, 0.0, 0.0, 1.0, 0.0};
  const auto reqs = generate_workload(w, routes);
  ServeConfig cfg = test_config();
  cfg.admission_rate_per_s = 1e12;  // isolate the batcher from policing
  cfg.admission_burst = 1e12;
  const ServeReport rep = Server(&routes, cfg).run(reqs);
  ASSERT_EQ(rep.served, rep.offered);
  std::size_t largest = 0;
  std::vector<std::size_t> batch_sizes;
  for (const Response& r : rep.responses) {
    if (batch_sizes.size() <= r.batch_seq) batch_sizes.resize(r.batch_seq + 1);
    ++batch_sizes[r.batch_seq];
  }
  for (const std::size_t s : batch_sizes) {
    EXPECT_LE(s, kMaxBatch);
    largest = std::max(largest, s);
  }
  EXPECT_GT(largest, 1u);  // saturation must actually coalesce
  EXPECT_LT(rep.batches, rep.served);
}

TEST(Spans, QueueAndServiceTileEveryRequestRoot) {
  RouteSet& routes = shared_routes();
  obs::Observability obs;
  obs.enable_spans(1 << 14);
  const auto reqs = generate_workload(test_workload(300), routes);
  const ServeReport rep = Server(&routes, test_config(&obs)).run(reqs);

  const auto& sp = obs.spans();
  EXPECT_EQ(sp.dropped(), 0u);
  EXPECT_EQ(sp.root_count(), rep.served);
  std::size_t roots = 0;
  for (std::size_t i = 0; i < sp.size(); ++i) {
    const obs::SpanEvent& s = sp.at(i);
    if (s.kind != obs::SpanKind::ServeRequest) continue;
    ++roots;
    // Children are recorded immediately after their root: queue then
    // service, tiling [t0, t1] exactly.
    ASSERT_LT(i + 2, sp.size());
    const obs::SpanEvent& queue = sp.at(i + 1);
    const obs::SpanEvent& service = sp.at(i + 2);
    ASSERT_EQ(queue.kind, obs::SpanKind::ServeQueue);
    ASSERT_EQ(service.kind, obs::SpanKind::ServeService);
    EXPECT_EQ(queue.parent, s.id);
    EXPECT_EQ(service.parent, s.id);
    EXPECT_EQ(queue.trace_id, s.trace_id);
    EXPECT_EQ(queue.t0, s.t0);
    EXPECT_EQ(queue.t1, service.t0);
    EXPECT_EQ(service.t1, s.t1);
    EXPECT_EQ(s.value, s.t1 - s.t0);
  }
  EXPECT_EQ(roots, rep.served);
}

TEST(Metrics, ServeCountersAndSloGaugesMatchReport) {
  RouteSet& routes = shared_routes();
  obs::Observability obs;
  const auto reqs = generate_workload(test_workload(500), routes);
  ServeConfig cfg = test_config(&obs);
  cfg.admission_rate_per_s = 60000.0;  // force some shed
  const ServeReport rep = Server(&routes, cfg).run(reqs);

  const auto& m = obs.metrics();
  EXPECT_EQ(m.counter_value("serve.offered"), static_cast<double>(rep.offered));
  EXPECT_EQ(m.counter_value("serve.served"), static_cast<double>(rep.served));
  EXPECT_EQ(m.counter_value("serve.shed"), static_cast<double>(rep.shed));
  EXPECT_EQ(m.counter_value("serve.rejected"),
            static_cast<double>(rep.rejected));
  EXPECT_EQ(m.counter_value("serve.batches"), static_cast<double>(rep.batches));
  EXPECT_EQ(m.counter_value("serve.plan_cache.hits"),
            static_cast<double>(rep.plan_hits));
  EXPECT_EQ(m.counter_value("serve.plan_cache.misses"),
            static_cast<double>(rep.plan_misses));
  const double hit_rate = m.gauge_value("serve.plan_cache.hit_rate");
  EXPECT_GE(hit_rate, 0.0);
  EXPECT_LE(hit_rate, 1.0);
  // Per-route accounting sums to the totals.
  double offered_by_route = 0.0;
  for (std::size_t r = 0; r < kNumRoutes; ++r) {
    const obs::Labels labels{{"route", route_name(static_cast<Route>(r))}};
    offered_by_route += m.counter_value("serve.offered", labels);
  }
  EXPECT_EQ(offered_by_route, static_cast<double>(rep.offered));
  // SLO gauges mirror the report's nearest-rank quantiles.
  EXPECT_EQ(m.gauge_value("serve.slo.e4_room_count.p99_s"),
            rep.latency_quantile(Route::E4RoomCount, 0.99));
  EXPECT_EQ(m.gauge_value("serve.slo.e4_room_count.p50_s"),
            rep.latency_quantile(Route::E4RoomCount, 0.50));
}

// Every served label, recomputed from its route's own model on the
// request's sample.  A CNN label comes from one batched forward, so it is
// recomputed over the same batch: the responses sharing its batch_seq, in
// id order.
TEST(Labels, ServedLabelsMatchTheRouteModels) {
  RouteSet& routes = shared_routes();
  WorkloadConfig w = test_workload(600);
  w.route_mix = {0.2, 0.2, 0.2, 0.2, 0.2};
  const auto reqs = generate_workload(w, routes);
  const ServeReport rep = Server(&routes, test_config()).run(reqs);

  std::array<std::size_t, kNumRoutes> checked{};
  std::map<std::uint32_t, std::vector<std::uint64_t>> cnn_batches;
  for (const Response& r : rep.responses) {
    if (r.outcome != Outcome::Served) continue;
    const std::size_t s = reqs[r.id].sample;
    switch (r.route) {
      case Route::E1Temperature:
      case Route::E2Fall:
        cnn_batches[r.batch_seq].push_back(r.id);
        continue;
      case Route::E3Congestion: {
        // Base-3 digits, car 0 least significant.
        const auto levels = routes.e3_estimator.estimate(
            routes.e3_scenarios[s], routes.e3_positions[s]);
        int packed = 0;
        for (auto it = levels.rbegin(); it != levels.rend(); ++it) {
          packed = packed * 3 + static_cast<int>(*it);
        }
        EXPECT_EQ(r.label, packed) << "request " << r.id;
        break;
      }
      case Route::E4RoomCount:
        EXPECT_EQ(r.label,
                  routes.e4_estimator.estimate(routes.e4_measurements[s]))
            << "request " << r.id;
        break;
      case Route::E5Csi:
        EXPECT_EQ(r.label, routes.e5_knn.predict(routes.e5_pool[s]))
            << "request " << r.id;
        break;
    }
    ++checked[static_cast<std::size_t>(r.route)];
  }
  for (const auto& [seq, ids] : cnn_batches) {
    const Route route = rep.responses[ids.front()].route;
    CnnRoute& cnn = routes.cnn(route);
    std::vector<std::size_t> idx;
    for (const std::uint64_t id : ids) idx.push_back(reqs[id].sample);
    const auto [x, y] = cnn.pool.batch(idx);
    const ml::Tensor out = cnn.net.forward(x, /*train=*/false);
    const auto classes = static_cast<std::size_t>(out.shape().back());
    for (std::size_t i = 0; i < ids.size(); ++i) {
      const Response& r = rep.responses[ids[i]];
      EXPECT_EQ(r.route, route) << "batch " << seq << " mixes routes";
      const float* logits = out.data() + i * classes;
      const auto want =
          std::max_element(logits, logits + classes) - logits;
      EXPECT_EQ(r.label, want) << "request " << r.id << " in batch " << seq;
      ++checked[static_cast<std::size_t>(route)];
    }
  }
  for (std::size_t r = 0; r < kNumRoutes; ++r) {
    EXPECT_GT(checked[r], 0u) << route_name(static_cast<Route>(r))
                              << " served nothing";
  }
}

}  // namespace
}  // namespace zeiot::serve
