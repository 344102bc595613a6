// Conformance suite of the zeiot::serve front-end.
//
// The load-bearing contracts:
//  * accounting — served + shed + rejected == offered on every workload,
//    and the queue never exceeds its bound (the admission-control
//    properties of the ISSUE);
//  * determinism — the full response stream (ServeReport::digest()) is
//    bit-identical across reruns and across worker counts (1 vs 4);
//  * plan-cache safety — a cached unit-assignment plan rebound to a
//    topology REBUILT from the same seed/parameters reproduces the fresh
//    search bit-for-bit (no dangling node-index assumptions), and the LRU
//    hit/miss/eviction bookkeeping is exact;
//  * spans — every ServeRequest root is tiled exactly by its ServeQueue +
//    ServeService children (the netexec phase-tiling convention);
//  * labels — every served label is the one its route's own model gives
//    for the request's sample.
#include "serve/serve.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>

#include "microdeep/comm_cost.hpp"
#include "microdeep/search.hpp"
#include "par/thread_pool.hpp"
#include "serve/workload.hpp"

namespace zeiot::serve {
namespace {

/// Shared route set: built once per test binary (training the five
/// pipelines dominates suite runtime otherwise).  Sized down from the
/// serving defaults but structurally complete — every route has a pool,
/// the CNN routes have two deployments each.
RouteSet& shared_routes() {
  static std::unique_ptr<RouteSet> routes = [] {
    RouteSetConfig cfg;
    cfg.e1_variants = 2;
    cfg.e2_variants = 2;
    cfg.e3_train_trips_per_level = 6;
    cfg.e3_scenarios = 8;
    cfg.e4_train_rounds_per_count = 6;
    cfg.e4_measurements = 16;
    cfg.e5_frames_per_position = 4;
    return make_routes(cfg);
  }();
  return *routes;
}

/// Server config with a minimal plan search (nearest + one heuristic):
/// cache misses stay cheap so suites can afford many of them.
ServeConfig test_config(obs::Observability* obs = nullptr) {
  ServeConfig cfg;
  cfg.search.max_balance_slack = 0;
  cfg.search.random_restarts = 0;
  cfg.obs = obs;
  return cfg;
}

WorkloadConfig test_workload(std::size_t n = 600) {
  WorkloadConfig w;
  w.num_requests = n;
  w.mean_rate_per_s = 120000.0;
  return w;
}

TEST(TopologyDigest, StableAcrossRebuildDistinctAcrossSeeds) {
  const Rect area{0.0, 0.0, 10.0, 10.0};
  Rng a(77);
  Rng b(77);
  Rng c(78);
  const auto t1 = microdeep::WsnTopology::jittered_grid(area, 4, 4, a);
  const auto t2 = microdeep::WsnTopology::jittered_grid(area, 4, 4, b);
  const auto t3 = microdeep::WsnTopology::jittered_grid(area, 4, 4, c);
  EXPECT_EQ(t1.digest(), t2.digest());
  EXPECT_NE(t1.digest(), t3.digest());
  // Structural inputs are digested too, not just positions.
  const auto g1 = microdeep::WsnTopology::grid(area, 4, 4);
  const auto g2 = microdeep::WsnTopology::grid(Rect{0.0, 0.0, 10.0, 12.0}, 4, 4);
  EXPECT_NE(g1.digest(), g2.digest());
}

TEST(PlanCacheLru, HitMissEvictExactBookkeeping) {
  PlanCache cache(2);
  const auto build = [](std::uint64_t key) {
    return [key] {
      CachedPlan p;
      p.topology_digest = key;
      p.max_cost = static_cast<double>(key);
      return p;
    };
  };
  EXPECT_FALSE(cache.ensure(1, build(1)).hit);
  EXPECT_FALSE(cache.ensure(2, build(2)).hit);
  EXPECT_TRUE(cache.ensure(1, build(1)).hit);   // 1 now MRU
  EXPECT_FALSE(cache.ensure(3, build(3)).hit);  // evicts 2 (LRU)
  EXPECT_EQ(cache.find(2), nullptr);
  ASSERT_NE(cache.find(1), nullptr);
  ASSERT_NE(cache.find(3), nullptr);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 3u);
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_DOUBLE_EQ(cache.hit_rate(), 0.25);
}

ml::Network rebind_cnn(std::uint64_t seed) {
  Rng rng(seed);
  ml::Network net;
  net.emplace<ml::Conv2D>(1, 3, 3, 1, rng);
  net.emplace<ml::ReLU>();
  net.emplace<ml::MaxPool2D>(2);
  net.emplace<ml::Flatten>();
  net.emplace<ml::Dense>(3 * 3 * 3, 4, rng);
  net.emplace<ml::ReLU>();
  net.emplace<ml::Dense>(4, 2, rng);
  return net;
}

// Satellite 3 of the ISSUE: a cached plan must be independent of the
// objects the search ran against.  Search against one topology/graph, let
// BOTH die, rebuild structurally identical ones from the same seeds, bind
// the cached map — and get the fresh search result bit for bit.
TEST(PlanCacheSafety, CachedPlanRebindsToRebuiltTopologyBitwise) {
  const Rect area{0.0, 0.0, 10.0, 10.0};
  const std::vector<int> shape{1, 6, 6};
  microdeep::AssignmentSearchOptions opts;
  opts.random_restarts = 2;

  CachedPlan plan;
  {
    const ml::Network net1 = rebind_cnn(11);
    const auto graph1 = microdeep::UnitGraph::build(net1, shape);
    Rng trng(77);
    const auto topo1 = microdeep::WsnTopology::jittered_grid(area, 4, 4, trng);
    const auto s1 = microdeep::search_assignment(graph1, topo1, opts);
    plan.topology_digest = topo1.digest();
    plan.unit_to_node = s1.best.unit_map();
    plan.max_cost = s1.best_max_cost;
    plan.mean_cost = s1.best_mean_cost;
    plan.candidates = s1.candidates.size();
  }  // search-time network, graph and topology destroyed here

  const ml::Network net2 = rebind_cnn(11);
  const auto graph2 = microdeep::UnitGraph::build(net2, shape);
  Rng trng(77);
  const auto topo2 = microdeep::WsnTopology::jittered_grid(area, 4, 4, trng);
  ASSERT_EQ(topo2.digest(), plan.topology_digest);

  const microdeep::Assignment bound = plan.bind(graph2);
  const auto s2 = microdeep::search_assignment(graph2, topo2, opts);
  EXPECT_EQ(bound.unit_map(), s2.best.unit_map());

  // Re-scoring the bound plan on the rebuilt topology reproduces the
  // cached scores exactly (EXPECT_EQ on doubles = bitwise here).
  const auto cost =
      microdeep::compute_comm_cost(bound, topo2, opts.cost_options);
  EXPECT_EQ(cost.max_cost, plan.max_cost);
  EXPECT_EQ(cost.mean_cost, plan.mean_cost);
  EXPECT_EQ(s2.best_max_cost, plan.max_cost);
  EXPECT_EQ(s2.candidates.size(), plan.candidates);
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

TEST(PlanCacheServing, HitsMissesAndEvictionsUnderLru) {
  RouteSet& routes = shared_routes();
  // CNN-only traffic so every batch resolves a plan.
  WorkloadConfig w = test_workload(200);
  w.route_mix = {1.0, 0.0, 0.0, 0.0, 0.0};
  const auto reqs = generate_workload(w, routes);

  {
    // Capacity covers both E1 deployments: exactly one miss per variant,
    // everything else hits.
    ServeConfig cfg = test_config();
    cfg.plan_cache_capacity = 8;
    const ServeReport rep = Server(&routes, cfg).run(reqs);
    EXPECT_EQ(rep.plan_misses, routes.num_variants(Route::E1Temperature));
    EXPECT_EQ(rep.plan_evictions, 0u);
    EXPECT_EQ(rep.plan_hits + rep.plan_misses, rep.batches);
    EXPECT_GT(rep.plan_hits, 0u);
  }
  {
    // Capacity 1 with two alternating deployments: every variant switch
    // evicts and re-searches.
    ServeConfig cfg = test_config();
    cfg.plan_cache_capacity = 1;
    const ServeReport rep = Server(&routes, cfg).run(reqs);
    EXPECT_GT(rep.plan_evictions, 0u);
    EXPECT_EQ(rep.plan_misses, rep.plan_evictions + 1);
    EXPECT_EQ(rep.plan_hits + rep.plan_misses, rep.batches);
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
  const RouteParams& p = cfg.routes[static_cast<std::size_t>(Route::E4RoomCount)];
  ASSERT_EQ(rep.served, rep.offered);
  for (const Response& r : rep.responses) {
    // (arrival + service) - arrival: equal up to rounding of the virtual
    // clock addition, whose ulp is set by the arrival magnitude.
    EXPECT_NEAR(r.latency_s, p.batch_overhead_s + p.per_item_s, 1e-12);
  }
}

TEST(Batching, SaturatedEngineCoalescesUpToMaxBatch) {
  RouteSet& routes = shared_routes();
  WorkloadConfig w = test_workload(600);
  w.mean_rate_per_s = 5e6;  // far beyond the virtual service capacity
  w.route_mix = {0.0, 0.0, 0.0, 1.0, 0.0};
  const auto reqs = generate_workload(w, routes);
  ServeConfig cfg = test_config();
  cfg.admission_rate_per_s = 1e12;  // isolate the batcher from policing
  cfg.admission_burst = 1e12;
  const ServeReport rep = Server(&routes, cfg).run(reqs);
  ASSERT_EQ(rep.served, rep.offered);
  const std::size_t max_batch =
      cfg.routes[static_cast<std::size_t>(Route::E4RoomCount)].max_batch;
  std::size_t largest = 0;
  std::vector<std::size_t> batch_sizes;
  for (const Response& r : rep.responses) {
    if (batch_sizes.size() <= r.batch_seq) batch_sizes.resize(r.batch_seq + 1);
    ++batch_sizes[r.batch_seq];
  }
  for (const std::size_t s : batch_sizes) {
    EXPECT_LE(s, max_batch);
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
