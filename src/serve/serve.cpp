#include "serve/serve.hpp"

#include <deque>

#include "common/error.hpp"
#include "common/hash.hpp"
#include "common/stats.hpp"

namespace zeiot::serve {

std::uint64_t ServeReport::digest() const {
  Fnv1a h;
  for (const Response& r : responses) {
    h.mix(r.id);
    h.mix(static_cast<std::uint64_t>(r.route));
    h.mix(static_cast<std::uint64_t>(r.outcome));
    h.mix(static_cast<std::uint64_t>(static_cast<std::int64_t>(r.label)));
    h.mix_bits(r.latency_s);
    h.mix(r.batch_seq);
    h.mix(r.plan_hit ? 1 : 0);
  }
  return h.value();
}

double ServeReport::latency_quantile(Route r, double q) const {
  std::vector<double> lat;
  for (const Response& resp : responses) {
    if (resp.route == r && resp.outcome == Outcome::Served) {
      lat.push_back(resp.latency_s);
    }
  }
  return nearest_rank_quantile(std::move(lat), q);
}

Server::Server(RouteSet* routes, ServeConfig cfg)
    : routes_(routes), cfg_(std::move(cfg)) {
  ZEIOT_CHECK_MSG(routes_ != nullptr, "server needs a route set");
  ZEIOT_CHECK_MSG(cfg_.queue_capacity >= 1, "queue capacity must be >= 1");
}

namespace {

/// Per-route metric handles resolved once per run (the emit sites then
/// cost one pointer test + one arithmetic op, never a map lookup).
struct RouteMetrics {
  obs::Counter* offered = nullptr;
  obs::Counter* served = nullptr;
  obs::Counter* shed = nullptr;
  obs::Counter* rejected = nullptr;
  obs::Counter* slo_violations = nullptr;
  obs::HistogramMetric* latency = nullptr;
  obs::Summary* batch_size = nullptr;
};

}  // namespace

ServeReport Server::run(const std::vector<Request>& arrivals) {
  ServeReport rep;
  rep.responses.resize(arrivals.size());

  TokenBucket bucket(cfg_.admission_rate_per_s, cfg_.admission_burst);
  PlanCache cache(cfg_.plan_cache_capacity);
  std::array<std::deque<std::size_t>, kNumRoutes> queues;
  std::size_t queued = 0;
  double engine_free = 0.0;
  std::uint32_t batch_seq = 0;

  obs::Observability* obs = cfg_.obs;
  const bool spans = obs != nullptr && obs->spans_enabled();
  std::array<RouteMetrics, kNumRoutes> rm{};
  obs::Counter* c_offered = nullptr;
  obs::Counter* c_served = nullptr;
  obs::Counter* c_shed = nullptr;
  obs::Counter* c_rejected = nullptr;
  obs::Counter* c_batches = nullptr;
  obs::Gauge* g_depth = nullptr;
  if (obs != nullptr) {
    auto& m = obs->metrics();
    for (std::size_t r = 0; r < kNumRoutes; ++r) {
      const obs::Labels labels{{"route", route_name(static_cast<Route>(r))}};
      rm[r].offered = &m.counter("serve.offered", labels);
      rm[r].served = &m.counter("serve.served", labels);
      rm[r].shed = &m.counter("serve.shed", labels);
      rm[r].rejected = &m.counter("serve.rejected", labels);
      rm[r].slo_violations = &m.counter("serve.slo.violations", labels);
      rm[r].latency = &m.histogram("serve.latency_s", 0.0, 1.0, 64, labels);
      rm[r].batch_size = &m.summary("serve.batch.size", labels);
    }
    c_offered = &m.counter("serve.offered");
    c_served = &m.counter("serve.served");
    c_shed = &m.counter("serve.shed");
    c_rejected = &m.counter("serve.rejected");
    c_batches = &m.counter("serve.batches");
    g_depth = &m.gauge("serve.queue.depth");
  }

  std::size_t i = 0;
  const std::size_t n = arrivals.size();
  double prev_arrival = 0.0;

  const auto admit = [&](std::size_t idx) {
    const Request& r = arrivals[idx];
    ZEIOT_CHECK_MSG(r.id == idx, "request ids must be dense arrival indices");
    ZEIOT_CHECK_MSG(r.arrival_s >= prev_arrival,
                    "arrivals must be sorted by time");
    prev_arrival = r.arrival_s;
    const auto ri = static_cast<std::size_t>(r.route);
    ++rep.offered;
    if (obs != nullptr) {
      c_offered->inc();
      rm[ri].offered->inc();
    }
    Response& resp = rep.responses[idx];
    resp.id = r.id;
    resp.route = r.route;
    if (!bucket.try_take(r.arrival_s)) {
      resp.outcome = Outcome::Shed;
      ++rep.shed;
      if (obs != nullptr) {
        c_shed->inc();
        rm[ri].shed->inc();
      }
      return;
    }
    if (queued >= cfg_.queue_capacity) {
      resp.outcome = Outcome::Rejected;
      ++rep.rejected;
      if (obs != nullptr) {
        c_rejected->inc();
        rm[ri].rejected->inc();
      }
      return;
    }
    queues[ri].push_back(idx);
    ++queued;
    if (queued > rep.peak_queue_depth) rep.peak_queue_depth = queued;
    if (obs != nullptr) g_depth->set(static_cast<double>(queued));
  };

  // Longest-waiting head-of-line request wins; ties break toward the lower
  // route index.  Pure function of queue state.
  const auto pick_route = [&]() {
    std::size_t best = kNumRoutes;
    double best_arrival = 0.0;
    for (std::size_t r = 0; r < kNumRoutes; ++r) {
      if (queues[r].empty()) continue;
      const double a = arrivals[queues[r].front()].arrival_s;
      if (best == kNumRoutes || a < best_arrival) {
        best = r;
        best_arrival = a;
      }
    }
    return best;
  };

  std::vector<std::size_t> batch;
  std::vector<std::uint32_t> samples;
  while (i < n || queued > 0) {
    if (queued == 0) {
      admit(i++);
      continue;
    }
    const std::size_t ri = pick_route();
    const Route route = static_cast<Route>(ri);
    const double dispatch_t =
        std::max(engine_free, arrivals[queues[ri].front()].arrival_s);
    // Requests arriving up to the dispatch instant are admitted first so
    // they can coalesce into this batch (or a later one on their route).
    if (i < n && arrivals[i].arrival_s <= dispatch_t) {
      admit(i++);
      continue;
    }

    // Form the batch: the head-of-line prefix of the route's queue — for
    // CNN routes restricted to the head's deployment variant, since one
    // batched forward runs under one unit-assignment plan.
    const RouteParams& params = cfg_.routes[ri];
    const bool planned = routes_->uses_plans(route);
    const std::uint32_t variant = arrivals[queues[ri].front()].variant;
    batch.clear();
    samples.clear();
    while (!queues[ri].empty() && batch.size() < params.max_batch) {
      const std::size_t idx = queues[ri].front();
      if (planned && arrivals[idx].variant != variant) break;
      queues[ri].pop_front();
      --queued;
      batch.push_back(idx);
      samples.push_back(arrivals[idx].sample);
    }
    if (obs != nullptr) g_depth->set(static_cast<double>(queued));

    // Resolve the deployment's plan through the LRU cache; a miss runs the
    // real assignment search and charges the virtual build penalty.
    bool plan_hit = false;
    double service_s = params.batch_overhead_s +
                       static_cast<double>(batch.size()) * params.per_item_s;
    if (planned) {
      const CnnRoute& c = routes_->cnn(route);
      ZEIOT_CHECK_MSG(variant < c.variant_digests.size(),
                      "variant " << variant << " out of range on "
                                 << route_name(route));
      const std::uint64_t key = c.variant_digests[variant];
      const auto ensured = cache.ensure(key, [&] {
        const auto search = microdeep::search_assignment(
            c.graph, c.variants[variant], cfg_.search, obs);
        CachedPlan plan;
        plan.topology_digest = key;
        plan.unit_to_node = search.best.unit_map();
        plan.max_cost = search.best_max_cost;
        plan.mean_cost = search.best_mean_cost;
        plan.candidates = search.candidates.size();
        return plan;
      });
      plan_hit = ensured.hit;
      if (!plan_hit) service_s += params.plan_build_s;
    }

    const double completion_t = dispatch_t + service_s;
    engine_free = completion_t;

    const std::vector<int> labels = routes_->execute(route, samples);
    for (std::size_t j = 0; j < batch.size(); ++j) {
      const std::size_t idx = batch[j];
      Response& resp = rep.responses[idx];
      resp.outcome = Outcome::Served;
      resp.label = labels[j];
      resp.latency_s = completion_t - arrivals[idx].arrival_s;
      resp.batch_seq = batch_seq;
      resp.plan_hit = plan_hit;
      ++rep.served;
      if (obs != nullptr) {
        c_served->inc();
        rm[ri].served->inc();
        rm[ri].latency->observe(resp.latency_s);
        if (resp.latency_s > params.slo_s) rm[ri].slo_violations->inc();
      }
      if (spans) {
        auto& sp = obs->spans();
        const double arrival = arrivals[idx].arrival_s;
        const auto root =
            sp.add(obs::SpanKind::ServeRequest, arrival, completion_t, 0,
                   resp.id, static_cast<std::uint32_t>(ri), batch_seq,
                   resp.latency_s);
        sp.add(obs::SpanKind::ServeQueue, arrival, dispatch_t, root, resp.id,
               static_cast<std::uint32_t>(ri));
        sp.add(obs::SpanKind::ServeService, dispatch_t, completion_t, root,
               resp.id, static_cast<std::uint32_t>(ri),
               static_cast<std::uint32_t>(batch.size()));
      }
    }
    if (obs != nullptr) {
      c_batches->inc();
      rm[ri].batch_size->observe(static_cast<double>(batch.size()));
    }
    ++batch_seq;
    ++rep.batches;
    rep.horizon_s = completion_t;
  }

  rep.plan_hits = cache.hits();
  rep.plan_misses = cache.misses();
  rep.plan_evictions = cache.evictions();
  if (obs != nullptr) {
    auto& m = obs->metrics();
    m.counter("serve.plan_cache.hits").inc(static_cast<double>(cache.hits()));
    m.counter("serve.plan_cache.misses")
        .inc(static_cast<double>(cache.misses()));
    m.counter("serve.plan_cache.evictions")
        .inc(static_cast<double>(cache.evictions()));
    m.gauge("serve.plan_cache.hit_rate").set(cache.hit_rate());
    for (std::size_t r = 0; r < kNumRoutes; ++r) {
      const Route route = static_cast<Route>(r);
      const std::string prefix = std::string("serve.slo.") + route_name(route);
      m.gauge(prefix + ".p99_s").set(rep.latency_quantile(route, 0.99));
      m.gauge(prefix + ".p50_s").set(rep.latency_quantile(route, 0.50));
    }
  }
  return rep;
}

}  // namespace zeiot::serve
