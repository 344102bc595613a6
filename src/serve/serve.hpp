// zeiot::serve — the context-recognition serving front-end.
//
// Wraps the five trained pipelines (routes.hpp) behind a request API with
// the three mechanisms every production inference tier needs:
//
//  * a deterministic router/batcher — a single-server discrete-event loop
//    on the VIRTUAL arrival clock that coalesces queued same-route (and,
//    for CNN routes, same-deployment) requests into one batched
//    Network::forward over zeiot::par.  Admission happens strictly in
//    arrival order; a batch dispatches the moment the engine is free, from
//    the route whose head-of-line request has waited longest (ties broken
//    by route index).  Latency is virtual completion minus arrival under a
//    fixed service-time model, so queueing results never depend on wall
//    clocks, machine speed, or ZEIOT_THREADS — only real *labels* come
//    from real compute, which is itself worker-count independent;
//  * per-deployment planning — the first CNN dispatch against a topology
//    variant runs the real assignment search and charges a virtual
//    plan-build penalty, as the paper plans a deployment once (Sec. IV.C);
//    every later dispatch against that variant reuses the plan;
//  * admission control — a token bucket polices the offered rate (typed
//    Shed) and a bounded queue applies backpressure (typed Rejected),
//    with the invariant served + shed + rejected == offered.
//
// Observability: serve.* counters, per-route latency histograms and SLO
// gauges via zeiot::obs, plus — when spans are enabled — one ServeRequest
// root per served request tiled exactly by its ServeQueue + ServeService
// children (the netexec phase-tiling convention).  ServeReport::digest()
// is the bit-identity handle the conformance tests pin across thread
// counts and reruns.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "microdeep/search.hpp"
#include "obs/obs.hpp"
#include "serve/admission.hpp"
#include "serve/routes.hpp"

namespace zeiot::serve {

/// One request against a route's deployment.  `id` is the dense arrival
/// index (requests arrive in id order, arrival_s non-decreasing).
struct Request {
  std::uint64_t id = 0;
  Route route = Route::E4RoomCount;
  double arrival_s = 0.0;
  /// Index into the route's request pool ([0, pool_size(route))).
  std::uint32_t sample = 0;
  /// CNN routes: which topology variant (deployment) this request targets
  /// ([0, num_variants(route))); ignored elsewhere.
  std::uint32_t variant = 0;
};

enum class Outcome : std::uint8_t {
  Served = 0,    // admitted, batched, executed
  Shed = 1,      // token bucket empty at arrival (rate policing)
  Rejected = 2,  // queue at capacity at arrival (backpressure)
};

struct Response {
  std::uint64_t id = 0;
  Route route = Route::E4RoomCount;
  Outcome outcome = Outcome::Shed;
  /// Route-specific result (Served only): CNN argmax class, packed
  /// congestion levels, people count, or predicted position.
  int label = -1;
  /// Virtual completion - arrival (0 for Shed/Rejected).
  double latency_s = 0.0;
  /// Dispatch sequence number of the serving batch (Served only).
  std::uint32_t batch_seq = 0;
  /// CNN routes: whether the deployment was already planned at this
  /// request's dispatch.
  bool plan_hit = false;
};

/// Virtual service-time model of a batched execution, the same on every
/// route: a batch of at most kMaxBatch requests takes
/// service_s = kBatchOverheadS + batch_size * kPerItemS
///           (+ a plan-build penalty on the first dispatch of a deployment).
inline constexpr std::size_t kMaxBatch = 32;
inline constexpr double kBatchOverheadS = 2e-5;
inline constexpr double kPerItemS = 2e-6;

struct ServeConfig {
  /// Token-bucket admission: sustained rate and burst depth.
  double admission_rate_per_s = 150000.0;
  double admission_burst = 512.0;
  /// Bound on requests queued (all routes together).
  std::size_t queue_capacity = 4096;
  /// Assignment search run on the first dispatch of each deployment.  Kept
  /// small by default: it runs once per variant, but it is not cheap.
  microdeep::AssignmentSearchOptions search = make_default_search();
  obs::Observability* obs = nullptr;

  static microdeep::AssignmentSearchOptions make_default_search() {
    microdeep::AssignmentSearchOptions s;
    s.random_restarts = 2;
    return s;
  }
};

struct ServeReport {
  /// One response per request, in id (arrival) order.
  std::vector<Response> responses;
  std::uint64_t offered = 0;
  std::uint64_t served = 0;
  std::uint64_t shed = 0;
  std::uint64_t rejected = 0;
  std::uint64_t batches = 0;
  /// CNN dispatches against an already planned deployment, and first
  /// dispatches that planned one.
  std::uint64_t plan_hits = 0;
  std::uint64_t plan_misses = 0;
  /// Peak queue depth observed (never exceeds queue_capacity).
  std::size_t peak_queue_depth = 0;
  /// Virtual completion time of the last batch.
  double horizon_s = 0.0;

  /// FNV-1a digest over every response field in id order — the
  /// determinism handle: bit-identical across reruns and thread counts.
  std::uint64_t digest() const;

  /// Nearest-rank virtual-latency quantile of a route's served requests
  /// (0 when the route served nothing).
  double latency_quantile(Route r, double q) const;
};

/// The serving front-end.  Holds the (expensive, immutable) RouteSet by
/// pointer — build it once with make_routes() and reuse it across servers
/// and runs; `run()` only mutates transient per-call state, so repeated
/// runs over the same workload are bit-identical.
class Server {
 public:
  /// `routes` must outlive the server.
  Server(RouteSet* routes, ServeConfig cfg);

  /// Serves one open-loop workload: `arrivals` sorted by (arrival_s, id)
  /// with dense ids 0..n-1.  Deterministic: same arrivals + config =>
  /// same report digest at any ZEIOT_THREADS.
  ServeReport run(const std::vector<Request>& arrivals);

  const ServeConfig& config() const { return cfg_; }

 private:
  RouteSet* routes_;
  ServeConfig cfg_;
};

}  // namespace zeiot::serve
