// The five serving routes: one per trained context-recognition pipeline
// of the paper's experiment suite.
//
//  * E1Temperature — the lounge temperature CNN (17x25 grid, 50-node
//    jittered-grid WSN); batched Network::forward over zeiot::par.
//  * E2Fall        — the IR-array fall-detection CNN (10x10x10 windows,
//    100-node grid WSN); batched Network::forward.
//  * E3Congestion  — railway-car congestion from Bluetooth RSSI
//    (Gaussian-NB likelihood voting over precomputed trip scenarios).
//  * E4RoomCount   — room people-count from 802.15.4 RSSI deviations
//    (Gaussian NB over precomputed measurement rounds).
//  * E5Csi         — device-free localization from beamforming feedback
//    (standardized kNN over captured CSI feature bursts).
//
// Construction follows the fleet-template pattern: everything immutable —
// trained estimators, CNN weights, unit graphs, topology variants, request
// sample pools — is built ONCE from fixed seeds and shared by every
// request.  The RouteSet is non-copyable and lives behind a unique_ptr so
// internal pointers (none today, but the unit graphs are bind targets for
// cached plans) keep stable addresses.
//
// The CNN routes carry topology VARIANTS: a request names which of the
// route's deployments it targets, and the server resolves that deployment's
// unit-assignment plan through the LRU PlanCache keyed by
// WsnTopology::digest().  Digests are precomputed here so the request hot
// path never re-hashes a topology.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "microdeep/unit_graph.hpp"
#include "microdeep/wsn.hpp"
#include "ml/dataset.hpp"
#include "ml/knn.hpp"
#include "ml/network.hpp"
#include "ml/standardize.hpp"
#include "sensing/rssi/room_count.hpp"
#include "sensing/rssi/train_car.hpp"

namespace zeiot::serve {

enum class Route : std::uint8_t {
  E1Temperature = 0,
  E2Fall = 1,
  E3Congestion = 2,
  E4RoomCount = 3,
  E5Csi = 4,
};

inline constexpr std::size_t kNumRoutes = 5;

/// Stable lowercase name used in metrics labels and reports.
const char* route_name(Route r);

struct RouteSetConfig {
  /// Topology variants per CNN route (distinct jittered deployments, each
  /// a distinct plan-cache key).
  std::size_t e1_variants = 3;
  std::size_t e2_variants = 3;
  /// E3: training trips per congestion level and precomputed request
  /// scenarios.
  int e3_train_trips_per_level = 12;
  std::size_t e3_scenarios = 24;
  /// E4: training rounds per people count and precomputed request rounds.
  int e4_train_rounds_per_count = 10;
  std::size_t e4_measurements = 48;
  /// E5: CSI frames captured per position for the train and request pools
  /// (>= 4 each; the pools use different capture seeds).
  int e5_frames_per_position = 4;
  /// Base seed of all route-local randomness (pool draws, variants).
  std::uint64_t seed = 99;
  /// Worker pool for batched CNN forwards (null = par::global_pool()).
  par::ThreadPool* pool = nullptr;
};

/// One CNN route's immutable context.
struct CnnRoute {
  CnnRoute(ml::Network n, std::vector<int> s, ml::Dataset p,
           std::vector<microdeep::WsnTopology> vars)
      : net(std::move(n)),
        shape(std::move(s)),
        graph(microdeep::UnitGraph::build(net, shape)),
        pool(std::move(p)),
        variants(std::move(vars)) {
    variant_digests.reserve(variants.size());
    for (const auto& w : variants) variant_digests.push_back(w.digest());
  }

  ml::Network net;  // fixed-seed feasible CNN (untrained: serving exercises
                    // the execution path, not the accuracy claims)
  std::vector<int> shape;
  microdeep::UnitGraph graph;
  ml::Dataset pool;  // request sample pool (fixed-seed datagen)
  std::vector<microdeep::WsnTopology> variants;
  std::vector<std::uint64_t> variant_digests;  // digest per variant
};

/// Immutable shared context of all five routes.
struct RouteSet {
  RouteSetConfig cfg;

  CnnRoute e1;
  CnnRoute e2;

  // E3: trained congestion estimator + precomputed trip scenarios with
  // their (deterministic) position posteriors.
  sensing::rssi::TrainConfig e3_cfg;
  sensing::rssi::CongestionEstimator e3_estimator;
  std::vector<sensing::rssi::TrainScenario> e3_scenarios;
  std::vector<std::vector<sensing::rssi::PositionEstimate>> e3_positions;

  // E4: trained count estimator + precomputed measurement rounds.
  sensing::rssi::RoomConfig e4_cfg;
  sensing::rssi::RoomCountEstimator e4_estimator;
  std::vector<sensing::rssi::RoomMeasurement> e4_measurements;

  // E5: standardized kNN over CSI captures + request feature pool.
  ml::Standardizer e5_std;
  ml::KnnClassifier e5_knn;
  ml::FeatureMatrix e5_pool;

  RouteSet(const RouteSetConfig& c);
  RouteSet(const RouteSet&) = delete;
  RouteSet& operator=(const RouteSet&) = delete;

  /// Number of request-pool samples of a route (valid `Request::sample`
  /// values are [0, size)).
  std::size_t pool_size(Route r) const;
  /// Topology variants of a route (1 for non-CNN routes: they have a
  /// single implicit deployment and no plan).
  std::size_t num_variants(Route r) const;
  /// True for routes whose dispatch resolves a unit-assignment plan.
  bool uses_plans(Route r) const {
    return r == Route::E1Temperature || r == Route::E2Fall;
  }
  const CnnRoute& cnn(Route r) const;
  CnnRoute& cnn(Route r);

  /// Rebinds the worker pool used by batched execution (null =
  /// par::global_pool()).  Results are worker-count independent, so this
  /// never changes labels — the thread-identity conformance tests flip it
  /// between runs to prove exactly that.
  void set_pool(par::ThreadPool* pool);

  /// Executes one batch of same-route requests (sample indices into the
  /// route's pool) and returns one label per request, in order:
  /// CNN argmax class (E1/E2), packed per-car congestion levels (E3),
  /// estimated people count (E4), predicted position (E5).  Batched
  /// Network::forward runs over the configured pool; E5 items fan out via
  /// par::parallel_for into per-item slots.  Deterministic at any worker
  /// count.
  std::vector<int> execute(Route r, const std::vector<std::uint32_t>& samples);
};

/// Builds the full route set from fixed seeds (expensive: trains the NB /
/// kNN estimators and synthesizes every request pool).
std::unique_ptr<RouteSet> make_routes(const RouteSetConfig& cfg = {});

}  // namespace zeiot::serve
