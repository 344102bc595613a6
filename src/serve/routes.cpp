#include "serve/routes.hpp"

#include "common/error.hpp"
#include "fleet/templates.hpp"
#include "par/parallel.hpp"
#include "phy/csi_channel.hpp"
#include "sensing/csi/localization.hpp"

namespace zeiot::serve {

const char* route_name(Route r) {
  switch (r) {
    case Route::E1Temperature: return "e1_temperature";
    case Route::E2Fall: return "e2_fall";
    case Route::E3Congestion: return "e3_congestion";
    case Route::E4RoomCount: return "e4_room_count";
    case Route::E5Csi: return "e5_csi";
  }
  return "unknown";
}

namespace {

/// Base seed of all route-local randomness (pool draws, variants).
constexpr std::uint64_t kRouteSeed = 99;
// Substream keys of route-local randomness (arbitrary fixed tags; changing
// any is a behavior change for every server).
constexpr std::uint64_t kE1VariantKey = 0x5E10E101;
constexpr std::uint64_t kE2VariantKey = 0x5E10E102;
constexpr std::uint64_t kE3Key = 0x5E10E103;
constexpr std::uint64_t kE4Key = 0x5E10E104;
constexpr std::uint64_t kE5TrainKey = 0x5E10E105;
constexpr std::uint64_t kE5PoolKey = 0x5E10E106;
constexpr int kE5KnnK = 3;
/// E5: CSI frames captured per position for the train and request pools
/// (the pools use different capture seeds).
constexpr int kE5FramesPerPosition = 4;

/// Jittered deployments of one CNN route: structurally distinct topologies
/// over the same area/grid, pure functions of (kRouteSeed, key, variant
/// index).
std::vector<microdeep::WsnTopology> make_variants(Rect area, int cols,
                                                  int rows,
                                                  std::uint64_t key) {
  std::vector<microdeep::WsnTopology> vars;
  vars.reserve(kCnnVariants);
  const Rng base(kRouteSeed);
  for (std::size_t v = 0; v < kCnnVariants; ++v) {
    Rng rng = par::substream(base, key + v);
    vars.push_back(microdeep::WsnTopology::jittered_grid(area, cols, rows, rng));
  }
  return vars;
}

CnnRoute make_cnn_route(const fleet::InferenceTemplate& tmpl, Rect area,
                        int cols, int rows, std::uint64_t key) {
  return CnnRoute(tmpl.net.clone(), tmpl.shape, tmpl.data,
                  make_variants(area, cols, rows, key));
}

/// Packs one congestion level per car into a single label (base-3 digits,
/// car 0 least significant) so a multi-car estimate fits the scalar label
/// slot of a Response.
int pack_congestion(const std::vector<sensing::rssi::Congestion>& levels) {
  int packed = 0;
  int scale = 1;
  for (const auto level : levels) {
    packed += scale * static_cast<int>(level);
    scale *= 3;
  }
  return packed;
}

}  // namespace

RouteSet::RouteSet(const RouteSetConfig& c)
    : cfg(c),
      e1(make_cnn_route(*fleet::make_lounge_template(),
                        Rect{0.0, 0.0, 50.0, 34.0}, 10, 5, kE1VariantKey)),
      e2(make_cnn_route(*fleet::make_ir_array_template(),
                        Rect{0.0, 0.0, 5.0, 5.0}, 10, 10, kE2VariantKey)) {
  if (cfg.pool != nullptr) {
    e1.net.set_pool(cfg.pool);
    e2.net.set_pool(cfg.pool);
  }
  const Rng base(kRouteSeed);

  // E3: train the congestion likelihoods, then precompute the request
  // scenario pool with its (deterministic) position posteriors so the hot
  // path is pure estimation.
  {
    ZEIOT_CHECK_MSG(cfg.e3_scenarios >= 1, "E3 needs >= 1 scenario");
    Rng rng = par::substream(base, kE3Key);
    e3_estimator.train(cfg.e3_train_trips_per_level, rng);
    e3_scenarios.reserve(cfg.e3_scenarios);
    e3_positions.reserve(cfg.e3_scenarios);
    for (std::size_t s = 0; s < cfg.e3_scenarios; ++s) {
      std::vector<sensing::rssi::Congestion> levels;
      levels.reserve(static_cast<std::size_t>(sensing::rssi::kNumCars));
      for (int car = 0; car < sensing::rssi::kNumCars; ++car) {
        levels.push_back(
            static_cast<sensing::rssi::Congestion>(rng.uniform_int(0, 2)));
      }
      e3_scenarios.push_back(
          sensing::rssi::simulate_trip(levels, rng));
      e3_positions.push_back(
          sensing::rssi::estimate_positions(e3_scenarios.back()));
    }
  }

  // E4: train the count likelihoods, then precompute measurement rounds
  // cycling through every occupancy 0..kMaxPeople.
  {
    ZEIOT_CHECK_MSG(cfg.e4_measurements >= 1, "E4 needs >= 1 measurement");
    Rng rng = par::substream(base, kE4Key);
    e4_estimator.train(cfg.e4_train_rounds_per_count, rng);
    e4_measurements.reserve(cfg.e4_measurements);
    for (std::size_t m = 0; m < cfg.e4_measurements; ++m) {
      const int people =
          static_cast<int>(m) % (sensing::rssi::kMaxPeople + 1);
      e4_measurements.push_back(
          sensing::rssi::measure_room(people, rng));
    }
  }

  // E5: fit the standardized kNN on one capture set; a second capture with
  // a different seed becomes the request pool, pre-standardized so a
  // request costs one kNN query and no transform.
  {
    const phy::CsiEnvironment env;  // the default capture settings
    const sensing::csi::Pattern pattern{sensing::csi::Behavior::Static,
                                        sensing::csi::AntennaConfig::Divergent};
    sensing::csi::LocalizationConfig cap;
    cap.frames_per_position = kE5FramesPerPosition;
    cap.seed = par::substream(base, kE5TrainKey)();
    const auto train = sensing::csi::capture_localization_dataset(env, pattern, cap);
    e5_std.fit(train.x);
    e5_knn = ml::KnnClassifier(kE5KnnK);
    e5_knn.fit(e5_std.transform(train.x), train.y);
    cap.seed = par::substream(base, kE5PoolKey)();
    const auto pool = sensing::csi::capture_localization_dataset(env, pattern, cap);
    e5_pool = e5_std.transform(pool.x);
  }
}

std::size_t RouteSet::pool_size(Route r) const {
  switch (r) {
    case Route::E1Temperature: return e1.pool.size();
    case Route::E2Fall: return e2.pool.size();
    case Route::E3Congestion: return e3_scenarios.size();
    case Route::E4RoomCount: return e4_measurements.size();
    case Route::E5Csi: return e5_pool.size();
  }
  return 0;
}

std::size_t RouteSet::num_variants(Route r) const {
  return uses_plans(r) ? cnn(r).variants.size() : 1;
}

const CnnRoute& RouteSet::cnn(Route r) const {
  ZEIOT_CHECK_MSG(uses_plans(r), route_name(r) << " is not a CNN route");
  return r == Route::E1Temperature ? e1 : e2;
}

CnnRoute& RouteSet::cnn(Route r) {
  ZEIOT_CHECK_MSG(uses_plans(r), route_name(r) << " is not a CNN route");
  return r == Route::E1Temperature ? e1 : e2;
}

void RouteSet::set_pool(par::ThreadPool* pool) {
  cfg.pool = pool;
  e1.net.set_pool(pool);
  e2.net.set_pool(pool);
}

std::vector<int> RouteSet::execute(Route r,
                                   const std::vector<std::uint32_t>& samples) {
  std::vector<int> labels(samples.size());
  switch (r) {
    case Route::E1Temperature:
    case Route::E2Fall: {
      CnnRoute& route = cnn(r);
      std::vector<std::size_t> idx;
      idx.reserve(samples.size());
      for (const std::uint32_t s : samples) idx.push_back(s);
      const auto [x, y] = route.pool.batch(idx);
      const ml::Tensor out = route.net.forward(x, /*train=*/false);
      const auto n = static_cast<std::size_t>(samples.size());
      const auto classes = static_cast<std::size_t>(out.shape().back());
      const float* logits = out.data();
      for (std::size_t i = 0; i < n; ++i) {
        std::size_t best = 0;
        for (std::size_t c = 1; c < classes; ++c) {
          if (logits[i * classes + c] > logits[i * classes + best]) best = c;
        }
        labels[i] = static_cast<int>(best);
      }
      break;
    }
    case Route::E3Congestion: {
      for (std::size_t i = 0; i < samples.size(); ++i) {
        const std::size_t s = samples[i];
        labels[i] = pack_congestion(
            e3_estimator.estimate(e3_scenarios[s], e3_positions[s]));
      }
      break;
    }
    case Route::E4RoomCount: {
      for (std::size_t i = 0; i < samples.size(); ++i) {
        labels[i] = e4_estimator.estimate(e4_measurements[samples[i]]);
      }
      break;
    }
    case Route::E5Csi: {
      // Per-item fan-out into disjoint slots: worker-count independent.
      par::parallel_for(
          samples.size(),
          [&](std::size_t i) { labels[i] = e5_knn.predict(e5_pool[samples[i]]); },
          cfg.pool);
      break;
    }
  }
  return labels;
}

std::unique_ptr<RouteSet> make_routes(const RouteSetConfig& cfg) {
  return std::make_unique<RouteSet>(cfg);
}

}  // namespace zeiot::serve
