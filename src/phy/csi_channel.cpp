#include "phy/csi_channel.hpp"

#include <cmath>

#include "common/error.hpp"
#include "common/units.hpp"

namespace zeiot::phy {

Cx& CsiMatrix::at(int k, int r, int t) {
  ZEIOT_CHECK(k >= 0 && k < subcarriers && r >= 0 && r < rx && t >= 0 && t < tx);
  return data[(static_cast<std::size_t>(k) * rx + r) * tx + t];
}

Cx CsiMatrix::at(int k, int r, int t) const {
  ZEIOT_CHECK(k >= 0 && k < subcarriers && r >= 0 && r < rx && t >= 0 && t < tx);
  return data[(static_cast<std::size_t>(k) * rx + r) * tx + t];
}

namespace {

/// Perpendicular distance from point p to segment a-b, used for LoS
/// blockage detection.
double seg_distance(Point2D a, Point2D b, Point2D p) {
  const double dx = b.x - a.x, dy = b.y - a.y;
  const double len2 = dx * dx + dy * dy;
  if (len2 == 0.0) return distance(a, p);
  double t = ((p.x - a.x) * dx + (p.y - a.y) * dy) / len2;
  t = t < 0.0 ? 0.0 : (t > 1.0 ? 1.0 : t);
  return distance({a.x + t * dx, a.y + t * dy}, p);
}

struct Ray {
  double length_m;
  double amplitude;
};

constexpr double kCarrierHz = 5.21e9;  // 802.11ac channel 42
constexpr double kSubcarrierSpacingHz = 312.5e3;
/// Reflection loss at walls (amplitude factor).
constexpr double kWallReflection = 0.35;
/// Extra attenuation (amplitude) when the body blocks the LoS corridor.
constexpr double kBodyBlockage = 0.55;

}  // namespace

CsiMatrix generate_csi(const CsiEnvironment& env, Point2D body,
                       double body_jitter_m, Rng& rng) {
  ZEIOT_CHECK_MSG(env.subcarriers > 0, "need subcarriers");
  ZEIOT_CHECK_MSG(body_jitter_m >= 0.0, "jitter must be >= 0");

  // Jittered body position for this snapshot.
  const Point2D b{body.x + rng.normal(0.0, body_jitter_m),
                  body.y + rng.normal(0.0, body_jitter_m)};

  CsiMatrix h;
  h.subcarriers = env.subcarriers;
  h.rx = kCsiClientAntennas;
  h.tx = kCsiApAntennas;
  h.data.assign(static_cast<std::size_t>(env.subcarriers) * h.rx * h.tx,
                Cx{0.0, 0.0});

  // Linear arrays along the y axis.
  auto ap_elem = [&](int t) {
    return Point2D{kCsiAp.x,
                   kCsiAp.y + (t - (kCsiApAntennas - 1) / 2.0) *
                                  env.antenna_spacing_m};
  };
  auto cl_elem = [&](int r) {
    return Point2D{kCsiClient.x,
                   kCsiClient.y + (r - (kCsiClientAntennas - 1) / 2.0) *
                                      env.antenna_spacing_m};
  };

  for (int r = 0; r < h.rx; ++r) {
    for (int t = 0; t < h.tx; ++t) {
      const Point2D pa = ap_elem(t);
      const Point2D pc = cl_elem(r);

      std::vector<Ray> rays;
      // LoS, attenuated when the body stands within 0.4 m of the path.
      {
        const double d = distance(pa, pc);
        double amp = 1.0 / std::max(0.5, d);
        if (seg_distance(pa, pc, b) < 0.4) amp *= kBodyBlockage;
        rays.push_back({d, amp});
      }
      // First-order wall reflections via image sources.
      const Point2D images[4] = {
          {2.0 * kCsiRoom.x0 - pa.x, pa.y},  // left wall
          {2.0 * kCsiRoom.x1 - pa.x, pa.y},  // right wall
          {pa.x, 2.0 * kCsiRoom.y0 - pa.y},  // bottom wall
          {pa.x, 2.0 * kCsiRoom.y1 - pa.y},  // top wall
      };
      for (const Point2D& img : images) {
        const double d = distance(img, pc);
        rays.push_back({d, kWallReflection / std::max(0.5, d)});
      }
      // Body scatter path: AP -> body -> client.
      {
        const double d = distance(pa, b) + distance(b, pc);
        rays.push_back({d, env.body_reflection / std::max(0.5, d)});
      }

      for (int k = 0; k < env.subcarriers; ++k) {
        const double f =
            kCarrierHz + (k - env.subcarriers / 2) * kSubcarrierSpacingHz;
        Cx acc{0.0, 0.0};
        for (const Ray& ray : rays) {
          const double tau = ray.length_m / kSpeedOfLight;
          const double phase = -2.0 * M_PI * f * tau;
          acc += ray.amplitude * Cx{std::cos(phase), std::sin(phase)};
        }
        // Additive measurement noise.
        acc += Cx{rng.normal(0.0, env.noise_sigma),
                  rng.normal(0.0, env.noise_sigma)};
        h.at(k, r, t) = acc;
      }
    }
  }
  return h;
}

}  // namespace zeiot::phy
