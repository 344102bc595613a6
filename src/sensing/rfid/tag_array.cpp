#include "sensing/rfid/tag_array.hpp"

#include <cmath>

#include "common/units.hpp"

namespace zeiot::sensing::rfid {

namespace {

// Reader antennas (>= 4 for a stable 3-D fix).
const std::vector<Point3D> kAntennas{
    {0.0, 0.0, 2.5}, {4.0, 0.0, 2.5}, {0.0, 4.0, 2.5}, {4.0, 4.0, 2.5}};
constexpr double kCarrierHz = 920e6;  // UHF RFID
// RSSI-derived coarse range error (metres std dev) — sets the
// disambiguation bin for the phase refinement.
constexpr double kCoarseRangeSigmaM = 0.12;
// Phase measurement noise (radians std dev).
constexpr double kPhaseNoiseRad = 0.1;
// Subject placement jitter inside the cell.
constexpr Rect kFloor{0.5, 0.5, 3.5, 3.5};

}  // namespace

std::string posture_name(Posture p) {
  switch (p) {
    case Posture::Standing: return "standing";
    case Posture::Sitting: return "sitting";
    case Posture::Lying: return "lying";
    case Posture::Bending: return "bending";
  }
  return "?";
}

std::vector<Point3D> tag_positions(Posture p, Point2D base, double scale,
                                   Rng& rng) {
  ZEIOT_CHECK_MSG(scale > 0.5 && scale < 3.0, "implausible body scale");
  // Joint offsets (dx, dy, z) relative to the subject's floor position,
  // in metres for scale = 1.7.
  struct Offset {
    double dx, dy, z;
  };
  // Standing: vertical stack.
  static const Offset kStanding[kNumJoints] = {
      {0.00, 0.00, 1.65},  // head
      {0.00, 0.00, 1.35},  // chest
      {-0.25, 0.00, 0.95}, // left wrist
      {0.25, 0.00, 0.95},  // right wrist
      {0.00, 0.00, 0.95},  // hip
      {-0.12, 0.00, 0.50}, // left knee
      {0.12, 0.00, 0.50},  // right knee
      {-0.12, 0.00, 0.08}, // left ankle
  };
  // Sitting: hip low, knees forward.
  static const Offset kSitting[kNumJoints] = {
      {0.00, 0.00, 1.15},  {0.00, 0.00, 0.90},  {-0.25, 0.15, 0.60},
      {0.25, 0.15, 0.60},  {0.00, 0.00, 0.45},  {-0.12, 0.30, 0.45},
      {0.12, 0.30, 0.45},  {-0.12, 0.35, 0.08},
  };
  // Lying: everything near the floor, extended along y.
  static const Offset kLying[kNumJoints] = {
      {0.00, 0.75, 0.15},  {0.00, 0.45, 0.15},  {-0.25, 0.30, 0.15},
      {0.25, 0.30, 0.15},  {0.00, 0.00, 0.15},  {-0.12, -0.40, 0.12},
      {0.12, -0.40, 0.12}, {-0.12, -0.80, 0.10},
  };
  // Bending: torso folded forward, legs upright.
  static const Offset kBending[kNumJoints] = {
      {0.00, 0.45, 0.95},  {0.00, 0.30, 1.05},  {-0.25, 0.50, 0.70},
      {0.25, 0.50, 0.70},  {0.00, 0.00, 0.95},  {-0.12, 0.00, 0.50},
      {0.12, 0.00, 0.50},  {-0.12, 0.00, 0.08},
  };
  const Offset* table = kStanding;
  switch (p) {
    case Posture::Standing: table = kStanding; break;
    case Posture::Sitting: table = kSitting; break;
    case Posture::Lying: table = kLying; break;
    case Posture::Bending: table = kBending; break;
  }
  const double s = scale / 1.7;
  std::vector<Point3D> out;
  out.reserve(kNumJoints);
  for (int j = 0; j < kNumJoints; ++j) {
    const Offset& o = table[j];
    // Small articulation noise: people never hold a pose exactly.
    out.push_back({base.x + o.dx * s + rng.normal(0.0, 0.02),
                   base.y + o.dy * s + rng.normal(0.0, 0.02),
                   o.z * s + rng.normal(0.0, 0.02)});
  }
  return out;
}

double TagReading::coarse(int a, int j) const {
  ZEIOT_CHECK(a >= 0 && a < antennas && j >= 0 && j < joints);
  return coarse_range_m[static_cast<std::size_t>(a * joints + j)];
}

double TagReading::phase(int a, int j) const {
  ZEIOT_CHECK(a >= 0 && a < antennas && j >= 0 && j < joints);
  return phase_rad[static_cast<std::size_t>(a * joints + j)];
}

TagReading read_tags(Posture p, Rng& rng) {
  const Point2D base{rng.uniform(kFloor.x0, kFloor.x1),
                     rng.uniform(kFloor.y0, kFloor.y1)};
  const double scale = rng.uniform(1.55, 1.85);
  const auto tags = tag_positions(p, base, scale, rng);

  TagReading r;
  r.antennas = static_cast<int>(kAntennas.size());
  r.joints = kNumJoints;
  const double lambda = wavelength_m(kCarrierHz);
  for (const Point3D& ant : kAntennas) {
    for (const Point3D& tag : tags) {
      const double d = distance(ant, tag);
      r.coarse_range_m.push_back(
          std::max(0.05, d + rng.normal(0.0, kCoarseRangeSigmaM)));
      // Backscatter phase: round trip of 2d, i.e. 4*pi*d/lambda, wrapped.
      double ph = std::fmod(4.0 * M_PI * d / lambda +
                                rng.normal(0.0, kPhaseNoiseRad),
                            2.0 * M_PI);
      if (ph < 0.0) ph += 2.0 * M_PI;
      r.phase_rad.push_back(ph);
    }
  }
  return r;
}

double refine_range(double coarse_m, double phase_rad, double carrier_hz) {
  ZEIOT_CHECK_MSG(coarse_m > 0.0, "coarse range must be > 0");
  const double lambda = wavelength_m(carrier_hz);
  // Ranges consistent with the phase repeat every lambda/2; pick the one
  // nearest the coarse estimate.
  const double base = phase_rad * lambda / (4.0 * M_PI);
  const double step = lambda / 2.0;
  const double k = std::round((coarse_m - base) / step);
  return base + k * step;
}

Point3D trilaterate(const std::vector<Point3D>& antennas,
                    const std::vector<double>& ranges) {
  ZEIOT_CHECK_MSG(antennas.size() >= 4 && antennas.size() == ranges.size(),
                  "need >= 4 (antenna, range) pairs");
  // Gauss-Newton on sum (|x - a_i| - r_i)^2, seeded at the centroid.
  Point3D x{0.0, 0.0, 0.0};
  for (const Point3D& a : antennas) x = x + a;
  x = x * (1.0 / static_cast<double>(antennas.size()));
  x.z = std::max(0.2, x.z - 1.5);  // tags live below ceiling antennas

  for (int iter = 0; iter < 50; ++iter) {
    double gx = 0.0, gy = 0.0, gz = 0.0;
    for (std::size_t i = 0; i < antennas.size(); ++i) {
      const Point3D d = x - antennas[i];
      const double dist = std::max(1e-6, std::sqrt(d.x * d.x + d.y * d.y +
                                                   d.z * d.z));
      const double err = dist - ranges[i];
      gx += err * d.x / dist;
      gy += err * d.y / dist;
      gz += err * d.z / dist;
    }
    const double step = 0.5 / static_cast<double>(antennas.size());
    x.x -= step * gx;
    x.y -= step * gy;
    x.z -= step * gz;
  }
  return x;
}

std::vector<Point3D> reconstruct_skeleton(const TagReading& reading) {
  ZEIOT_CHECK_MSG(reading.antennas == static_cast<int>(kAntennas.size()),
                  "reading antenna count mismatch");
  std::vector<Point3D> joints;
  joints.reserve(static_cast<std::size_t>(reading.joints));
  std::vector<double> ranges(kAntennas.size());
  for (int j = 0; j < reading.joints; ++j) {
    for (int a = 0; a < reading.antennas; ++a) {
      ranges[static_cast<std::size_t>(a)] = refine_range(
          reading.coarse(a, j), reading.phase(a, j), kCarrierHz);
    }
    joints.push_back(trilaterate(kAntennas, ranges));
  }
  return joints;
}

std::vector<double> skeleton_features(const std::vector<Point3D>& joints) {
  ZEIOT_CHECK_MSG(static_cast<int>(joints.size()) == kNumJoints,
                  "expected " << kNumJoints << " joints");
  const Point3D& head = joints[static_cast<int>(Joint::Head)];
  const Point3D& hip = joints[static_cast<int>(Joint::Hip)];
  const Point3D& knee_l = joints[static_cast<int>(Joint::LeftKnee)];
  const Point3D& ankle = joints[static_cast<int>(Joint::LeftAnkle)];

  double zmax = joints.front().z, zmin = joints.front().z;
  for (const Point3D& j : joints) {
    zmax = std::max(zmax, j.z);
    zmin = std::min(zmin, j.z);
  }
  // Torso verticality: z-fraction of the head-hip segment length.
  const double torso_len = std::max(1e-6, distance(head, hip));
  const double torso_vertical = (head.z - hip.z) / torso_len;
  // Horizontal body extent relative to vertical extent.
  double xy_extent = 0.0;
  for (const Point3D& a : joints) {
    for (const Point3D& b : joints) {
      const double dxy = std::hypot(a.x - b.x, a.y - b.y);
      xy_extent = std::max(xy_extent, dxy);
    }
  }
  const double vertical_extent = std::max(1e-6, zmax - zmin);
  // Hip height and knee angle proxy (hip-knee-ankle straightness).
  const double thigh = distance(hip, knee_l);
  const double shin = distance(knee_l, ankle);
  const double hip_ankle = distance(hip, ankle);
  const double leg_straightness = hip_ankle / std::max(1e-6, thigh + shin);

  return {torso_vertical,        vertical_extent,
          xy_extent / vertical_extent, hip.z,
          head.z,                leg_straightness};
}

void PostureRecognizer::train(int samples_per_posture, Rng& rng) {
  ZEIOT_CHECK_MSG(samples_per_posture > 0, "need training samples");
  ml::FeatureMatrix x;
  ml::LabelVector y;
  for (int p = 0; p < kNumPostures; ++p) {
    for (int s = 0; s < samples_per_posture; ++s) {
      const auto reading = read_tags(static_cast<Posture>(p), rng);
      x.push_back(skeleton_features(reconstruct_skeleton(reading)));
      y.push_back(p);
    }
  }
  nb_.fit(x, y);
  trained_ = true;
}

Posture PostureRecognizer::classify(const TagReading& reading) const {
  ZEIOT_CHECK_MSG(trained_, "PostureRecognizer::train first");
  const auto f = skeleton_features(reconstruct_skeleton(reading));
  return static_cast<Posture>(nb_.predict(f));
}

ConfusionMatrix PostureRecognizer::evaluate(int samples_per_posture,
                                            Rng& rng) const {
  ZEIOT_CHECK_MSG(trained_, "PostureRecognizer::train first");
  ConfusionMatrix cm(kNumPostures);
  for (int p = 0; p < kNumPostures; ++p) {
    for (int s = 0; s < samples_per_posture; ++s) {
      const auto reading = read_tags(static_cast<Posture>(p), rng);
      cm.add(static_cast<std::size_t>(p),
             static_cast<std::size_t>(classify(reading)));
    }
  }
  return cm;
}

}  // namespace zeiot::sensing::rfid
