// Planar and 3-D geometry primitives for node deployments and tag arrays.
#pragma once

#include <cmath>

namespace zeiot {

/// A point (or vector) in the 2-D deployment plane, metres.
struct Point2D {
  double x = 0.0;
  double y = 0.0;

  friend Point2D operator+(Point2D a, Point2D b) {
    return {a.x + b.x, a.y + b.y};
  }
  friend Point2D operator-(Point2D a, Point2D b) {
    return {a.x - b.x, a.y - b.y};
  }
  friend Point2D operator*(Point2D a, double s) { return {a.x * s, a.y * s}; }
  friend bool operator==(Point2D a, Point2D b) {
    return a.x == b.x && a.y == b.y;
  }
};

/// Euclidean distance between two points.
inline double distance(Point2D a, Point2D b) {
  return std::hypot(a.x - b.x, a.y - b.y);
}

/// A point in 3-D space, metres (used by the RFID tag-array models where
/// height matters).
struct Point3D {
  double x = 0.0;
  double y = 0.0;
  double z = 0.0;

  friend Point3D operator+(Point3D a, Point3D b) {
    return {a.x + b.x, a.y + b.y, a.z + b.z};
  }
  friend Point3D operator-(Point3D a, Point3D b) {
    return {a.x - b.x, a.y - b.y, a.z - b.z};
  }
  friend Point3D operator*(Point3D a, double s) {
    return {a.x * s, a.y * s, a.z * s};
  }
};

/// Euclidean distance between two 3-D points.
inline double distance(Point3D a, Point3D b) {
  const double dx = a.x - b.x, dy = a.y - b.y, dz = a.z - b.z;
  return std::sqrt(dx * dx + dy * dy + dz * dz);
}

/// Axis-aligned rectangle [x0,x1) x [y0,y1).
struct Rect {
  double x0 = 0.0;
  double y0 = 0.0;
  double x1 = 0.0;
  double y1 = 0.0;

  double width() const { return x1 - x0; }
  double height() const { return y1 - y0; }
  bool contains(Point2D p) const {
    return p.x >= x0 && p.x < x1 && p.y >= y0 && p.y < y1;
  }
  Point2D center() const { return {(x0 + x1) / 2.0, (y0 + y1) / 2.0}; }
};

}  // namespace zeiot
