#include "common/geometry.hpp"

#include <gtest/gtest.h>

namespace zeiot {
namespace {

TEST(Point2D, Arithmetic) {
  const Point2D a{1.0, 2.0}, b{3.0, -1.0};
  EXPECT_EQ((a + b), (Point2D{4.0, 1.0}));
  EXPECT_EQ((a - b), (Point2D{-2.0, 3.0}));
  EXPECT_EQ((a * 2.0), (Point2D{2.0, 4.0}));
}

TEST(Point2D, Distance) {
  EXPECT_DOUBLE_EQ(distance(Point2D{0.0, 0.0}, Point2D{3.0, 4.0}), 5.0);
  EXPECT_DOUBLE_EQ(distance(Point2D{1.0, 1.0}, Point2D{1.0, 1.0}), 0.0);
}

TEST(Point3D, DistanceAndArithmetic) {
  EXPECT_DOUBLE_EQ(distance(Point3D{0.0, 0.0, 0.0}, Point3D{1.0, 2.0, 2.0}),
                   3.0);
  const Point3D a{1.0, 2.0, 3.0};
  const Point3D b = a + a;
  EXPECT_DOUBLE_EQ(b.z, 6.0);
  const Point3D c = (b - a) * 2.0;
  EXPECT_DOUBLE_EQ(c.x, 2.0);
}

TEST(Rect, DimsAndContains) {
  const Rect r{0.0, 0.0, 10.0, 5.0};
  EXPECT_DOUBLE_EQ(r.width(), 10.0);
  EXPECT_DOUBLE_EQ(r.height(), 5.0);
  EXPECT_TRUE(r.contains({5.0, 2.5}));
  EXPECT_TRUE(r.contains({0.0, 0.0}));   // closed low edge
  EXPECT_FALSE(r.contains({10.0, 2.0})); // open high edge
  EXPECT_FALSE(r.contains({-1.0, 2.0}));
  EXPECT_EQ(r.center(), (Point2D{5.0, 2.5}));
}

}  // namespace
}  // namespace zeiot
