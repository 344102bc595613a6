#include <gtest/gtest.h>

#include "mac/channel.hpp"

namespace zeiot::mac {
namespace {

TEST(Channel, LogsTransmissions) {
  Channel ch;
  ch.add(0.0, 1.0, 1, Medium::Wlan);
  ch.add(2.0, 0.5, 2, Medium::Dummy);
  ASSERT_EQ(ch.log().size(), 2u);
  EXPECT_EQ(ch.log()[0].kind, Medium::Wlan);
  EXPECT_DOUBLE_EQ(ch.log()[1].end, 2.5);
}

TEST(Channel, RejectsOutOfOrder) {
  Channel ch;
  ch.add(5.0, 1.0, 1, Medium::Wlan);
  EXPECT_THROW(ch.add(4.0, 1.0, 2, Medium::Wlan), Error);
}

TEST(Channel, UtilizationMergesOverlaps) {
  Channel ch;
  ch.add(0.0, 2.0, 1, Medium::Wlan);
  ch.add(1.0, 2.0, 2, Medium::Backscatter);  // overlaps 1s
  EXPECT_NEAR(ch.utilization(10.0), 0.3, 1e-9);
}

TEST(Channel, UtilizationEmptyIsZero) {
  Channel ch;
  EXPECT_DOUBLE_EQ(ch.utilization(5.0), 0.0);
  EXPECT_THROW(ch.utilization(0.0), Error);
}

}  // namespace
}  // namespace zeiot::mac
