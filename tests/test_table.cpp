#include "common/table.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "common/error.hpp"

namespace zeiot {
namespace {

TEST(Table, RejectsEmptyHeader) {
  EXPECT_THROW(Table({}), Error);
}

TEST(Table, RejectsArityMismatch) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"1"}), Error);
  EXPECT_THROW(t.add_row({"1", "2", "3"}), Error);
}

TEST(Table, PrintsAlignedColumns) {
  Table t({"name", "value"});
  t.add_row({"x", "1"});
  t.add_row({"longer", "22"});
  std::ostringstream os;
  t.print(os);
  const std::string s = os.str();
  EXPECT_NE(s.find("| name"), std::string::npos);
  EXPECT_NE(s.find("| longer"), std::string::npos);
  // Header separator present.
  EXPECT_NE(s.find("|---"), std::string::npos);
}

TEST(Table, NumFormatting) {
  EXPECT_EQ(Table::num(3.14159, 2), "3.14");
  EXPECT_EQ(Table::num(2.0, 0), "2");
}

TEST(Table, PctFormatting) {
  EXPECT_EQ(Table::pct(0.5), "50.0%");
  EXPECT_EQ(Table::pct(0.918, 1), "91.8%");
}

TEST(Table, RowsCount) {
  Table t({"a"});
  EXPECT_EQ(t.rows(), 0u);
  t.add_row({"1"});
  EXPECT_EQ(t.rows(), 1u);
}

TEST(BarSeries, RendersBars) {
  std::ostringstream os;
  print_bar_series(os, "title", {1.0, 2.0, 4.0}, 8);
  const std::string s = os.str();
  EXPECT_NE(s.find("title"), std::string::npos);
  // The max value gets the full width of hashes.
  EXPECT_NE(s.find("########"), std::string::npos);
}

TEST(BarSeries, HandlesEmptyAndZero) {
  std::ostringstream os1;
  print_bar_series(os1, "t", {}, 8);
  EXPECT_NE(os1.str().find("(empty)"), std::string::npos);
  std::ostringstream os2;
  print_bar_series(os2, "t", {0.0, 0.0}, 8);
  EXPECT_NE(os2.str().find("0.0"), std::string::npos);
}

}  // namespace
}  // namespace zeiot
