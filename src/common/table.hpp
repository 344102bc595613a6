// Console table output used by the bench harnesses to print the
// rows/series that mirror the paper's tables and figures.
#pragma once

#include <ostream>
#include <string>
#include <vector>

namespace zeiot {

/// Accumulates rows of string cells and renders an aligned ASCII table.
class Table {
 public:
  explicit Table(std::vector<std::string> header);

  /// Appends a row; must have the same arity as the header.
  void add_row(std::vector<std::string> cells);

  /// Convenience: formats doubles with the given precision.
  static std::string num(double v, int precision = 3);
  static std::string pct(double fraction, int precision = 1);

  std::size_t rows() const { return rows_.size(); }

  /// Renders with column alignment and a header rule.
  void print(std::ostream& os) const;

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

/// Prints a per-index bar chart (used for Fig.-10-style per-node series).
void print_bar_series(std::ostream& os, const std::string& title,
                      const std::vector<double>& values, int width = 50);

}  // namespace zeiot
