#include "common/table.hpp"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <sstream>

#include "common/error.hpp"

namespace zeiot {

Table::Table(std::vector<std::string> header) : header_(std::move(header)) {
  ZEIOT_CHECK_MSG(!header_.empty(), "Table requires a non-empty header");
}

void Table::add_row(std::vector<std::string> cells) {
  ZEIOT_CHECK_MSG(cells.size() == header_.size(),
                  "row arity " << cells.size() << " != header arity "
                               << header_.size());
  rows_.push_back(std::move(cells));
}

std::string Table::num(double v, int precision) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(precision) << v;
  return os.str();
}

std::string Table::pct(double fraction, int precision) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(precision) << fraction * 100.0 << "%";
  return os.str();
}

void Table::print(std::ostream& os) const {
  std::vector<std::size_t> widths(header_.size());
  for (std::size_t c = 0; c < header_.size(); ++c) widths[c] = header_[c].size();
  for (const auto& row : rows_)
    for (std::size_t c = 0; c < row.size(); ++c)
      widths[c] = std::max(widths[c], row[c].size());

  auto print_row = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      os << (c == 0 ? "| " : " | ") << std::left
         << std::setw(static_cast<int>(widths[c])) << row[c];
    }
    os << " |\n";
  };

  print_row(header_);
  os << '|';
  for (std::size_t c = 0; c < header_.size(); ++c) {
    os << std::string(widths[c] + 2, '-') << '|';
  }
  os << '\n';
  for (const auto& row : rows_) print_row(row);
}

void print_bar_series(std::ostream& os, const std::string& title,
                      const std::vector<double>& values, int width) {
  os << title << '\n';
  if (values.empty()) {
    os << "  (empty)\n";
    return;
  }
  const double vmax = *std::max_element(values.begin(), values.end());
  for (std::size_t i = 0; i < values.size(); ++i) {
    const int bar =
        vmax <= 0.0 ? 0
                    : static_cast<int>(std::lround(values[i] / vmax *
                                                   static_cast<double>(width)));
    os << "  " << std::setw(4) << i << " | " << std::string(
              static_cast<std::size_t>(bar), '#')
       << ' ' << Table::num(values[i], 1) << '\n';
  }
}

}  // namespace zeiot
