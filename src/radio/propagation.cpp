#include "radio/propagation.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace zeiot::radio {

namespace {
constexpr double kMinDistanceM = 0.1;
}

LogDistance::LogDistance(double loss_at_ref_db, double exponent,
                         double ref_dist_m)
    : loss_at_ref_db_(loss_at_ref_db),
      exponent_(exponent),
      ref_dist_m_(ref_dist_m) {
  ZEIOT_CHECK_MSG(exponent > 0.0, "LogDistance requires exponent > 0");
  ZEIOT_CHECK_MSG(ref_dist_m > 0.0, "LogDistance requires ref_dist > 0");
}

double LogDistance::loss_db(double d_m) const {
  const double d = std::max(d_m, kMinDistanceM);
  return loss_at_ref_db_ + 10.0 * exponent_ * std::log10(d / ref_dist_m_);
}

}  // namespace zeiot::radio
