#include "phy/full_duplex.hpp"

#include "common/error.hpp"
#include "common/units.hpp"

namespace zeiot::phy {

double backscatter_sinr_db(const radio::LogDistance& model, double d_tag_m,
                           double reflection_loss_db) {
  // Monostatic dyadic channel: the carrier travels AP -> tag -> AP.
  const auto uplink = radio::compute_backscatter_link(
      model, {kApTxPowerDbm, 0.0}, d_tag_m, d_tag_m, reflection_loss_db);
  const double noise_dbm = uplink.noise_dbm;
  return radio::sinr_db(uplink.rx_power_dbm, kResidualSiDbm, noise_dbm);
}

double backscatter_range_m(const radio::LogDistance& model,
                           double required_sinr_db,
                           double reflection_loss_db, double max_search_m) {
  ZEIOT_CHECK_MSG(max_search_m > 0.1, "search range too small");
  // SINR is monotone decreasing in distance: binary search the boundary.
  if (backscatter_sinr_db(model, 0.1, reflection_loss_db) < required_sinr_db) {
    return 0.0;
  }
  double lo = 0.1, hi = max_search_m;
  if (backscatter_sinr_db(model, hi, reflection_loss_db) >= required_sinr_db) {
    return hi;
  }
  for (int it = 0; it < 60; ++it) {
    const double mid = (lo + hi) / 2.0;
    if (backscatter_sinr_db(model, mid, reflection_loss_db) >=
        required_sinr_db) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return lo;
}

}  // namespace zeiot::phy
