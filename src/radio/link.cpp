#include "radio/link.hpp"

#include <cmath>

#include "common/error.hpp"
#include "common/units.hpp"

namespace zeiot::radio {

namespace {

LinkBudget finish(double rx_power_dbm, const RxSpec& rx) {
  LinkBudget b;
  b.rx_power_dbm = rx_power_dbm;
  b.noise_dbm =
      watt_to_dbm(thermal_noise_watt(rx.bandwidth_hz)) + rx.noise_figure_db;
  b.snr_db = b.rx_power_dbm - b.noise_dbm;
  b.snr_linear = db_to_ratio(b.snr_db);
  return b;
}

}  // namespace

LinkBudget compute_backscatter_link(const LogDistance& model,
                                    const TxSpec& source, const RxSpec& rx,
                                    double d_source_tag_m, double d_tag_rx_m,
                                    double reflection_loss_db,
                                    double extra_loss_db) {
  ZEIOT_CHECK_MSG(reflection_loss_db >= 0.0, "reflection loss must be >= 0");
  const double prx = source.power_dbm + source.antenna_gain_db +
                     rx.antenna_gain_db - model.loss_db(d_source_tag_m) -
                     reflection_loss_db - model.loss_db(d_tag_rx_m) -
                     extra_loss_db;
  return finish(prx, rx);
}

double sinr_db(double signal_dbm, double interference_dbm, double noise_dbm) {
  const double denom_w = dbm_to_watt(interference_dbm) + dbm_to_watt(noise_dbm);
  return watt_to_dbm(dbm_to_watt(signal_dbm)) - watt_to_dbm(denom_w);
}

double harvestable_power_watt(const LogDistance& model, const TxSpec& tx,
                              double d_m, double rectifier_efficiency) {
  ZEIOT_CHECK_MSG(rectifier_efficiency >= 0.0 && rectifier_efficiency <= 1.0,
                  "rectifier efficiency in [0,1]");
  const double prx_dbm =
      tx.power_dbm + tx.antenna_gain_db - model.loss_db(d_m);
  return dbm_to_watt(prx_dbm) * rectifier_efficiency;
}

}  // namespace zeiot::radio
