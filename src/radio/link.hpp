// Link budget computation: ties together propagation and receiver noise
// into per-link SNR/SINR and harvestable power.
//
// Backscatter links are the special case the paper cares about: the signal
// traverses source -> tag -> receiver with a reflection loss at the tag, so
// the budget multiplies two path losses (the "dyadic backscatter channel").
#pragma once

#include "radio/propagation.hpp"

namespace zeiot::radio {

/// Static description of a transmitter for budget purposes.
struct TxSpec {
  double power_dbm = 0.0;
  double antenna_gain_db = 0.0;
};

/// Static description of a receiver.
struct RxSpec {
  double antenna_gain_db = 0.0;
  double noise_figure_db = 6.0;
  double bandwidth_hz = 2e6;
};

/// Computed link budget.
struct LinkBudget {
  double rx_power_dbm = 0.0;
  double noise_dbm = 0.0;
  double snr_db = 0.0;
  double snr_linear = 0.0;
};

/// Backscatter (dyadic) budget: carrier source at distance `d_source_tag_m`
/// from the tag, receiver at `d_tag_rx_m`.  `reflection_loss_db` models the
/// tag's modulation efficiency (typically 5-10 dB when impedance switching).
LinkBudget compute_backscatter_link(const LogDistance& model,
                                    const TxSpec& source, const RxSpec& rx,
                                    double d_source_tag_m, double d_tag_rx_m,
                                    double reflection_loss_db = 6.0,
                                    double extra_loss_db = 0.0);

/// SINR in dB when an interferer of `interference_dbm` overlaps the signal.
double sinr_db(double signal_dbm, double interference_dbm, double noise_dbm);

/// RF power (watts) available for harvesting at distance `d_m` from `tx`
/// through `model`, scaled by rectifier efficiency in [0,1].
double harvestable_power_watt(const LogDistance& model, const TxSpec& tx,
                              double d_m, double rectifier_efficiency = 0.3);

}  // namespace zeiot::radio
