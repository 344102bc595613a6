// In-band full-duplex access point model (paper Sec. IV.A, Fig. 4 and
// refs [21][22]): the AP transmits the carrier and *simultaneously*
// receives the tag's backscatter on the same frequency.  What limits the
// uplink is the AP's own transmit signal leaking into its receiver; the
// self-interference cancellation (SIC) chain — antenna isolation, analog
// cancellation, digital cancellation — determines the residual
// interference floor and therefore the backscatter SINR and range.
#pragma once

#include "radio/link.hpp"

namespace zeiot::phy {

struct FullDuplexAp {
  double tx_power_dbm = 20.0;     // 100 mW carrier
  /// SIC chain, in dB of suppression.
  double antenna_isolation_db = 40.0;
  double analog_cancellation_db = 30.0;
  double digital_cancellation_db = 40.0;
  radio::RxSpec rx{};

  /// Total self-interference suppression.
  double total_sic_db() const;
  /// Residual self-interference power at the receiver input (dBm).
  double residual_si_dbm() const;
};

/// SINR (dB) of a backscatter uplink at a full-duplex AP: the tag at
/// `d_tag_m` reflects the AP's own carrier (monostatic dyadic channel),
/// competing against the residual self-interference plus thermal noise.
double backscatter_sinr_db(const FullDuplexAp& ap,
                           const radio::LogDistance& model, double d_tag_m,
                           double reflection_loss_db = 6.0);

/// Largest tag distance at which the uplink SINR stays at or above
/// `required_sinr_db` (binary search over [0.1, max_search_m]; returns 0
/// if even the closest range fails).
double backscatter_range_m(const FullDuplexAp& ap,
                           const radio::LogDistance& model,
                           double required_sinr_db,
                           double reflection_loss_db = 6.0,
                           double max_search_m = 100.0);

}  // namespace zeiot::phy
