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

/// The AP's carrier: 20 dBm (100 mW).
inline constexpr double kApTxPowerDbm = 20.0;
/// Total self-interference suppression of the AP's SIC chain: 40 dB of
/// antenna isolation, 30 dB of analog and 40 dB of digital cancellation.
inline constexpr double kTotalSicDb = 40.0 + 30.0 + 40.0;
/// Residual self-interference power at the receiver input (dBm).
inline constexpr double kResidualSiDbm = kApTxPowerDbm - kTotalSicDb;

/// SINR (dB) of a backscatter uplink at the full-duplex AP: the tag at
/// `d_tag_m` reflects the AP's own carrier (monostatic dyadic channel),
/// competing against the residual self-interference plus thermal noise.
double backscatter_sinr_db(const radio::LogDistance& model, double d_tag_m,
                           double reflection_loss_db = 6.0);

/// Largest tag distance at which the uplink SINR stays at or above
/// `required_sinr_db` (binary search over [0.1, max_search_m]; returns 0
/// if even the closest range fails).
double backscatter_range_m(const radio::LogDistance& model,
                           double required_sinr_db,
                           double reflection_loss_db = 6.0,
                           double max_search_m = 100.0);

}  // namespace zeiot::phy
