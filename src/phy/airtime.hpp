// Frame airtime models for the PHYs involved in the coexistence study
// (paper Sec. IV.A): IEEE 802.11 OFDM, IEEE 802.15.4 O-QPSK, and the
// backscatter uplink whose bit rate is far below both.  Each PHY's timing
// is a set of named constants in airtime.cpp.
#pragma once

#include <cstddef>

namespace zeiot::phy {

/// IEEE 802.11 (OFDM, 20 MHz, 54 Mb/s): airtime of a data frame of
/// `payload_bytes` (preamble + payload).
double dot11_frame_airtime_s(std::size_t payload_bytes);
/// IEEE 802.11 complete exchange: DIFS + data + SIFS + ACK.
double dot11_exchange_airtime_s(std::size_t payload_bytes);

/// IEEE 802.15.4 2.4 GHz O-QPSK (250 kb/s, 32-chip DSSS): preamble +
/// payload.
double dot154_frame_airtime_s(std::size_t payload_bytes);

/// Backscatter uplink: tags modulate at a low chip rate on top of an
/// ambient carrier.  250 kb/s effective — the middle of the paper's
/// regimes (kb/s RFID up to "several Mb/s" Wi-Fi backscatter) — so a small
/// sensor reading fits within one carrier packet.  Sync header + payload.
double backscatter_frame_airtime_s(std::size_t payload_bytes);

}  // namespace zeiot::phy
