#include "phy/airtime.hpp"

namespace zeiot::phy {

namespace {

// IEEE 802.11 (OFDM, 20 MHz) timing.
constexpr double kDot11RateBps = 54e6;
constexpr double kDot11PreambleS = 20e-6;  // PLCP preamble + header
constexpr double kDot11SifsS = 16e-6;
constexpr double kDot11DifsS = 34e-6;
constexpr double kDot11AckS = 44e-6;  // ACK frame incl. preamble at basic rate

// IEEE 802.15.4 2.4 GHz O-QPSK timing; the preamble is 4 bytes + SFD at
// 62.5 ksym/s.
constexpr double kDot154RateBps = 250e3;
constexpr double kDot154PreambleS = 160e-6;

// Backscatter uplink timing; the sync header is sent while the carrier
// settles.
constexpr double kBackscatterRateBps = 250e3;
constexpr double kBackscatterSyncS = 50e-6;

double payload_time(std::size_t bytes, double rate_bps) {
  return static_cast<double>(bytes) * 8.0 / rate_bps;
}

}  // namespace

double dot11_frame_airtime_s(std::size_t payload_bytes) {
  return kDot11PreambleS + payload_time(payload_bytes, kDot11RateBps);
}

double dot11_exchange_airtime_s(std::size_t payload_bytes) {
  return kDot11DifsS + dot11_frame_airtime_s(payload_bytes) + kDot11SifsS +
         kDot11AckS;
}

double dot154_frame_airtime_s(std::size_t payload_bytes) {
  return kDot154PreambleS + payload_time(payload_bytes, kDot154RateBps);
}

double backscatter_frame_airtime_s(std::size_t payload_bytes) {
  return kBackscatterSyncS + payload_time(payload_bytes, kBackscatterRateBps);
}

}  // namespace zeiot::phy
