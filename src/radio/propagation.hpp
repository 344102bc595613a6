// Large-scale radio propagation.
//
// The link budgets in this library (backscatter uplink, RF harvesting,
// carrier coverage, full-duplex range) compute received power as
//   Prx[dBm] = Ptx[dBm] + Gtx[dB] + Grx[dB] - PL(d)[dB]
// with PL the deterministic log-distance model below.
#pragma once

namespace zeiot::radio {

/// Log-distance model: PL(d) = PL(d0) + 10 n log10(d/d0).
/// Typical indoor 2.4 GHz: n in [2.5, 4], PL(1m) ~ 40 dB.
class LogDistance {
 public:
  LogDistance(double loss_at_ref_db, double exponent, double ref_dist_m = 1.0);
  /// Path loss in dB; d_m is clamped to >= 0.1 m internally.
  double loss_db(double d_m) const;

 private:
  double loss_at_ref_db_;
  double exponent_;
  double ref_dist_m_;
};

}  // namespace zeiot::radio
