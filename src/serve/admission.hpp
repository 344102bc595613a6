// Admission control for the serving front-end: a token bucket on the
// virtual arrival clock.
//
// The bucket polices the long-run request rate while absorbing bursts up
// to its depth — the standard shape for an open-loop service that must
// shed load gracefully instead of letting queues grow without bound.
// Refill happens lazily at each take() from the elapsed virtual time, so
// the bucket is a pure function of the (deterministic) arrival timestamp
// sequence: same workload, same shed decisions, bit for bit, at any
// ZEIOT_THREADS.  No wall clock is ever consulted.
#pragma once

#include <algorithm>

namespace zeiot::serve {

class TokenBucket {
 public:
  /// `rate_per_s` tokens accrue per virtual second up to `burst` (the
  /// bucket starts full).  A non-positive rate never admits; a huge rate
  /// effectively disables policing.
  TokenBucket(double rate_per_s, double burst)
      : rate_(rate_per_s), burst_(burst), tokens_(burst) {}

  /// Takes one token at virtual time `t` (monotone non-decreasing across
  /// calls).  Returns false — shed — when the bucket is empty.
  bool try_take(double t) {
    tokens_ = std::min(burst_, tokens_ + (t - last_t_) * rate_);
    last_t_ = t;
    if (tokens_ >= 1.0) {
      tokens_ -= 1.0;
      return true;
    }
    return false;
  }

 private:
  double rate_;
  double burst_;
  double tokens_;
  double last_t_ = 0.0;
};

}  // namespace zeiot::serve
