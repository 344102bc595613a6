#include "common/stats.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace zeiot {

void RunningStats::add(double x) {
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
}

void RunningStats::merge(const RunningStats& other) {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const double delta = other.mean_ - mean_;
  const auto n = static_cast<double>(n_ + other.n_);
  m2_ += other.m2_ + delta * delta * static_cast<double>(n_) *
                         static_cast<double>(other.n_) / n;
  mean_ += delta * static_cast<double>(other.n_) / n;
  n_ += other.n_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double RunningStats::variance() const {
  if (n_ < 2) return 0.0;
  return m2_ / static_cast<double>(n_ - 1);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

Histogram::Histogram(double lo, double hi, std::size_t bins)
    : lo_(lo), hi_(hi), counts_(bins, 0) {
  ZEIOT_CHECK_MSG(hi > lo, "Histogram requires hi > lo");
  ZEIOT_CHECK_MSG(bins > 0, "Histogram requires at least one bin");
}

void Histogram::add(double x) {
  const double f = (x - lo_) / (hi_ - lo_);
  auto bin = static_cast<std::ptrdiff_t>(f * static_cast<double>(counts_.size()));
  bin = std::clamp<std::ptrdiff_t>(bin, 0,
                                   static_cast<std::ptrdiff_t>(counts_.size()) - 1);
  ++counts_[static_cast<std::size_t>(bin)];
  ++total_;
}

std::size_t Histogram::bin_count(std::size_t bin) const {
  ZEIOT_CHECK(bin < counts_.size());
  return counts_[bin];
}

double Histogram::bin_low(std::size_t bin) const {
  ZEIOT_CHECK(bin < counts_.size());
  return lo_ + (hi_ - lo_) * static_cast<double>(bin) /
                   static_cast<double>(counts_.size());
}

double Histogram::bin_high(std::size_t bin) const {
  return bin_low(bin) + (hi_ - lo_) / static_cast<double>(counts_.size());
}

double Histogram::quantile(double q) const {
  ZEIOT_CHECK_MSG(q >= 0.0 && q <= 1.0, "quantile q must be in [0,1]");
  if (total_ == 0) return lo_;
  // q = 0 is the infimum of the recorded mass: the low edge of the first
  // occupied bin (not lo_, which an empty leading bin would wrongly
  // report).
  if (q == 0.0) {
    for (std::size_t b = 0; b < counts_.size(); ++b) {
      if (counts_[b] > 0) return bin_low(b);
    }
    return lo_;  // unreachable: total_ > 0 implies an occupied bin
  }
  const double target = q * static_cast<double>(total_);
  double cum = 0.0;
  for (std::size_t b = 0; b < counts_.size(); ++b) {
    if (counts_[b] == 0) continue;  // empty bins can never hold the target
    const double next = cum + static_cast<double>(counts_[b]);
    if (next >= target) {
      // Mass inside a bin is assumed uniform, so the quantile interpolates
      // linearly between the bin edges; q = 1 lands exactly on the high
      // edge of the last occupied bin.
      const double frac = (target - cum) / static_cast<double>(counts_[b]);
      return bin_low(b) + frac * (bin_high(b) - bin_low(b));
    }
    cum = next;
  }
  return hi_;
}

double Histogram::percentile(double p) const {
  ZEIOT_CHECK_MSG(p >= 0.0 && p <= 100.0, "percentile p must be in [0,100]");
  return quantile(p / 100.0);
}

void Histogram::merge(const Histogram& other) {
  ZEIOT_CHECK_MSG(lo_ == other.lo_ && hi_ == other.hi_ &&
                      counts_.size() == other.counts_.size(),
                  "Histogram::merge requires identical bounds and bin count");
  for (std::size_t b = 0; b < counts_.size(); ++b) {
    counts_[b] += other.counts_[b];
  }
  total_ += other.total_;
}

double nearest_rank_quantile(std::vector<double> samples, double q) {
  ZEIOT_CHECK_MSG(q >= 0.0 && q <= 1.0,
                  "nearest_rank_quantile q must be in [0,1]");
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  const auto idx =
      static_cast<std::size_t>(std::llround(q * static_cast<double>(n - 1)));
  return samples[std::min(idx, n - 1)];
}

}  // namespace zeiot
