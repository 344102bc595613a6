// Streaming statistics used throughout the simulators and benches.
#pragma once

#include <cstddef>
#include <limits>
#include <string>
#include <vector>

namespace zeiot {

/// Welford's online mean/variance with min/max tracking.
class RunningStats {
 public:
  void add(double x);
  /// Merges another accumulator into this one (parallel-combinable).
  void merge(const RunningStats& other);

  std::size_t count() const { return n_; }
  bool empty() const { return n_ == 0; }
  /// Mean of the observed samples (0 if empty).
  double mean() const { return mean_; }
  /// Unbiased sample variance (0 if fewer than two samples).
  double variance() const;
  /// Sample standard deviation.
  double stddev() const;
  double min() const { return min_; }
  double max() const { return max_; }
  double sum() const { return mean_ * static_cast<double>(n_); }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Fixed-bin histogram over [lo, hi); out-of-range samples clamp to the
/// first/last bin so totals are preserved.
class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t bins);

  void add(double x);
  std::size_t bin_count(std::size_t bin) const;
  std::size_t total() const { return total_; }
  std::size_t bins() const { return counts_.size(); }
  double bin_low(std::size_t bin) const;
  double bin_high(std::size_t bin) const;
  /// Linear-interpolated quantile estimate, q in [0,1].  Bucket-boundary
  /// interpolation: mass inside a bin is treated as uniform, so the
  /// estimate moves linearly between the bin's low and high edge (a
  /// single-bin histogram maps q to lo + q * bin_width).  Edge cases:
  /// an empty histogram returns lo(); q = 0 returns the low edge of the
  /// first occupied bin; q = 1 returns the high edge of the last occupied
  /// bin.  Empty bins are skipped, never interpolated into.
  double quantile(double q) const;
  /// Percentile accessor, p in [0,100]: percentile(95) == quantile(0.95).
  /// Shares quantile()'s edge-case contract (p=0 / p=100 / empty).
  double percentile(double p) const;
  /// Merges another histogram with identical bounds and bin count
  /// (parallel-combinable, like RunningStats::merge).
  void merge(const Histogram& other);
  double low() const { return lo_; }
  double high() const { return hi_; }

 private:
  double lo_;
  double hi_;
  std::vector<std::size_t> counts_;
  std::size_t total_ = 0;
};

/// Nearest-rank quantile on the llround(q*(n-1)) convention shared by
/// netexec::NetworkExecutor::evaluate, the fleet aggregator and
/// tools/obs_report.py (half-up, no interpolation).  q in [0,1].  Returns
/// 0.0 for an empty sample set — the defined-zero contract for populations
/// where every member was shed or terminated.
double nearest_rank_quantile(std::vector<double> samples, double q);

}  // namespace zeiot
