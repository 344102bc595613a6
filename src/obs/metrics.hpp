// Metrics registry: named, labeled counters, gauges, histograms and
// summaries for every zeiot subsystem.
//
// Design goals (mirroring per-device telemetry in energy-harvesting WSN
// stacks):
//  * cheap at the emit site — a metric handle is resolved once and then
//    incremented through a stable reference;
//  * mergeable — registries from independent runs/trials combine with
//    `merge()` (counters add, histograms/summaries combine, gauges take
//    the other registry's latest value);
//  * serializable — `write_json()` produces the machine-readable body of
//    every bench's `*.metrics.json` report.
#pragma once

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "common/stats.hpp"

namespace zeiot::obs {

/// Ordered label set attached to a metric ("node" -> "12", ...).
using Labels = std::vector<std::pair<std::string, std::string>>;

/// Monotonically increasing count (events, bytes, joules...).
class Counter {
 public:
  void inc(double delta = 1.0);
  double value() const { return value_; }

 private:
  friend class MetricsRegistry;
  double value_ = 0.0;
};

/// Last-written instantaneous value, with the maximum ever written kept
/// alongside (peak tracking is what the paper's Fig. 8/10 quantities need).
class Gauge {
 public:
  void set(double v);
  double value() const { return value_; }
  double max_seen() const { return max_seen_; }
  bool written() const { return written_; }

 private:
  friend class MetricsRegistry;
  double value_ = 0.0;
  double max_seen_ = 0.0;
  bool written_ = false;
};

/// Fixed-bin histogram plus a RunningStats summary of the same samples, so
/// reports get both percentiles and exact mean/min/max.
class HistogramMetric {
 public:
  HistogramMetric(double lo, double hi, std::size_t bins)
      : hist_(lo, hi, bins) {}

  void observe(double x);
  const Histogram& histogram() const { return hist_; }
  const RunningStats& stats() const { return stats_; }

 private:
  friend class MetricsRegistry;
  Histogram hist_;
  RunningStats stats_;
};

/// Streaming mean/min/max/stddev without binning (for quantities whose
/// range is unknown up front, e.g. CSMA access delays or serve batch sizes).
class Summary {
 public:
  void observe(double x) { stats_.add(x); }
  const RunningStats& stats() const { return stats_; }

 private:
  friend class MetricsRegistry;
  RunningStats stats_;
};

/// Registry of all metrics of one run.  Not thread-safe (one per
/// experiment, like sim::Simulator).  References returned by the accessors
/// stay valid for the registry's lifetime.
class MetricsRegistry {
 public:
  Counter& counter(const std::string& name, const Labels& labels = {});
  Gauge& gauge(const std::string& name, const Labels& labels = {});
  /// Histogram bounds are fixed on first access; later accesses with the
  /// same name+labels ignore the bounds arguments.
  HistogramMetric& histogram(const std::string& name, double lo, double hi,
                             std::size_t bins, const Labels& labels = {});
  Summary& summary(const std::string& name, const Labels& labels = {});

  /// Read-only lookups (0 / empty when the metric does not exist) — used
  /// by tests and report assertions.
  double counter_value(const std::string& name, const Labels& labels = {}) const;
  double gauge_value(const std::string& name, const Labels& labels = {}) const;
  bool has(const std::string& name, const Labels& labels = {}) const;
  std::size_t size() const;

  /// Merges `other` into this registry.  Counters add; histograms and
  /// summaries combine; gauges take `other`'s value when written (and the
  /// max over both runs).
  void merge(const MetricsRegistry& other);

  /// Serializes every metric, sorted by key, as one JSON object.
  void write_json(std::ostream& out) const;
  std::string to_json() const;

  /// Canonical flat key: `name{k1=v1,k2=v2}` (no braces when unlabeled).
  static std::string flat_key(const std::string& name, const Labels& labels);

 private:
  // std::map keeps iteration (and therefore JSON output) deterministic and
  // guarantees stable element addresses across inserts.
  std::map<std::string, Counter> counters_;
  std::map<std::string, Gauge> gauges_;
  std::map<std::string, HistogramMetric> histograms_;
  std::map<std::string, Summary> summaries_;
};

}  // namespace zeiot::obs
