// Observability context: one metrics registry, one span recorder and one
// wall-clock profiler, threaded through instrumented components as a
// nullable pointer.
//
// Convention across the library: every instrumented component accepts an
// `obs::Observability*` (constructor argument, config field, or trailing
// function parameter) defaulting to nullptr.  A null context disables
// metrics and recording at the cost of one pointer test per emit site — the
// "null sink" that keeps unobserved hot paths at seed speed.
#pragma once

#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "obs/span.hpp"

namespace zeiot::obs {

class Observability {
 public:
  MetricsRegistry& metrics() { return metrics_; }
  const MetricsRegistry& metrics() const { return metrics_; }
  SpanRecorder& spans() { return spans_; }
  const SpanRecorder& spans() const { return spans_; }
  ProfilerRegistry& profiler() { return profiler_; }
  const ProfilerRegistry& profiler() const { return profiler_; }

  /// True when span emit sites should record.  The canonical guard is
  /// `obs != nullptr && obs->spans_enabled()`; instant emit sites guard on
  /// `obs != nullptr` alone, since a disabled recorder ignores them.
  bool spans_enabled() const { return spans_.enabled(); }

  /// Replaces the (empty, disabled) span recorder with an enabled one of
  /// the given capacity — the one switch for recording spans and instants.
  /// Metrics and the profiler are always live.  Call before instrumented
  /// code runs.
  void enable_spans(std::size_t capacity) { spans_ = SpanRecorder(capacity); }

  /// Merges another context into this one: counters add, histograms and
  /// summaries combine, gauges take `other`'s value, and spans append with
  /// parent-link remapping (only when this context has spans enabled).
  /// Merging per-deployment contexts in slot order is the fleet
  /// aggregation path — the combined record is then bit-identical at any
  /// ZEIOT_THREADS.
  void merge_from(const Observability& other) {
    metrics_.merge(other.metrics_);
    spans_.merge(other.spans_);
  }

 private:
  MetricsRegistry metrics_;
  SpanRecorder spans_;
  ProfilerRegistry profiler_;
};

}  // namespace zeiot::obs
