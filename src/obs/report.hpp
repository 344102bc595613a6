// Machine-readable bench reports.
//
// Every binary in bench/ emits, next to its stdout tables, a
// `<bench>.metrics.json` file so the perf trajectory can track the
// paper-relevant quantities (Fig. 8-style max comm cost, MAC collision
// rates, energy budgets) across PRs without scraping text.  Schema
// (`zeiot.obs.v2`; v1 lacked the "spans" block — tools/obs_report.py
// documents the migration):
//
//   {
//     "schema": "zeiot.obs.v2",
//     "bench": "<name>",
//     "metrics": { "counters": {...}, "gauges": {...},
//                  "histograms": {...}, "summaries": {...} },
//     "spans": { "recorded": N, "dropped": D, "roots": R }      // if spanned
//   }
//
// v2 also allows an optional "trace" block, which this writer never emits:
// point events are instant spans, counted in the "spans" block.  When spans
// were recorded the report can be accompanied by `<bench>.spans.jsonl` (one
// span per line) and `<bench>.trace.json` (Chrome trace_event format) via
// the write_*_file helpers.
#pragma once

#include <functional>
#include <optional>
#include <string>

#include "obs/obs.hpp"

namespace zeiot::obs {

class Report {
 public:
  /// `bench_name` becomes both the "bench" field and the output file stem.
  explicit Report(std::string bench_name);

  const std::string& bench_name() const { return name_; }
  /// Output path: "<bench_name>.metrics.json" in the working directory
  /// unless overridden by the ZEIOT_METRICS_DIR environment variable.
  std::string path() const;

  /// Serializes the full report document to `out`.
  void write(std::ostream& out, const MetricsRegistry& metrics,
             const SpanRecorder* spans = nullptr) const;

  /// Writes `path()`; returns the path written, or nullopt (with a note on
  /// stderr) if the file could not be opened.  Benches call this last so a
  /// read-only working directory never fails the run itself.
  std::optional<std::string> write_file(const MetricsRegistry& metrics,
                                        const SpanRecorder* spans = nullptr)
      const;
  std::optional<std::string> write_file(const Observability& obs) const {
    return write_file(obs.metrics(),
                      obs.spans().enabled() ? &obs.spans() : nullptr);
  }

  /// Writes `<bench>.spans.jsonl` next to the metrics report (same
  /// ZEIOT_METRICS_DIR override).  No-op returning nullopt when the
  /// recorder is disabled or empty.
  std::optional<std::string> write_spans_file(const SpanRecorder& spans) const;

  /// Writes `<bench>.trace.json` (Chrome trace_event JSON) next to the
  /// metrics report.  No-op returning nullopt when disabled or empty.
  std::optional<std::string> write_chrome_trace_file(
      const SpanRecorder& spans) const;

 private:
  std::string sibling_path(const std::string& suffix) const;
  std::optional<std::string> write_sibling(
      const std::string& suffix,
      const std::function<void(std::ostream&)>& body) const;

  std::string name_;
};

}  // namespace zeiot::obs
