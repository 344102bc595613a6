#include "obs/report.hpp"

#include <cstdlib>
#include <fstream>
#include <iostream>

#include "common/error.hpp"
#include "obs/json.hpp"

namespace zeiot::obs {

Report::Report(std::string bench_name) : name_(std::move(bench_name)) {
  ZEIOT_CHECK_MSG(!name_.empty(), "report needs a bench name");
}

std::string Report::sibling_path(const std::string& suffix) const {
  const char* dir = std::getenv("ZEIOT_METRICS_DIR");
  if (dir != nullptr && dir[0] != '\0') {
    std::string p(dir);
    if (p.back() != '/') p += '/';
    return p + name_ + suffix;
  }
  return name_ + suffix;
}

std::string Report::path() const { return sibling_path(".metrics.json"); }

void Report::write(std::ostream& out, const MetricsRegistry& metrics,
                   const SpanRecorder* spans) const {
  JsonWriter w(out);
  w.begin_object();
  w.key("schema").value("zeiot.obs.v2");
  w.key("bench").value(name_);
  w.key("metrics");
  // The registry writes its own JSON object into the same stream; the
  // writer's comma state is safe because key() already emitted the ':'.
  metrics.write_json(out);
  if (spans != nullptr && spans->enabled()) {
    w.key("spans").begin_object();
    w.key("recorded").value(static_cast<std::uint64_t>(spans->size()));
    w.key("dropped").value(spans->dropped());
    w.key("roots").value(static_cast<std::uint64_t>(spans->root_count()));
    w.end_object();
  }
  w.end_object();
  out << '\n';
}

std::optional<std::string> Report::write_sibling(
    const std::string& suffix,
    const std::function<void(std::ostream&)>& body) const {
  const std::string p = sibling_path(suffix);
  std::ofstream out(p);
  if (!out) {
    std::cerr << "obs: could not open " << p << " for writing; skipping "
              << "report\n";
    return std::nullopt;
  }
  body(out);
  return p;
}

std::optional<std::string> Report::write_file(const MetricsRegistry& metrics,
                                              const SpanRecorder* spans)
    const {
  return write_sibling(".metrics.json", [&](std::ostream& out) {
    write(out, metrics, spans);
  });
}

std::optional<std::string> Report::write_spans_file(
    const SpanRecorder& spans) const {
  if (!spans.enabled() || spans.size() == 0) return std::nullopt;
  return write_sibling(".spans.jsonl",
                       [&](std::ostream& out) { spans.export_jsonl(out); });
}

std::optional<std::string> Report::write_chrome_trace_file(
    const SpanRecorder& spans) const {
  if (!spans.enabled() || spans.size() == 0) return std::nullopt;
  return write_sibling(".trace.json", [&](std::ostream& out) {
    spans.export_chrome_trace(out);
  });
}

}  // namespace zeiot::obs
