#include "obs/span.hpp"


#include "common/error.hpp"
#include "common/hash.hpp"
#include "obs/json.hpp"

namespace zeiot::obs {

const char* span_kind_name(SpanKind kind) {
  switch (kind) {
    case SpanKind::Inference: return "inference";
    case SpanKind::Sense: return "sense";
    case SpanKind::NodeCompute: return "node_compute";
    case SpanKind::HopTx: return "hop_tx";
    case SpanKind::HopRetryTx: return "hop_retry_tx";
    case SpanKind::Backoff: return "backoff";
    case SpanKind::DeadlineFire: return "deadline_fire";
    case SpanKind::PhaseCompute: return "phase_compute";
    case SpanKind::PhaseAirtime: return "phase_airtime";
    case SpanKind::PhaseRetry: return "phase_retry";
    case SpanKind::PhaseIdle: return "phase_idle";
    case SpanKind::SimStep: return "sim_step";
    case SpanKind::ServeRequest: return "serve_request";
    case SpanKind::ServeQueue: return "serve_queue";
    case SpanKind::ServeService: return "serve_service";
    case SpanKind::Checkpoint: return "checkpoint";
    case SpanKind::PhaseCheckpoint: return "phase_checkpoint";
    case SpanKind::EventScheduled: return "event_scheduled";
    case SpanKind::EventFired: return "event_fired";
    case SpanKind::PacketTx: return "packet_tx";
    case SpanKind::PacketRx: return "packet_rx";
    case SpanKind::PacketCollision: return "packet_collision";
    case SpanKind::BackscatterWindowOpen: return "backscatter_window_open";
    case SpanKind::BackscatterWindowClose: return "backscatter_window_close";
    case SpanKind::DummyCarrierInjected: return "dummy_carrier_injected";
    case SpanKind::MicroDeepHop: return "microdeep_hop";
    case SpanKind::EnergyBoot: return "energy_boot";
    case SpanKind::EnergyBrownout: return "energy_brownout";
    case SpanKind::FaultInjected: return "fault_injected";
    case SpanKind::InvariantViolation: return "invariant_violation";
  }
  return "unknown";
}

SpanRecorder::SpanRecorder(std::size_t capacity) : capacity_(capacity) {}

SpanId SpanRecorder::open(SpanKind kind, double t, SpanId parent,
                          std::uint64_t trace_id, std::uint32_t a,
                          std::uint32_t b) {
  if (capacity_ == 0) return 0;
  if (spans_.size() >= capacity_) {
    ++dropped_;
    return 0;
  }
  SpanEvent s;
  s.trace_id = trace_id;
  s.id = static_cast<SpanId>(spans_.size() + 1);
  s.parent = parent;
  s.kind = kind;
  s.t0 = t;
  s.t1 = t;
  s.a = a;
  s.b = b;
  spans_.push_back(s);
  return s.id;
}

void SpanRecorder::close(SpanId id, double t, double value) {
  if (id == 0) return;  // dropped or disabled open(): silently ignore
  ZEIOT_CHECK_MSG(id <= spans_.size(), "close of unknown span id " << id);
  SpanEvent& s = spans_[id - 1];
  ZEIOT_CHECK_MSG(t >= s.t0, "span " << id << " closed before it opened");
  s.t1 = t;
  s.value = value;
}

SpanId SpanRecorder::add(SpanKind kind, double t0, double t1, SpanId parent,
                         std::uint64_t trace_id, std::uint32_t a,
                         std::uint32_t b, double value) {
  const SpanId id = open(kind, t0, parent, trace_id, a, b);
  close(id, t1, value);
  return id;
}

std::size_t SpanRecorder::root_count() const {
  std::size_t n = 0;
  for (const SpanEvent& s : spans_) {
    if (s.parent == 0) ++n;
  }
  return n;
}

const SpanEvent& SpanRecorder::at(std::size_t i) const {
  ZEIOT_CHECK_MSG(i < spans_.size(), "span index " << i << " out of range");
  return spans_[i];
}

void SpanRecorder::clear() {
  spans_.clear();
  dropped_ = 0;
}

void SpanRecorder::merge(const SpanRecorder& other) {
  if (capacity_ == 0) return;  // disabled recorders stay empty
  const auto base = static_cast<SpanId>(spans_.size());
  spans_.reserve(spans_.size() + other.spans_.size());
  for (SpanEvent s : other.spans_) {
    s.id += base;
    if (s.parent != 0) s.parent += base;
    if (capacity_ > 0 && spans_.size() >= capacity_) {
      ++dropped_;
      continue;
    }
    spans_.push_back(s);
  }
  dropped_ += other.dropped_;
}

std::uint64_t SpanRecorder::digest() const {
  Fnv1a h;
  for (const SpanEvent& s : spans_) {
    h.mix(s.trace_id);
    h.mix(s.id);
    h.mix(s.parent);
    h.mix(static_cast<std::uint64_t>(s.kind));
    h.mix_bits(s.t0);
    h.mix_bits(s.t1);
    h.mix(s.a);
    h.mix(s.b);
    h.mix_bits(s.value);
  }
  return h.value();
}

void SpanRecorder::export_jsonl(std::ostream& out) const {
  for (const SpanEvent& s : spans_) {
    JsonWriter w(out);
    w.begin_object();
    w.key("trace").value(s.trace_id);
    w.key("id").value(static_cast<std::uint64_t>(s.id));
    w.key("parent").value(static_cast<std::uint64_t>(s.parent));
    w.key("kind").value(span_kind_name(s.kind));
    w.key("t0").value(s.t0);
    w.key("t1").value(s.t1);
    w.key("a").value(static_cast<std::uint64_t>(s.a));
    w.key("b").value(static_cast<std::uint64_t>(s.b));
    w.key("v").value(s.value);
    w.end_object();
    out << '\n';
  }
}

void SpanRecorder::export_chrome_trace(std::ostream& out) const {
  JsonWriter w(out);
  w.begin_object();
  w.key("displayTimeUnit").value("ms");
  w.key("traceEvents").begin_array();
  for (const SpanEvent& s : spans_) {
    w.begin_object();
    w.key("name").value(span_kind_name(s.kind));
    w.key("cat").value("zeiot");
    w.key("ph").value("X");
    // Virtual seconds -> trace microseconds.
    w.key("ts").value(s.t0 * 1e6);
    w.key("dur").value(s.duration() * 1e6);
    w.key("pid").value(static_cast<std::uint64_t>(
        static_cast<std::uint32_t>(s.trace_id)));
    w.key("tid").value(static_cast<std::uint64_t>(s.a));
    w.key("args").begin_object();
    w.key("id").value(static_cast<std::uint64_t>(s.id));
    w.key("parent").value(static_cast<std::uint64_t>(s.parent));
    w.key("b").value(static_cast<std::uint64_t>(s.b));
    w.key("v").value(s.value);
    w.end_object();
    w.end_object();
  }
  w.end_array();
  w.end_object();
  out << '\n';
}

}  // namespace zeiot::obs
