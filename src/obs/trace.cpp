#include "obs/trace.hpp"

#include "common/error.hpp"
#include "common/hash.hpp"
#include "obs/json.hpp"

namespace zeiot::obs {

const char* trace_type_name(TraceType type) {
  switch (type) {
    case TraceType::EventScheduled: return "event_scheduled";
    case TraceType::EventFired: return "event_fired";
    case TraceType::EventCancelled: return "event_cancelled";
    case TraceType::PacketTx: return "packet_tx";
    case TraceType::PacketRx: return "packet_rx";
    case TraceType::PacketCollision: return "packet_collision";
    case TraceType::BackscatterWindowOpen: return "backscatter_window_open";
    case TraceType::BackscatterWindowClose: return "backscatter_window_close";
    case TraceType::DummyCarrierInjected: return "dummy_carrier_injected";
    case TraceType::MicroDeepHop: return "microdeep_hop";
    case TraceType::EnergyHarvest: return "energy_harvest";
    case TraceType::EnergyBoot: return "energy_boot";
    case TraceType::EnergyBrownout: return "energy_brownout";
    case TraceType::FaultInjected: return "fault_injected";
    case TraceType::InvariantViolation: return "invariant_violation";
  }
  return "unknown";
}

TraceRecorder::TraceRecorder(std::size_t capacity) : buf_(capacity) {
  ZEIOT_CHECK_MSG(capacity > 0, "TraceRecorder requires capacity > 0");
}

void TraceRecorder::record(double t, TraceType type, std::uint32_t a,
                           std::uint32_t b, double value) {
  buf_[next_] = TraceEvent{t, type, a, b, value};
  next_ = (next_ + 1) % buf_.size();
  if (count_ < buf_.size()) ++count_;
  ++recorded_;
}

const TraceEvent& TraceRecorder::at(std::size_t i) const {
  ZEIOT_CHECK_MSG(i < count_, "trace index " << i << " out of range");
  // Oldest retained event sits at next_ once the buffer has wrapped.
  const std::size_t start = count_ == buf_.size() ? next_ : 0;
  return buf_[(start + i) % buf_.size()];
}

std::vector<TraceEvent> TraceRecorder::snapshot() const {
  std::vector<TraceEvent> out;
  out.reserve(count_);
  for (std::size_t i = 0; i < count_; ++i) out.push_back(at(i));
  return out;
}

void TraceRecorder::clear() {
  next_ = 0;
  count_ = 0;
  recorded_ = 0;
}

void TraceRecorder::merge(const TraceRecorder& other) {
  for (std::size_t i = 0; i < other.size(); ++i) {
    const TraceEvent& e = other.at(i);
    record(e.t, e.type, e.a, e.b, e.value);
  }
  // Events other already lost to wraparound are lost here too.
  recorded_ += other.dropped();
}

std::uint64_t TraceRecorder::digest() const {
  Fnv1a h;
  for (std::size_t i = 0; i < count_; ++i) {
    const TraceEvent& e = at(i);
    h.mix_bits(e.t);
    h.mix(static_cast<std::uint64_t>(e.type));
    h.mix(e.a);
    h.mix(e.b);
    h.mix_bits(e.value);
  }
  return h.value();
}

void TraceRecorder::export_jsonl(std::ostream& out) const {
  for (std::size_t i = 0; i < count_; ++i) {
    const TraceEvent& e = at(i);
    JsonWriter w(out);
    w.begin_object();
    w.key("t").value(e.t);
    w.key("type").value(trace_type_name(e.type));
    w.key("a").value(static_cast<std::uint64_t>(e.a));
    w.key("b").value(static_cast<std::uint64_t>(e.b));
    w.key("v").value(e.value);
    w.end_object();
    out << '\n';
  }
}

}  // namespace zeiot::obs
