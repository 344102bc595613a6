// Legacy view of the span record, for pins recorded before point events
// became instant spans.
//
// Point events used to live in a flat trace of their own, with its own
// digest and JSONL line, and spans were numbered 1..n among themselves.
// tests/golden/e2e_trace.jsonl, tests/golden/e2e_spans.jsonl and the
// NetexecPinned EqualTimeOrder digests were recorded that way.  This view
// rebuilds both streams from the one record so those pins stay unchanged:
//
//  * trace stream — the instant spans in record order, as (t0, legacy type
//    ordinal, a, b, value), digested and exported with the old formula and
//    line format;
//  * span stream — every other span, renumbered 1..n in record order with
//    parents remapped (instants never parent anything).
#pragma once

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "common/hash.hpp"
#include "obs/json.hpp"
#include "obs/span.hpp"

namespace zeiot::legacy {

/// The old trace vocabulary's ordinals.  Ordinals 2 (event_cancelled) and
/// 10 (energy_harvest) appear in no pinned record and have no instant
/// kind.
struct LegacyType {
  obs::SpanKind kind;
  std::uint64_t ordinal;
};
inline constexpr LegacyType kLegacyTypes[] = {
    {obs::SpanKind::EventScheduled, 0},
    {obs::SpanKind::EventFired, 1},
    {obs::SpanKind::PacketTx, 3},
    {obs::SpanKind::PacketRx, 4},
    {obs::SpanKind::PacketCollision, 5},
    {obs::SpanKind::BackscatterWindowOpen, 6},
    {obs::SpanKind::BackscatterWindowClose, 7},
    {obs::SpanKind::DummyCarrierInjected, 8},
    {obs::SpanKind::MicroDeepHop, 9},
    {obs::SpanKind::EnergyBoot, 11},
    {obs::SpanKind::EnergyBrownout, 12},
    {obs::SpanKind::FaultInjected, 13},
    {obs::SpanKind::InvariantViolation, 14},
};

/// The legacy ordinal of an instant kind, or nullptr for a span kind.
inline const LegacyType* legacy_type(obs::SpanKind kind) {
  for (const LegacyType& t : kLegacyTypes) {
    if (t.kind == kind) return &t;
  }
  return nullptr;
}

/// The instant spans of `rec`, in record order.
inline std::vector<obs::SpanEvent> trace_stream(const obs::SpanRecorder& rec) {
  std::vector<obs::SpanEvent> out;
  for (std::size_t i = 0; i < rec.size(); ++i) {
    if (legacy_type(rec.at(i).kind) != nullptr) out.push_back(rec.at(i));
  }
  return out;
}

/// The old trace digest of the trace stream.
inline std::uint64_t trace_digest(const obs::SpanRecorder& rec) {
  Fnv1a h;
  for (const obs::SpanEvent& e : trace_stream(rec)) {
    h.mix_bits(e.t0);
    h.mix(legacy_type(e.kind)->ordinal);
    h.mix(e.a);
    h.mix(e.b);
    h.mix_bits(e.value);
  }
  return h.value();
}

/// The old trace export of the trace stream: one
/// {"t":..,"type":"..","a":..,"b":..,"v":..} object per line.
inline std::string trace_jsonl(const obs::SpanRecorder& rec) {
  std::ostringstream out;
  for (const obs::SpanEvent& e : trace_stream(rec)) {
    obs::JsonWriter w(out);
    w.begin_object();
    w.key("t").value(e.t0);
    w.key("type").value(obs::span_kind_name(e.kind));
    w.key("a").value(static_cast<std::uint64_t>(e.a));
    w.key("b").value(static_cast<std::uint64_t>(e.b));
    w.key("v").value(e.value);
    w.end_object();
    out << '\n';
  }
  return out.str();
}

/// The span stream of `rec`: its non-instant spans, renumbered 1..n in
/// record order with parent links remapped.
inline obs::SpanRecorder span_stream(const obs::SpanRecorder& rec) {
  obs::SpanRecorder out(rec.size());
  std::vector<obs::SpanId> new_id(rec.size() + 1, 0);
  for (std::size_t i = 0; i < rec.size(); ++i) {
    const obs::SpanEvent& s = rec.at(i);
    if (legacy_type(s.kind) != nullptr) continue;
    new_id[s.id] = out.add(s.kind, s.t0, s.t1, new_id[s.parent], s.trace_id,
                           s.a, s.b, s.value);
  }
  return out;
}

}  // namespace zeiot::legacy
