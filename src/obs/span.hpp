// Causal span recorder over *virtual* simulation time: the one event
// record of the library.
//
// A span answers "where did this inference spend its time": it has a
// duration [t0, t1], a parent span, and a trace id that groups one causal
// unit of work (one inference, one training run).  A point event ("what
// happened, in order": a packet sent, a fault applied, a device browning
// out) is an *instant* span: t0 == t1, parent 0, trace id 0, recorded with
// `instant()` under one of the instant kinds listed last in SpanKind.  The
// design constraints mirror MetricsRegistry:
//
//  * deterministic — spans carry only virtual time and seed-derived trace
//    ids, never wall clocks, so two same-seed runs (at any ZEIOT_THREADS)
//    produce bit-identical recorders; `digest()` is the handle tests pin;
//  * mergeable — per-worker recorders combine with `merge()`, which
//    remaps span ids by a fixed offset so parent links survive; merging
//    slot recorders in index order keeps the result thread-count
//    independent (same pattern as bench::parallel_sweep);
//  * bounded — a fixed capacity with a dropped-span counter; a full
//    recorder drops the *newest* spans (dropping old ones would orphan
//    subtrees), and `dropped()` surfaces the loss;
//  * null sink — a recorder constructed with capacity 0 is disabled:
//    `enabled()` is a single bool test and every emit site guards on it,
//    so unobserved hot paths stay at seed speed.
//
// Exporters: JSONL (one span per line, the golden-snapshot format),
// Chrome trace_event JSON (load in chrome://tracing or Perfetto; pid =
// trace id, tid = the span's `a` attribute, usually a node id), and an
// indented text tree for terminal inspection.
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

namespace zeiot::obs {

/// Span vocabulary shared by all instrumented subsystems.  A fixed enum
/// (rather than free-form strings) keeps spans 56 bytes, digests stable
/// and export names canonical.
enum class SpanKind : std::uint8_t {
  // netexec / microdeep inference path.
  Inference,      // root: one end-to-end inference (value = energy_j)
  Sense,          // initial sensing activity on one node (value = joules)
  NodeCompute,    // units of one layer computed on one node (value = joules)
  HopTx,          // first transmission attempt of a frame hop (value = joules)
  HopRetryTx,     // ARQ retransmission attempt (value = joules)
  Backoff,        // exponential-backoff wait before a retry (a = node)
  DeadlineFire,   // layer deadline forced a compute with missing inputs
  // Per-inference latency attribution lane: four children that tile the
  // root span exactly (compute + airtime + retry + idle == root duration).
  PhaseCompute,
  PhaseAirtime,
  PhaseRetry,
  PhaseIdle,
  // Simulator kernel (one span per distinct event timestamp).
  SimStep,
  // MAC.
  CsmaRound,      // one contention round (a = ready stations, b = success)
  // ML training (virtual time axis = epoch index).
  TrainEpoch,     // a = epoch, value = epoch train loss
  TrainShard,     // a = shard index, b = batch index
  // Generic profiled region (a = region id in the profiler registry).
  Region,
  // Serving front-end request path (zeiot::serve).  One root per served
  // request on the virtual arrival clock, tiled exactly by its two phase
  // children: queue wait (admission -> batch dispatch) + batch service
  // (dispatch -> completion) == request latency.
  ServeRequest,   // root: one served request (a = route, b = batch seq)
  ServeQueue,     // admission-to-dispatch wait (a = route)
  ServeService,   // batched execution window (a = route, b = batch size)
  // Intermittent execution (netexec checkpointing).  Appended at the end:
  // kind ordinals feed span digests and the golden traces.
  Checkpoint,       // one NVM commit burst on a node (value = joules)
  PhaseCheckpoint,  // attribution-lane child: NVM commit time of the run
  // Instant kinds, recorded only by instant() (t0 == t1, parent 0, trace
  // id 0).  `a` and `b` are small identifiers, `value` a payload.
  // Simulator kernel (a = low 32 bits of the event sequence id).
  EventScheduled,
  EventFired,
  EventCancelled,
  // MAC / channel.
  PacketTx,         // a = sender, b = next hop (netexec: value = airtime)
  PacketRx,         // a = receiving node, b = the frame's destination
  PacketCollision,  // a = number of colliding senders
  // Backscatter MAC (a = device).
  BackscatterWindowOpen,
  BackscatterWindowClose,
  DummyCarrierInjected,
  // MicroDeep (a = source node, b = destination node, value = hops).
  MicroDeepHop,
  // Energy (a = device, value = capacitor voltage).
  EnergyBoot,
  EnergyBrownout,
  // Fault injection (a = target, b = fault::FaultType, value = magnitude).
  FaultInjected,
  // Invariant checking (a = cumulative violation count).
  InvariantViolation,
};

/// Stable lowercase name used in all exports.
const char* span_kind_name(SpanKind kind);

/// Identifier of a span within one recorder; 0 is the null id ("no
/// parent" / "recording refused").
using SpanId = std::uint32_t;

/// One closed span.  `a` and `b` are kind-dependent small attributes
/// (node id, plan/layer index, station count); `value` is a kind-dependent
/// payload — by convention the energy-ledger delta in joules for netexec
/// activity spans.  Fixed-size and trivially copyable.
struct SpanEvent {
  std::uint64_t trace_id = 0;
  SpanId id = 0;
  SpanId parent = 0;  // 0 = root
  SpanKind kind = SpanKind::Region;
  double t0 = 0.0;  // open time (virtual seconds)
  double t1 = 0.0;  // close time; t1 >= t0
  std::uint32_t a = 0;
  std::uint32_t b = 0;
  double value = 0.0;

  double duration() const { return t1 - t0; }
  bool operator==(const SpanEvent&) const = default;
};

/// Bounded append-only span store.  Not thread-safe; one per experiment
/// (or one per parallel slot, merged in slot order afterwards).
class SpanRecorder {
 public:
  /// Capacity 0 (the default) disables the recorder entirely — the null
  /// sink of the spans layer.
  explicit SpanRecorder(std::size_t capacity = 0);

  /// True when the recorder accepts spans.  Emit sites guard on this so a
  /// disabled recorder costs one bool test.
  bool enabled() const { return capacity_ > 0; }
  std::size_t capacity() const { return capacity_; }

  /// Opens a span at virtual time `t`.  Returns its id, or 0 when the
  /// recorder is disabled or full (the span is then counted as dropped and
  /// close(0) is a no-op, so call sites never need to branch).
  SpanId open(SpanKind kind, double t, SpanId parent = 0,
              std::uint64_t trace_id = 0, std::uint32_t a = 0,
              std::uint32_t b = 0);

  /// Closes an open span at time `t` (>= its t0) and stores `value`.
  void close(SpanId id, double t, double value = 0.0);

  /// Records an already-closed span [t0, t1] in one call.
  SpanId add(SpanKind kind, double t0, double t1, SpanId parent = 0,
             std::uint64_t trace_id = 0, std::uint32_t a = 0,
             std::uint32_t b = 0, double value = 0.0);

  /// Records a point event at `t` as an instant span: t0 == t1 == t,
  /// parent 0, trace id 0.
  SpanId instant(SpanKind kind, double t, std::uint32_t a = 0,
                 std::uint32_t b = 0, double value = 0.0) {
    return add(kind, t, t, 0, 0, a, b, value);
  }

  /// Spans retained (open or closed).
  std::size_t size() const { return spans_.size(); }
  /// Spans refused because the recorder was full (never because it was
  /// disabled — a disabled recorder records nothing and drops nothing).
  std::uint64_t dropped() const { return dropped_; }
  /// Retained spans whose parent id is 0 (instants included).
  std::size_t root_count() const;

  /// i-th span in record order (0 <= i < size()).
  const SpanEvent& at(std::size_t i) const;

  void clear();

  /// Appends `other`'s spans, remapping ids by this recorder's current
  /// size so parent links stay intact.  Trace ids pass through unchanged.
  /// Merging per-slot recorders in slot order yields a recorder
  /// bit-identical at any worker count.
  void merge(const SpanRecorder& other);

  /// FNV-1a digest over all retained spans (bit-exact field encoding) —
  /// the determinism handle of the record: two same-seed runs of a
  /// deterministic experiment must produce equal digests.
  std::uint64_t digest() const;

  /// One JSON object per line:
  /// {"trace":..,"id":..,"parent":..,"kind":"..","t0":..,"t1":..,
  ///  "a":..,"b":..,"v":..} — the golden-snapshot format.
  void export_jsonl(std::ostream& out) const;

  /// Chrome trace_event JSON (catapult / chrome://tracing / Perfetto):
  /// one complete ("X") event per span, pid = low 32 bits of the trace
  /// id, tid = the span's `a` attribute, ts/dur in virtual microseconds.
  void export_chrome_trace(std::ostream& out) const;

 private:
  std::size_t capacity_ = 0;
  std::vector<SpanEvent> spans_;
  std::uint64_t dropped_ = 0;
};

}  // namespace zeiot::obs
