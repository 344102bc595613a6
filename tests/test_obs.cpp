#include "obs/obs.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "common/rng.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "obs/sim_probe.hpp"
#include "sim/simulator.hpp"

namespace zeiot::obs {
namespace {

TEST(MetricsRegistry, CounterCreateAndIncrement) {
  MetricsRegistry reg;
  Counter& c = reg.counter("foo.count");
  EXPECT_DOUBLE_EQ(c.value(), 0.0);
  c.inc();
  c.inc(2.5);
  EXPECT_DOUBLE_EQ(reg.counter_value("foo.count"), 3.5);
  // Same name resolves to the same counter.
  reg.counter("foo.count").inc();
  EXPECT_DOUBLE_EQ(c.value(), 4.5);
}

TEST(MetricsRegistry, LabelsDistinguishSeries) {
  MetricsRegistry reg;
  reg.counter("msgs", {{"node", "1"}}).inc(10.0);
  reg.counter("msgs", {{"node", "2"}}).inc(20.0);
  EXPECT_DOUBLE_EQ(reg.counter_value("msgs", {{"node", "1"}}), 10.0);
  EXPECT_DOUBLE_EQ(reg.counter_value("msgs", {{"node", "2"}}), 20.0);
  EXPECT_FALSE(reg.has("msgs"));
  EXPECT_TRUE(reg.has("msgs", {{"node", "1"}}));
}

TEST(MetricsRegistry, FlatKeyFormat) {
  EXPECT_EQ(MetricsRegistry::flat_key("x", {}), "x");
  EXPECT_EQ(MetricsRegistry::flat_key("x", {{"a", "1"}, {"b", "2"}}),
            "x{a=1,b=2}");
}

TEST(MetricsRegistry, GaugeTracksPeak) {
  MetricsRegistry reg;
  Gauge& g = reg.gauge("depth");
  g.set(3.0);
  g.set(7.0);
  g.set(2.0);
  EXPECT_DOUBLE_EQ(g.value(), 2.0);
  EXPECT_DOUBLE_EQ(g.max_seen(), 7.0);
}

TEST(MetricsRegistry, MergeRoundTrip) {
  MetricsRegistry a, b;
  a.counter("events").inc(5.0);
  b.counter("events").inc(7.0);
  b.counter("only_b").inc(1.0);
  a.gauge("peak").set(3.0);
  b.gauge("peak").set(2.0);
  a.histogram("lat", 0.0, 1.0, 10).observe(0.15);
  b.histogram("lat", 0.0, 1.0, 10).observe(0.85);
  a.summary("wall").observe(1.0);
  b.summary("wall").observe(3.0);

  a.merge(b);
  EXPECT_DOUBLE_EQ(a.counter_value("events"), 12.0);
  EXPECT_DOUBLE_EQ(a.counter_value("only_b"), 1.0);
  // Gauges take the other run's (later) value but keep the max over both.
  EXPECT_DOUBLE_EQ(a.gauge_value("peak"), 2.0);
  EXPECT_DOUBLE_EQ(a.gauge("peak").max_seen(), 3.0);
  EXPECT_EQ(a.histogram("lat", 0.0, 1.0, 10).histogram().total(), 2u);
  EXPECT_EQ(a.summary("wall").stats().count(), 2u);
  EXPECT_DOUBLE_EQ(a.summary("wall").stats().mean(), 2.0);
}

TEST(MetricsRegistry, HistogramSerialization) {
  MetricsRegistry reg;
  auto& h = reg.histogram("lat_s", 0.0, 10.0, 5);
  for (double x : {1.0, 1.5, 9.0}) h.observe(x);
  const std::string json = reg.to_json();
  // Structure: a "histograms" section with bounds, percentiles and bins.
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.find("\"lat_s\""), std::string::npos);
  EXPECT_NE(json.find("\"p50\""), std::string::npos);
  EXPECT_NE(json.find("\"p95\""), std::string::npos);
  EXPECT_NE(json.find("\"p99\""), std::string::npos);
  EXPECT_NE(json.find("\"bins\""), std::string::npos);
  EXPECT_NE(json.find("\"total\":3"), std::string::npos);
}

TEST(JsonWriter, EscapesAndNonFinite) {
  std::ostringstream out;
  JsonWriter w(out);
  w.begin_object();
  w.key("s");
  w.value(std::string("a\"b\n"));
  w.key("inf");
  w.value(1.0 / 0.0);
  w.end_object();
  EXPECT_EQ(out.str(), "{\"s\":\"a\\\"b\\n\",\"inf\":null}");
}

// Runs a randomized simulator workload (schedules, cancels, nested
// schedules) with a probe attached and returns the whole record.
std::vector<SpanEvent> traced_run(std::uint64_t seed) {
  Observability obs;
  obs.enable_spans(1 << 12);
  SimulatorProbe probe(obs);
  sim::Simulator sim;
  sim.set_observer(&probe);
  Rng rng(seed);
  std::vector<sim::EventHandle> ids;
  for (int i = 0; i < 200; ++i) {
    const double t = rng.uniform(0.0, 100.0);
    ids.push_back(sim.schedule(t, [&sim, &rng] {
      if (rng.bernoulli(0.3)) {
        sim.schedule(rng.uniform(0.0, 5.0), [] {});
      }
    }));
  }
  for (std::size_t i = 0; i < ids.size(); i += 7) sim.cancel(ids[i]);
  sim.run();
  EXPECT_EQ(obs.spans().dropped(), 0u);
  std::vector<SpanEvent> record;
  for (std::size_t i = 0; i < obs.spans().size(); ++i) {
    record.push_back(obs.spans().at(i));
  }
  return record;
}

TEST(TraceDeterminism, SameSeedSameTrace) {
  const auto t1 = traced_run(42);
  const auto t2 = traced_run(42);
  ASSERT_FALSE(t1.empty());
  EXPECT_EQ(t1, t2);
  // A different seed produces a different trace (sanity that the
  // comparison is meaningful).
  EXPECT_NE(t1, traced_run(43));
}

TEST(Report, WritesSchemaDocument) {
  Observability obs;
  obs.metrics().counter("sim.events.executed").inc(12.0);
  obs.spans().instant(SpanKind::EventFired, 1.0);  // disabled: ignored
  std::ostringstream out;
  Report report("bench_x");
  report.write(out, obs.metrics());
  const std::string s = out.str();
  EXPECT_NE(s.find("\"schema\":\"zeiot.obs.v2\""), std::string::npos);
  EXPECT_NE(s.find("\"bench\":\"bench_x\""), std::string::npos);
  EXPECT_NE(s.find("\"sim.events.executed\":12"), std::string::npos);
  // Spans were never enabled: the v2 spans block must be absent (v1
  // consumers reading v2 reports only gain keys when spans are on), and
  // the optional v2 trace block is never written.
  EXPECT_EQ(s.find("\"spans\""), std::string::npos);
  EXPECT_EQ(s.find("\"trace\""), std::string::npos);
}

TEST(Report, SpansBlockWhenEnabled) {
  Observability obs;
  obs.enable_spans(16);
  const SpanId root = obs.spans().open(SpanKind::Inference, 0.0);
  obs.spans().add(SpanKind::HopTx, 0.0, 1.0, root);
  obs.spans().close(root, 2.0);
  std::ostringstream out;
  Report report("bench_x");
  report.write(out, obs.metrics(), &obs.spans());
  const std::string s = out.str();
  EXPECT_NE(s.find("\"spans\":{\"recorded\":2,\"dropped\":0,\"roots\":1}"),
            std::string::npos)
      << s;
}

// ---- SpanRecorder --------------------------------------------------------

TEST(SpanRecorder, OpenCloseAndAdd) {
  SpanRecorder rec(16);
  EXPECT_TRUE(rec.enabled());
  const SpanId root = rec.open(SpanKind::Inference, 0.0, 0, 77, 4, 2);
  ASSERT_NE(root, 0u);
  const SpanId child = rec.add(SpanKind::HopTx, 0.5, 1.5, root, 77, 3, 9, 2e-6);
  ASSERT_NE(child, 0u);
  // A point event: a zero-length root without a trace id, numbered in
  // record order like any span.
  EXPECT_EQ(rec.instant(SpanKind::FaultInjected, 0.25, 7, 2, 0.5), 3u);
  rec.close(root, 2.0, 1.25);
  ASSERT_EQ(rec.size(), 3u);
  EXPECT_EQ(rec.root_count(), 2u);
  const SpanEvent& r = rec.at(0);
  EXPECT_EQ(r.kind, SpanKind::Inference);
  EXPECT_EQ(r.trace_id, 77u);
  EXPECT_EQ(r.parent, 0u);
  EXPECT_DOUBLE_EQ(r.t0, 0.0);
  EXPECT_DOUBLE_EQ(r.t1, 2.0);
  EXPECT_DOUBLE_EQ(r.value, 1.25);
  EXPECT_EQ(r.a, 4u);
  EXPECT_EQ(r.b, 2u);
  const SpanEvent& c = rec.at(1);
  EXPECT_EQ(c.parent, root);
  EXPECT_DOUBLE_EQ(c.duration(), 1.0);
  const SpanEvent& i = rec.at(2);
  EXPECT_EQ(i.kind, SpanKind::FaultInjected);
  EXPECT_STREQ(span_kind_name(i.kind), "fault_injected");
  EXPECT_EQ(i.t0, 0.25);
  EXPECT_EQ(i.t1, 0.25);
  EXPECT_EQ(i.parent, 0u);
  EXPECT_EQ(i.trace_id, 0u);
  EXPECT_EQ(i.a, 7u);
  EXPECT_EQ(i.b, 2u);
  EXPECT_EQ(i.value, 0.5);
}

TEST(SpanRecorder, DisabledRecorderIsNullSink) {
  SpanRecorder rec;  // capacity 0
  EXPECT_FALSE(rec.enabled());
  EXPECT_EQ(rec.open(SpanKind::Inference, 0.0), 0u);
  EXPECT_EQ(rec.add(SpanKind::HopTx, 0.0, 1.0), 0u);
  EXPECT_EQ(rec.instant(SpanKind::PacketTx, 0.5, 3), 0u);
  rec.close(0, 1.0);  // close of the null id must be a no-op
  EXPECT_EQ(rec.size(), 0u);
  // A disabled recorder records nothing and *drops* nothing — it is off,
  // not overflowing.
  EXPECT_EQ(rec.dropped(), 0u);
  // Merging into a disabled recorder is ignored (the per-slot merge path
  // must be safe when spans were never enabled).
  SpanRecorder other(4);
  other.add(SpanKind::SimStep, 0.0, 1.0);
  rec.merge(other);
  EXPECT_EQ(rec.size(), 0u);
}

TEST(SpanRecorder, FullRecorderDropsNewest) {
  SpanRecorder rec(2);
  const SpanId a = rec.add(SpanKind::SimStep, 0.0, 1.0);
  const SpanId b = rec.add(SpanKind::SimStep, 1.0, 2.0);
  const SpanId c = rec.add(SpanKind::SimStep, 2.0, 3.0);  // refused
  EXPECT_NE(a, 0u);
  EXPECT_NE(b, 0u);
  EXPECT_EQ(c, 0u);
  EXPECT_EQ(rec.size(), 2u);
  EXPECT_EQ(rec.dropped(), 1u);
  // The *oldest* spans are retained (dropping them would orphan subtrees).
  EXPECT_DOUBLE_EQ(rec.at(0).t0, 0.0);
  EXPECT_DOUBLE_EQ(rec.at(1).t0, 1.0);
}

TEST(SpanRecorder, MergeRemapsIdsAndPreservesParents) {
  // Recording the same spans sequentially or via per-slot recorders merged
  // in slot order must produce bit-identical recorders — the property the
  // netexec evaluate() fan-out relies on for thread-count independence.
  SpanRecorder sequential(16);
  for (int slot = 0; slot < 2; ++slot) {
    const auto tid = static_cast<std::uint64_t>(100 + slot);
    const SpanId root = sequential.open(SpanKind::Inference, 0.0, 0, tid);
    sequential.add(SpanKind::HopTx, 0.0, 1.0, root, tid);
    sequential.close(root, 2.0);
  }

  SpanRecorder slots[2] = {SpanRecorder(8), SpanRecorder(8)};
  for (int slot = 0; slot < 2; ++slot) {
    const auto tid = static_cast<std::uint64_t>(100 + slot);
    const SpanId root = slots[slot].open(SpanKind::Inference, 0.0, 0, tid);
    slots[slot].add(SpanKind::HopTx, 0.0, 1.0, root, tid);
    slots[slot].close(root, 2.0);
  }
  SpanRecorder merged(16);
  merged.merge(slots[0]);
  merged.merge(slots[1]);

  ASSERT_EQ(merged.size(), sequential.size());
  for (std::size_t i = 0; i < merged.size(); ++i) {
    EXPECT_EQ(merged.at(i), sequential.at(i)) << "span " << i;
  }
  EXPECT_EQ(merged.digest(), sequential.digest());
  EXPECT_EQ(merged.root_count(), 2u);
  // Parent links survived the id remap: the second tree's child points at
  // the second root, not the first.
  EXPECT_EQ(merged.at(3).parent, merged.at(2).id);
}

TEST(SpanRecorder, DigestIsStableAndSensitive) {
  auto record = [](double shift) {
    SpanRecorder rec(8);
    const SpanId root = rec.open(SpanKind::Inference, 0.0, 0, 42);
    rec.add(SpanKind::NodeCompute, shift, shift + 0.5, root, 42, 1);
    rec.close(root, 1.0);
    return rec;
  };
  EXPECT_EQ(record(0.25).digest(), record(0.25).digest());
  EXPECT_NE(record(0.25).digest(), record(0.375).digest());
  EXPECT_NE(SpanRecorder(8).digest(), 0u);  // empty digest is the FNV basis
}

TEST(SpanRecorder, ExportJsonlFormat) {
  SpanRecorder rec(8);
  const SpanId root = rec.open(SpanKind::Inference, 0.0, 0, 7);
  rec.add(SpanKind::Backoff, 0.25, 0.5, root, 7, 3, 1);
  rec.close(root, 1.0, 0.5);
  std::ostringstream out;
  rec.export_jsonl(out);
  const std::string s = out.str();
  EXPECT_EQ(std::count(s.begin(), s.end(), '\n'), 2);
  EXPECT_NE(s.find("\"kind\":\"inference\""), std::string::npos);
  EXPECT_NE(s.find("\"kind\":\"backoff\""), std::string::npos);
  EXPECT_NE(s.find("\"trace\":7"), std::string::npos);
  EXPECT_NE(s.find("\"parent\":1"), std::string::npos);
}

TEST(SpanRecorder, ExportChromeTraceFormat) {
  SpanRecorder rec(8);
  const SpanId root = rec.open(SpanKind::Inference, 0.0, 0, 9, 5);
  rec.close(root, 0.002);
  std::ostringstream out;
  rec.export_chrome_trace(out);
  const std::string s = out.str();
  EXPECT_NE(s.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(s.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(s.find("\"name\":\"inference\""), std::string::npos);
  // Virtual seconds export as microseconds; pid carries the trace id and
  // tid the span's `a` attribute.
  EXPECT_NE(s.find("\"dur\":2000"), std::string::npos);
  EXPECT_NE(s.find("\"pid\":9"), std::string::npos);
  EXPECT_NE(s.find("\"tid\":5"), std::string::npos);
}

TEST(Observability, EnableSpansOptIn) {
  Observability obs;
  EXPECT_FALSE(obs.spans_enabled());
  obs.spans().instant(SpanKind::PacketTx, 1.0, 3);  // a default context
  EXPECT_EQ(obs.spans().size(), 0u);                // records nothing
  obs.enable_spans(32);
  EXPECT_TRUE(obs.spans_enabled());
  EXPECT_EQ(obs.spans().capacity(), 32u);
}

// ---- ProfilerRegistry ----------------------------------------------------

TEST(Profiler, SelfExcludesInstrumentedCallees) {
  ProfilerRegistry prof;
  const auto outer = prof.region("outer");
  const auto inner = prof.region("inner");
  EXPECT_EQ(prof.region("outer"), outer);  // interning is idempotent
  {
    ScopedTimer t_outer(&prof, outer);
    ScopedTimer t_inner(&prof, inner);
    volatile double sink = 0.0;
    for (int i = 0; i < 1000; ++i) sink = sink + 1.0;
  }
  const auto& o = prof.at(outer);
  const auto& i = prof.at(inner);
  EXPECT_EQ(o.count, 1u);
  EXPECT_EQ(i.count, 1u);
  // Outer's total covers inner's total; outer's self excludes it.
  EXPECT_GE(o.total_s, i.total_s);
  EXPECT_LE(o.self_s, o.total_s);
  EXPECT_DOUBLE_EQ(i.self_s, i.total_s);  // inner has no instrumented callee
  EXPECT_DOUBLE_EQ(o.self_s, o.total_s - i.total_s);
}

TEST(Profiler, ReportPublishesGauges) {
  ProfilerRegistry prof;
  const auto id = prof.region("phase.x");
  { ScopedTimer t(&prof, id); }
  MetricsRegistry m;
  prof.report(m);
  EXPECT_TRUE(m.has("prof.phase.x.total_s"));
  EXPECT_TRUE(m.has("prof.phase.x.self_s"));
  EXPECT_TRUE(m.has("prof.phase.x.count"));
  EXPECT_DOUBLE_EQ(m.gauge_value("prof.phase.x.count"), 1.0);
}

TEST(Profiler, NullRegistryScopedTimerIsNoop) {
  // Must not crash; the id is meaningless when the registry is null.
  ScopedTimer t(nullptr, 123);
}

// ---------------------------------------------------------------------------
// Registry-merge order-independence fuzz (the fleet aggregation contract).
//
// The fleet merges per-deployment registries in slot order, which makes
// the merged bytes deterministic for a *fixed* order.  A stronger
// property holds for the key shapes fleet deployments actually produce —
// integer-valued shared counters, per-deployment (disjoint) labeled
// series, and shared-bounds histograms — and this fuzz pins it: merging N
// such registries in ANY order yields byte-identical JSON, including
// histogram bin counts and dropped-event accounting.  (Shared *gauges*
// are last-write by design and shared float summaries accumulate in
// merge order; neither shape is emitted per-deployment, so they are
// deliberately outside this property.)

std::vector<MetricsRegistry> make_fuzz_registries(std::uint64_t seed,
                                                  std::size_t n) {
  Rng rng(seed);
  std::vector<MetricsRegistry> regs(n);
  for (std::size_t i = 0; i < n; ++i) {
    auto& m = regs[i];
    // Shared counters with integer deltas: addition is exact and
    // commutative in doubles up to 2^53.
    m.counter("fuzz.events").inc(static_cast<double>(rng.uniform_int(0, 50)));
    m.counter("fuzz.frames_lost")
        .inc(static_cast<double>(rng.uniform_int(0, 5)));
    // Disjoint per-slot series (the fleet's per-deployment label pattern).
    const Labels slot{{"slot", std::to_string(i)}};
    m.gauge("fuzz.accuracy", slot).set(rng.uniform(0.0, 1.0));
    m.summary("fuzz.latency", slot).observe(rng.uniform(0.0, 0.25));
    auto& own_hist = m.histogram("fuzz.local_s", 0.0, 1.0, 16, slot);
    for (int k = rng.uniform_int(1, 4); k > 0; --k) {
      own_hist.observe(rng.uniform(0.0, 1.0));
    }
    // Shared-key histogram with identical bounds: bin counts add exactly;
    // constant-valued observations keep the attached RunningStats exact
    // (Welford's merge is exact when every sample equals the mean).
    auto& shared = m.histogram("fuzz.shared_s", 0.0, 1.0, 8);
    for (int k = rng.uniform_int(1, 6); k > 0; --k) shared.observe(0.125);
  }
  return regs;
}

TEST(MetricsRegistry, MergeIsSlotOrderIndependentForFleetShapes) {
  Rng order_rng(99);
  for (std::uint64_t seed : {7u, 21u, 1234u}) {
    for (std::size_t n : {2u, 5u, 9u}) {
      const auto regs = make_fuzz_registries(seed, n);
      std::vector<std::size_t> order(n);
      for (std::size_t i = 0; i < n; ++i) order[i] = i;
      std::string reference;
      for (int perm = 0; perm < 6; ++perm) {
        MetricsRegistry merged;
        for (const std::size_t idx : order) merged.merge(regs[idx]);
        const std::string json = merged.to_json();
        if (perm == 0) {
          reference = json;
        } else {
          EXPECT_EQ(json, reference)
              << "seed " << seed << " n " << n << " perm " << perm;
        }
        order_rng.shuffle(order);
      }
    }
  }
}

TEST(Observability, MergeFromCombinesMetricsTracesAndSpans) {
  Observability dst;
  dst.enable_spans(32);
  Observability src;
  src.enable_spans(32);

  dst.metrics().counter("m.count").inc(2.0);
  src.metrics().counter("m.count").inc(3.0);
  dst.spans().instant(SpanKind::EventFired, 0.5, 1);
  src.spans().instant(SpanKind::PacketRx, 0.75, 2);
  const SpanId root = src.spans().open(SpanKind::Inference, 0.0, 0, 42);
  src.spans().add(SpanKind::HopTx, 0.0, 0.5, root, 42);
  src.spans().close(root, 1.0, 7.0);

  dst.merge_from(src);
  EXPECT_DOUBLE_EQ(dst.metrics().counter_value("m.count"), 5.0);
  ASSERT_EQ(dst.spans().size(), 4u);
  EXPECT_EQ(dst.spans().at(0).kind, SpanKind::EventFired);
  EXPECT_EQ(dst.spans().at(1).kind, SpanKind::PacketRx);
  EXPECT_EQ(dst.spans().at(2).trace_id, 42u);
  // Span ids were remapped past dst's existing size, parent links intact:
  // the merged root is still a root and its child points at it.
  EXPECT_EQ(dst.spans().at(2).id, 3u);
  EXPECT_EQ(dst.spans().at(2).parent, 0u);
  EXPECT_EQ(dst.spans().at(3).parent, 3u);
  EXPECT_EQ(dst.spans().root_count(), 3u);  // two instants and the root
}

}  // namespace
}  // namespace zeiot::obs
