#!/usr/bin/env python3
"""Validate a zeiot.obs.v2 bench report and render its span attribution.

Reads a `<bench>.metrics.json` report plus the sibling `<bench>.spans.jsonl`
span export (when the bench recorded spans) and prints a per-bench
latency / energy breakdown table built from the causal span trees.  The
export may interleave instant spans with the trees: point events (packet
sent, fault applied, brown-out, ...) recorded with t0 == t1, parent 0 and
one of the INSTANT_KINDS.  An instant is a record, not a unit of work, so
the summary counts instants apart from roots.  At the same time the tool
enforces the observability contract, exiting 1 on any violation so CI can
gate on it:

  * the report must declare schema zeiot.obs.v2 and be well-formed;
  * the span recorder must not have dropped spans (a truncated causal
    record is worse than none — raise the enable_spans capacity instead),
    and the `obs.spans.dropped` counter must agree;
  * the spans block must match the JSONL export (recorded count, root
    count, instants included in both), and every JSONL parent id must
    resolve to an earlier span;
  * for a netexec bench, the root-span count must equal the number of
    inferences executed (the netexec.eval.samples counter);
  * every root with a phase lane must carry exactly one
    phase_{compute,airtime,retry,idle} child each — plus, when the bench
    ran with NVM checkpointing, exactly one phase_checkpoint child —
    tiling [t0, t1]: the phase durations must sum to the root duration
    within one virtual tick (1 us).

Usage:
    tools/obs_report.py <bench>.metrics.json [--spans <bench>.spans.jsonl]

The spans path defaults to the metrics path with `.metrics.json` replaced
by `.spans.jsonl`; a bench that never enabled spans (no "spans" block in
the report) validates the metrics schema only.
"""

import argparse
import json
import os
import sys

VIRTUAL_TICK_S = 1e-6  # netexec/sim quantum: phase sums must match within it

PHASE_KINDS = ("phase_compute", "phase_airtime", "phase_retry", "phase_idle")
# Optional fifth lane: NVM commit bursts.  Only present when the bench ran
# the netexec checkpoint path; a policy-None root keeps four children.
PHASE_CHECKPOINT = "phase_checkpoint"
ALL_PHASE_KINDS = PHASE_KINDS + (PHASE_CHECKPOINT,)

# Span kinds whose `v` payload is an energy-ledger delta in joules.
ENERGY_KINDS = ("sense", "node_compute", "hop_tx", "hop_retry_tx")

# Point-event kinds, recorded only as instant spans (obs::SpanKind's last
# thirteen values).
INSTANT_KINDS = (
    "event_scheduled", "event_fired",
    "packet_tx", "packet_rx", "packet_collision",
    "backscatter_window_open", "backscatter_window_close",
    "dummy_carrier_injected", "microdeep_hop",
    "energy_boot", "energy_brownout", "fault_injected", "invariant_violation",
)


def is_instant(span):
    """True for an instant span: a point event, not a unit of work."""
    return (span["kind"] in INSTANT_KINDS and span["t0"] == span["t1"]
            and span["parent"] == 0)


def fail(msg):
    print(f"obs_report: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def scalar(metric):
    """Metric values serialize as {"value": x, ...} or a bare number."""
    return metric["value"] if isinstance(metric, dict) else metric


def load_report(path):
    try:
        with open(path) as f:
            doc = json.load(f)
    except OSError as e:
        fail(f"cannot read {path}: {e}")
    except json.JSONDecodeError as e:
        fail(f"{path} is not well-formed JSON: {e}")
    if doc.get("schema") != "zeiot.obs.v2":
        fail(f"{path}: schema is {doc.get('schema')!r}, expected "
             "'zeiot.obs.v2'")
    for key in ("bench", "metrics"):
        if key not in doc:
            fail(f"{path}: missing required key {key!r}")
    return doc


def load_spans(path):
    spans = []
    seen_ids = set()
    with open(path) as f:
        for lineno, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue
            try:
                s = json.loads(line)
            except json.JSONDecodeError as e:
                fail(f"{path}:{lineno}: bad span line: {e}")
            for key in ("trace", "id", "parent", "kind", "t0", "t1"):
                if key not in s:
                    fail(f"{path}:{lineno}: span missing field {key!r}")
            if s["t1"] < s["t0"]:
                fail(f"{path}:{lineno}: span closes before it opens "
                     f"(t0={s['t0']}, t1={s['t1']})")
            if s["parent"] != 0 and s["parent"] not in seen_ids:
                fail(f"{path}:{lineno}: parent {s['parent']} does not "
                     "resolve to an earlier span")
            seen_ids.add(s["id"])
            spans.append(s)
    return spans


def check_span_block(doc, spans, counters):
    block = doc["spans"]
    if block.get("dropped", 0) != 0:
        fail(f"span recorder dropped {block['dropped']} spans — the causal "
             "record is truncated; raise the enable_spans capacity")
    if scalar(counters.get("obs.spans.dropped", 0)) != 0:
        fail("obs.spans.dropped counter is non-zero")
    if block.get("recorded") != len(spans):
        fail(f"report says {block.get('recorded')} spans recorded but the "
             f"JSONL export holds {len(spans)}")
    roots = [s for s in spans if s["parent"] == 0]
    if block.get("roots") != len(roots):
        fail(f"report says {block.get('roots')} roots but the JSONL export "
             f"holds {len(roots)}")
    samples = counters.get("netexec.eval.samples")
    inference_roots = [r for r in roots if r["kind"] == "inference"]
    if samples is not None and len(inference_roots) != int(scalar(samples)):
        fail(f"{len(inference_roots)} inference root spans != "
             f"{int(scalar(samples))} inferences executed "
             "(netexec.eval.samples)")
    return roots


def check_phase_tiling(spans, roots):
    """Each root with a phase lane must be tiled exactly by its phases:
    the four base lanes, optionally joined by phase_checkpoint."""
    phases_by_parent = {}
    for s in spans:
        if s["kind"] in ALL_PHASE_KINDS:
            phases_by_parent.setdefault(s["parent"], []).append(s)
    checked = 0
    for root in roots:
        phases = phases_by_parent.get(root["id"])
        if phases is None:
            continue  # e.g. a sim_step or serve_request root: no phase lane
        kinds = sorted(p["kind"] for p in phases)
        if kinds not in (sorted(PHASE_KINDS), sorted(ALL_PHASE_KINDS)):
            fail(f"root span {root['id']} has phase children {kinds}, "
                 f"expected exactly one of each of {sorted(PHASE_KINDS)} "
                 f"(optionally plus {PHASE_CHECKPOINT})")
        phase_sum = sum(p["t1"] - p["t0"] for p in phases)
        duration = root["t1"] - root["t0"]
        if abs(phase_sum - duration) > VIRTUAL_TICK_S:
            fail(f"root span {root['id']} (trace {root['trace']}): phase "
                 f"durations sum to {phase_sum:.9f} s but the root spans "
                 f"{duration:.9f} s — off by more than one virtual tick")
        checked += 1
    return checked


def percentile(sorted_vals, q):
    """Same convention as the C++ side: llround(q * (n - 1)) index.
    Half-up, not Python's banker's rounding, so the table matches the
    netexec.breakdown.* gauges exactly."""
    if not sorted_vals:
        return 0.0
    idx = int(q * (len(sorted_vals) - 1) + 0.5)
    return sorted_vals[idx]


def render_table(rows, header):
    widths = [max(len(str(r[i])) for r in [header] + rows)
              for i in range(len(header))]
    def line(cells):
        return "| " + " | ".join(str(c).ljust(w)
                                 for c, w in zip(cells, widths)) + " |"
    print(line(header))
    print("|" + "|".join("-" * (w + 2) for w in widths) + "|")
    for r in rows:
        print(line(r))


def summarize(doc, spans, roots, phase_checked):
    bench = doc["bench"]
    instants = sum(1 for s in spans if is_instant(s))
    tree_roots = [r for r in roots if not is_instant(r)]
    inference_roots = [r for r in tree_roots if r["kind"] == "inference"]
    print(f"{bench}: {len(spans)} spans ({instants} instants), "
          f"{len(tree_roots)} roots ({len(inference_roots)} inferences), "
          f"{phase_checked} phase-tiled")
    if not inference_roots:
        return

    # Latency attribution from the phase lanes of each inference root.
    # The checkpoint lane only appears in the table when some root has it.
    phases_by_parent = {}
    for s in spans:
        if s["kind"] in ALL_PHASE_KINDS:
            phases_by_parent.setdefault(s["parent"], {})[s["kind"]] = s
    shown_kinds = PHASE_KINDS
    if any(PHASE_CHECKPOINT in phases_by_parent.get(r["id"], {})
           for r in inference_roots):
        shown_kinds = ALL_PHASE_KINDS
    by_phase = {k: [] for k in shown_kinds}
    latencies = sorted(r["t1"] - r["t0"] for r in inference_roots)
    for r in inference_roots:
        for k in shown_kinds:
            p = phases_by_parent.get(r["id"], {}).get(k)
            by_phase[k].append(p["t1"] - p["t0"] if p else 0.0)
    rows = []
    for k in shown_kinds:
        vals = sorted(by_phase[k])
        rows.append([k.removeprefix("phase_"),
                     f"{percentile(vals, 0.50) * 1e3:.3f}",
                     f"{percentile(vals, 0.99) * 1e3:.3f}",
                     f"{sum(vals) / len(vals) * 1e3:.3f}"])
    rows.append(["total (root latency)",
                 f"{percentile(latencies, 0.50) * 1e3:.3f}",
                 f"{percentile(latencies, 0.99) * 1e3:.3f}",
                 f"{sum(latencies) / len(latencies) * 1e3:.3f}"])
    print("\nlatency attribution (per inference root span):")
    render_table(rows, ["phase", "p50 (ms)", "p99 (ms)", "mean (ms)"])

    # Energy attribution from the activity spans' joule payloads.
    energy = {k: 0.0 for k in ENERGY_KINDS}
    for s in spans:
        if s["kind"] in energy:
            energy[s["kind"]] += s.get("v", 0.0)
    total = sum(r.get("v", 0.0) for r in inference_roots)
    if total > 0:
        n = len(inference_roots)
        rows = [[k, f"{energy[k] / n * 1e6:.2f}",
                 f"{energy[k] / total:.1%}"]
                for k in ENERGY_KINDS]
        accounted = sum(energy.values())
        rows.append(["other (rx/idle)",
                     f"{(total - accounted) / n * 1e6:.2f}",
                     f"{(total - accounted) / total:.1%}"])
        rows.append(["total (root energy)", f"{total / n * 1e6:.2f}",
                     "100.0%"])
        print("\nenergy attribution (per inference, from span payloads):")
        render_table(rows, ["activity", "uJ/inference", "share"])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("metrics", help="<bench>.metrics.json report")
    ap.add_argument("--spans", default=None,
                    help="span JSONL export (default: sibling of metrics)")
    args = ap.parse_args()

    doc = load_report(args.metrics)
    counters = doc["metrics"].get("counters", {})

    if "spans" not in doc:
        print(f"{doc['bench']}: schema zeiot.obs.v2 OK, no spans recorded")
        return 0

    spans_path = args.spans
    if spans_path is None:
        if not args.metrics.endswith(".metrics.json"):
            fail(f"cannot derive spans path from {args.metrics}; "
                 "pass --spans")
        spans_path = args.metrics.removesuffix(".metrics.json") \
            + ".spans.jsonl"
    if not os.path.exists(spans_path):
        fail(f"report has a spans block but {spans_path} is missing")

    spans = load_spans(spans_path)
    roots = check_span_block(doc, spans, counters)
    phase_checked = check_phase_tiling(spans, roots)
    summarize(doc, spans, roots, phase_checked)
    print(f"\nobs_report: OK ({args.metrics})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
