#!/usr/bin/env python3
"""Diff two zeiot bench metrics JSON files and flag perf regressions.

Compares the perf.* gauge series emitted by the bench binaries
(perf.<key>.wall_s / perf.<key>.items_per_s, plus the per-backend
perf.a3.gemm.<backend>.gflops throughput gauges, where smaller is a
regression), the span-derived latency
attribution gauges (netexec.breakdown.{compute,airtime,retry,idle}_{p50,
p99}_s), the tracing-overhead ratios (obs.overhead.*_ratio), and the
serving gauges (serve.plan_cache.hit_rate, smaller is worse; the
serve.slo.<route>.{p50,p99}_s virtual latencies, bigger is worse), and the
e7 drought-sweep fidelity/energy gauges (e7.drought.<sev>.<policy>.*:
accuracy and match_fraction smaller is worse, *_j energy bigger is worse):

    tools/bench_compare.py baseline.metrics.json current.metrics.json

A key regresses when wall_s grows (or items_per_s shrinks) by more than
--threshold (default 0.15 = 15%).  Breakdown gauges are *virtual*-time, so
any drift there is a behavioral change, not host noise — they are compared
with the same threshold and "bigger is worse" polarity.  Exit status is 1
when any regression is found, unless --warn-only is given (CI uses
warn-only against the checked-in baseline, which was recorded on different
hardware).

Every metric key, of every kind (counters, gauges, histograms, summaries),
that appears in only one of the two reports is listed as a warning: a key
only in the baseline is a metric no bench emits any more, a key only in the
current report one the baseline has not recorded yet.  These lines never
change the exit status.

Accepts both zeiot.obs.v1 (pre-span baselines) and zeiot.obs.v2 reports —
v2 adds the "spans" block and the breakdown/overhead gauges, which simply
show up as keys-only-in-current against a v1 baseline.
"""

import argparse
import json
import sys

ACCEPTED_SCHEMAS = ("zeiot.obs.v1", "zeiot.obs.v2")

# Gauge prefixes diffed between runs, beyond validity checks.
COMPARED_PREFIXES = ("perf.", "netexec.breakdown.", "obs.overhead.", "serve.",
                     "e7.")

# The metric kinds of a report, each a map from key to value.
METRIC_KINDS = ("counters", "gauges", "histograms", "summaries")


def load_report(path):
    with open(path) as f:
        doc = json.load(f)
    if doc.get("schema") not in ACCEPTED_SCHEMAS:
        sys.exit(f"{path}: unexpected schema {doc.get('schema')!r}")
    return doc.get("metrics", {})


def compared_gauges(metrics):
    gauges = metrics.get("gauges", {})
    out = {}
    for name, value in gauges.items():
        if not name.startswith(COMPARED_PREFIXES):
            continue
        # Gauge values may be serialized as {"value": x} or a bare number.
        out[name] = value["value"] if isinstance(value, dict) else value
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("baseline")
    ap.add_argument("current")
    ap.add_argument("--threshold", type=float, default=0.15,
                    help="relative regression threshold (default 0.15)")
    ap.add_argument("--warn-only", action="store_true",
                    help="report regressions but exit 0")
    args = ap.parse_args()

    base_metrics = load_report(args.baseline)
    cur_metrics = load_report(args.current)
    base = compared_gauges(base_metrics)
    cur = compared_gauges(cur_metrics)
    if not base:
        sys.exit(f"{args.baseline}: no perf.* gauges found")
    if not cur:
        sys.exit(f"{args.current}: no perf.* gauges found")

    regressions = []
    improvements = []
    for name in sorted(set(base) & set(cur)):
        b, c = base[name], cur[name]
        if b <= 0:
            continue
        # items_per_s, hit/served rates, and the per-backend GEMM gflops
        # gauges: smaller is worse (checked first — items_per_s also ends in
        # `_s`, and `_rate` must not fall through to the `_ratio` polarity).
        # wall_s / virtual-second breakdowns / SLO latencies / overhead
        # ratios: bigger is worse.
        # Fidelity gauges from the e7 drought sweep (accuracy, bitwise
        # match_fraction): smaller is worse.  Energy-per-inference (_j):
        # bigger is worse.  Both are virtual quantities — any drift is a
        # behavioral change.
        if name.endswith((".items_per_s", "_rate", ".gflops", ".accuracy",
                          "_fraction")):
            rel = (b - c) / b
        elif name.endswith(("_s", "_ratio", "_j")):
            rel = (c - b) / b
        else:
            continue
        line = f"  {name}: {b:.6g} -> {c:.6g} ({rel:+.1%})"
        if rel > args.threshold:
            regressions.append(line)
        elif rel < -args.threshold:
            improvements.append(line)

    for where, a, b in (("baseline", base_metrics, cur_metrics),
                        ("current", cur_metrics, base_metrics)):
        only = [(kind, sorted(set(a.get(kind, {})) - set(b.get(kind, {}))))
                for kind in METRIC_KINDS]
        count = sum(len(keys) for _, keys in only)
        if count:
            print(f"keys only in {where} ({count}):")
            for kind, keys in only:
                if keys:
                    print(f"  {kind}: " + ", ".join(keys))
    if improvements:
        print(f"improvements (> {args.threshold:.0%}):")
        print("\n".join(improvements))
    if regressions:
        print(f"REGRESSIONS (> {args.threshold:.0%}):")
        print("\n".join(regressions))
        if not args.warn_only:
            return 1
        print("(warn-only mode: not failing)")
    else:
        print(f"no regressions beyond {args.threshold:.0%} "
              f"({len(set(base) & set(cur))} keys compared)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
