#!/usr/bin/env python3
"""Tests for the report tooling (tools/obs_report.py, tools/bench_compare.py).

Golden v1/v2 report fixtures are generated in a temp dir so the suite pins
the tool contracts end to end:

  * obs_report's percentile() uses the C++ half-up llround convention, not
    Python's banker's rounding;
  * a well-formed zeiot.obs.v2 report + spans JSONL validates (exit 0),
    also when instant spans interleave with the inference trees;
  * dropped spans, root-count mismatches, and phase-tiling violations each
    fail with exit 1;
  * bench_compare accepts a zeiot.obs.v1 baseline against a v2 current,
    applies the inverted items_per_s polarity, and honors --warn-only;
  * bench_compare lists, by kind, the metric keys that only one report has,
    without changing the exit status.

Runs under pytest (CI bench-smoke leg) or plain `python3 tools/test_tools.py`.
"""

import contextlib
import importlib.util
import io
import json
import os
import sys
import tempfile
import unittest

TOOLS_DIR = os.path.dirname(os.path.abspath(__file__))


def _load(name):
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(TOOLS_DIR, name + ".py"))
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


obs_report = _load("obs_report")
bench_compare = _load("bench_compare")


def _phase_spans(first_id, parent, t0, t1):
    """Four phase children exactly tiling [t0, t1] (40/30/10/20 split)."""
    d = t1 - t0
    cuts = [t0, t0 + 0.4 * d, t0 + 0.7 * d, t0 + 0.8 * d, t1]
    kinds = ["phase_compute", "phase_airtime", "phase_retry", "phase_idle"]
    return [
        {"trace": 42, "id": first_id + i, "parent": parent, "kind": kinds[i],
         "t0": cuts[i], "t1": cuts[i + 1]}
        for i in range(4)
    ]


def golden_spans():
    """Two inference roots, each with a complete phase lane."""
    spans = [{"trace": 42, "id": 1, "parent": 0, "kind": "inference",
              "t0": 0.0, "t1": 0.1, "v": 1.5e-3}]
    spans += _phase_spans(2, 1, 0.0, 0.1)
    spans += [{"trace": 43, "id": 6, "parent": 0, "kind": "inference",
               "t0": 0.0, "t1": 0.2, "v": 1.7e-3}]
    spans += _phase_spans(7, 6, 0.0, 0.2)
    return spans


def golden_v2_report(spans):
    roots = sum(1 for s in spans if s["parent"] == 0)
    return {
        "schema": "zeiot.obs.v2",
        "bench": "bench_test_fixture",
        "metrics": {
            "counters": {
                "netexec.eval.samples": {"value": roots},
                "obs.spans.dropped": {"value": 0},
            },
            "gauges": {
                "perf.fixture.wall_s": {"value": 1.0},
                "perf.fixture.items_per_s": {"value": 100.0},
                "netexec.breakdown.compute_p50_s": {"value": 0.04},
            },
        },
        "spans": {"recorded": len(spans), "roots": roots, "dropped": 0},
    }


class ReportFixtureMixin:
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.addCleanup(self.tmp.cleanup)

    def write_report(self, doc, spans=None, stem="bench_test_fixture"):
        metrics = os.path.join(self.tmp.name, stem + ".metrics.json")
        with open(metrics, "w") as f:
            json.dump(doc, f)
        if spans is not None:
            with open(os.path.join(self.tmp.name, stem + ".spans.jsonl"),
                      "w") as f:
                for s in spans:
                    f.write(json.dumps(s) + "\n")
        return metrics

    def run_main(self, module, argv):
        """Runs module.main() with argv, returning (exit_code, output)."""
        out = io.StringIO()
        old_argv = sys.argv
        sys.argv = [module.__name__] + argv
        try:
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(out):
                try:
                    code = module.main()
                except SystemExit as e:
                    code = e.code
        finally:
            sys.argv = old_argv
        code = 0 if code is None else code
        code = 1 if isinstance(code, str) else code
        return code, out.getvalue()


class TestObsReportPercentile(unittest.TestCase):
    def test_half_up_not_bankers(self):
        # idx = int(0.5 * 1 + 0.5) = 1.  Banker's round(0.5) == 0 would
        # pick 1.0 and diverge from the C++ llround gauges.
        self.assertEqual(obs_report.percentile([1.0, 2.0], 0.5), 2.0)

    def test_matches_llround_convention(self):
        vals = [float(i) for i in range(10)]  # n=10: p50 -> idx 5 (not 4)
        self.assertEqual(obs_report.percentile(vals, 0.50), 5.0)
        self.assertEqual(obs_report.percentile(vals, 0.99), 9.0)
        self.assertEqual(obs_report.percentile([], 0.5), 0.0)


class TestObsReportValidation(ReportFixtureMixin, unittest.TestCase):
    def test_golden_v2_report_validates(self):
        spans = golden_spans()
        metrics = self.write_report(golden_v2_report(spans), spans)
        code, out = self.run_main(obs_report, [metrics])
        self.assertEqual(code, 0, out)
        self.assertIn("obs_report: OK", out)
        self.assertIn("2 phase-tiled", out)

    def test_instants_interleaved_with_trees_validate(self):
        # Point events recorded as instant spans sit between and inside the
        # time range of the two inference trees; they are records, not
        # roots of work, and carry no phase lane to tile.
        def instant(span_id, kind, t, a=0, b=0, v=0.0):
            return {"trace": 0, "id": span_id, "parent": 0, "kind": kind,
                    "t0": t, "t1": t, "a": a, "b": b, "v": v}

        spans = [instant(1, "event_scheduled", 0.0, a=1)]
        tree = golden_spans()
        for s in tree:  # shift the golden ids past the first instant
            s["id"] += 1
            if s["parent"] != 0:
                s["parent"] += 1
        spans += tree[:5]
        spans += [instant(7, "packet_tx", 0.05, a=3, b=4, v=1e-3),
                  instant(8, "packet_rx", 0.051, a=4, b=4, v=32.0)]
        for s in tree[5:]:
            s["id"] += 2
            if s["parent"] != 0:
                s["parent"] += 2
        spans += tree[5:]
        spans.append(instant(14, "fault_injected", 0.15, a=2, b=1, v=0.5))
        doc = golden_v2_report(spans)
        doc["metrics"]["counters"]["netexec.eval.samples"]["value"] = 2
        metrics = self.write_report(doc, spans)
        code, out = self.run_main(obs_report, [metrics])
        self.assertEqual(code, 0, out)
        self.assertIn("obs_report: OK", out)
        self.assertIn("14 spans (4 instants), 2 roots (2 inferences), "
                      "2 phase-tiled", out)

    def test_report_without_spans_block_validates_metrics_only(self):
        doc = golden_v2_report(golden_spans())
        del doc["spans"]
        metrics = self.write_report(doc)
        code, out = self.run_main(obs_report, [metrics])
        self.assertEqual(code, 0, out)
        self.assertIn("no spans recorded", out)

    def test_wrong_schema_fails(self):
        doc = golden_v2_report(golden_spans())
        doc["schema"] = "zeiot.obs.v1"
        metrics = self.write_report(doc)
        code, out = self.run_main(obs_report, [metrics])
        self.assertEqual(code, 1, out)

    def test_dropped_spans_fail(self):
        spans = golden_spans()
        doc = golden_v2_report(spans)
        doc["spans"]["dropped"] = 3
        metrics = self.write_report(doc, spans)
        code, out = self.run_main(obs_report, [metrics])
        self.assertEqual(code, 1, out)
        self.assertIn("dropped", out)

    def test_inference_root_count_must_match_samples_counter(self):
        spans = golden_spans()
        doc = golden_v2_report(spans)
        doc["metrics"]["counters"]["netexec.eval.samples"]["value"] = 5
        metrics = self.write_report(doc, spans)
        code, out = self.run_main(obs_report, [metrics])
        self.assertEqual(code, 1, out)
        self.assertIn("netexec.eval.samples", out)

    def test_phase_tiling_violation_fails(self):
        spans = golden_spans()
        spans[2]["t1"] += 0.01  # stretch phase_airtime: sum != root duration
        metrics = self.write_report(golden_v2_report(spans), spans)
        code, out = self.run_main(obs_report, [metrics])
        self.assertEqual(code, 1, out)
        self.assertIn("virtual tick", out)

    def test_checkpoint_phase_lane_validates(self):
        # A checkpointed netexec root carries a fifth phase child; the five
        # lanes must still tile the root exactly.
        spans = [{"trace": 42, "id": 1, "parent": 0, "kind": "inference",
                  "t0": 0.0, "t1": 0.1, "v": 1.5e-3}]
        four = _phase_spans(2, 1, 0.0, 0.08)
        spans += four
        spans.append({"trace": 42, "id": 6, "parent": 1,
                      "kind": "phase_checkpoint", "t0": 0.08, "t1": 0.1})
        doc = golden_v2_report(spans)
        metrics = self.write_report(doc, spans)
        code, out = self.run_main(obs_report, [metrics])
        self.assertEqual(code, 0, out)
        self.assertIn("1 phase-tiled", out)
        self.assertIn("checkpoint", out)  # fifth lane shown in the table

    def test_checkpoint_phase_must_still_tile(self):
        spans = [{"trace": 42, "id": 1, "parent": 0, "kind": "inference",
                  "t0": 0.0, "t1": 0.1, "v": 1.5e-3}]
        spans += _phase_spans(2, 1, 0.0, 0.08)
        # Checkpoint lane leaves [0.09, 0.1] uncovered: sum != root duration.
        spans.append({"trace": 42, "id": 6, "parent": 1,
                      "kind": "phase_checkpoint", "t0": 0.08, "t1": 0.09})
        metrics = self.write_report(golden_v2_report(spans), spans)
        code, out = self.run_main(obs_report, [metrics])
        self.assertEqual(code, 1, out)
        self.assertIn("virtual tick", out)

    def test_duplicate_checkpoint_phase_fails(self):
        spans = golden_spans()
        spans += [{"trace": 42, "id": 20, "parent": 1,
                   "kind": "phase_checkpoint", "t0": 0.0, "t1": 0.0},
                  {"trace": 42, "id": 21, "parent": 1,
                   "kind": "phase_checkpoint", "t0": 0.0, "t1": 0.0}]
        metrics = self.write_report(golden_v2_report(spans), spans)
        code, out = self.run_main(obs_report, [metrics])
        self.assertEqual(code, 1, out)
        self.assertIn("phase children", out)

    def test_unresolved_parent_fails(self):
        spans = golden_spans()
        spans.append({"trace": 9, "id": 99, "parent": 98, "kind": "sense",
                      "t0": 0.0, "t1": 0.1})
        doc = golden_v2_report(spans)
        metrics = self.write_report(doc, spans)
        code, out = self.run_main(obs_report, [metrics])
        self.assertEqual(code, 1, out)
        self.assertIn("parent", out)


class TestBenchCompare(ReportFixtureMixin, unittest.TestCase):
    def v1_baseline(self, wall=1.0, ips=100.0):
        return {"schema": "zeiot.obs.v1",
                "bench": "bench_test_fixture",
                "metrics": {"gauges": {
                    "perf.fixture.wall_s": wall,
                    "perf.fixture.items_per_s": ips}}}

    def v2_current(self, wall=1.0, ips=100.0):
        doc = golden_v2_report(golden_spans())
        doc["metrics"]["gauges"]["perf.fixture.wall_s"]["value"] = wall
        doc["metrics"]["gauges"]["perf.fixture.items_per_s"]["value"] = ips
        return doc

    def compare(self, baseline, current, *flags):
        b = self.write_report(baseline, stem="baseline")
        c = self.write_report(current, stem="current")
        return self.run_main(bench_compare, [b, c, *flags])

    def test_v1_baseline_against_v2_current_passes(self):
        code, out = self.compare(self.v1_baseline(), self.v2_current())
        self.assertEqual(code, 0, out)
        self.assertIn("no regressions", out)
        # v2-only keys (breakdown gauges) are reported, not fatal.
        self.assertIn("keys only in current", out)

    def test_wall_s_growth_is_a_regression(self):
        code, out = self.compare(self.v1_baseline(wall=1.0),
                                 self.v2_current(wall=1.5))
        self.assertEqual(code, 1, out)
        self.assertIn("REGRESSIONS", out)

    def test_items_per_s_polarity_is_inverted(self):
        # Throughput shrinking is the regression, despite the `_s` suffix.
        code, out = self.compare(self.v1_baseline(ips=100.0),
                                 self.v2_current(ips=50.0))
        self.assertEqual(code, 1, out)
        self.assertIn("items_per_s", out)
        # And growing throughput is an improvement, not a regression.
        code, out = self.compare(self.v1_baseline(ips=100.0),
                                 self.v2_current(ips=200.0))
        self.assertEqual(code, 0, out)

    def test_serve_gauges_are_compared_with_rate_polarity(self):
        # serve.plan_cache.hit_rate shrinking is a regression (rate polarity,
        # not the _ratio "bigger is worse" one); an SLO latency growing is
        # too (virtual seconds, so any drift is behavioral).
        base = self.v1_baseline()
        base["metrics"]["gauges"]["serve.plan_cache.hit_rate"] = 0.99
        base["metrics"]["gauges"]["serve.slo.e4_room_count.p99_s"] = 0.001
        cur = self.v2_current()
        cur["metrics"]["gauges"]["serve.plan_cache.hit_rate"] = \
            {"value": 0.50}
        cur["metrics"]["gauges"]["serve.slo.e4_room_count.p99_s"] = \
            {"value": 0.001}
        code, out = self.compare(base, cur)
        self.assertEqual(code, 1, out)
        self.assertIn("serve.plan_cache.hit_rate", out)
        # Restoring the hit rate and growing the SLO latency flips which
        # gauge regresses.
        cur["metrics"]["gauges"]["serve.plan_cache.hit_rate"] = \
            {"value": 0.99}
        cur["metrics"]["gauges"]["serve.slo.e4_room_count.p99_s"] = \
            {"value": 0.002}
        code, out = self.compare(base, cur)
        self.assertEqual(code, 1, out)
        self.assertIn("serve.slo.e4_room_count.p99_s", out)

    def test_gemm_backend_gflops_polarity_is_inverted(self):
        # perf.a3.gemm.<backend>.gflops is a throughput: shrinking is the
        # regression, growing is an improvement.
        base = self.v1_baseline()
        base["metrics"]["gauges"]["perf.a3.gemm.avx2.gflops"] = 60.0
        cur = self.v2_current()
        cur["metrics"]["gauges"]["perf.a3.gemm.avx2.gflops"] = {"value": 20.0}
        code, out = self.compare(base, cur)
        self.assertEqual(code, 1, out)
        self.assertIn("perf.a3.gemm.avx2.gflops", out)
        cur["metrics"]["gauges"]["perf.a3.gemm.avx2.gflops"] = {"value": 90.0}
        code, out = self.compare(base, cur)
        self.assertEqual(code, 0, out)
        self.assertIn("improvements", out)

    def test_e7_drought_fidelity_and_energy_polarities(self):
        # accuracy / match_fraction are fidelities: shrinking is the
        # regression.  *_j energies are costs: growing is the regression.
        base = self.v1_baseline()
        base["metrics"]["gauges"].update({
            "e7.drought.s40.every_unit.accuracy": 0.8,
            "e7.drought.s40.every_unit.match_fraction": 1.0,
            "e7.drought.s40.every_unit.checkpoint_energy_per_inference_j":
                1.7e-3,
        })
        cur = self.v2_current()
        cur["metrics"]["gauges"].update({
            "e7.drought.s40.every_unit.accuracy": {"value": 0.4},
            "e7.drought.s40.every_unit.match_fraction": {"value": 1.0},
            "e7.drought.s40.every_unit.checkpoint_energy_per_inference_j":
                {"value": 1.7e-3},
        })
        code, out = self.compare(base, cur)
        self.assertEqual(code, 1, out)
        self.assertIn("e7.drought.s40.every_unit.accuracy", out)
        # Restore accuracy, lose bitwise fidelity instead.
        cur["metrics"]["gauges"]["e7.drought.s40.every_unit.accuracy"] = \
            {"value": 0.8}
        cur["metrics"]["gauges"][
            "e7.drought.s40.every_unit.match_fraction"] = {"value": 0.0}
        code, out = self.compare(base, cur)
        self.assertEqual(code, 1, out)
        self.assertIn("match_fraction", out)
        # Fidelity intact but checkpoint energy doubled: cost polarity.
        cur["metrics"]["gauges"][
            "e7.drought.s40.every_unit.match_fraction"] = {"value": 1.0}
        cur["metrics"]["gauges"][
            "e7.drought.s40.every_unit.checkpoint_energy_per_inference_j"] = \
            {"value": 3.4e-3}
        code, out = self.compare(base, cur)
        self.assertEqual(code, 1, out)
        self.assertIn("checkpoint_energy_per_inference_j", out)

    def test_keys_in_one_report_only_are_listed_by_kind(self):
        # Stale keys of every kind (counters, gauges, histograms,
        # summaries) are warnings: listed under the report that has them,
        # and the exit status stays the regressions' alone.
        base = self.v2_current()
        base["metrics"]["counters"]["sim.events.cancelled"] = {"value": 0}
        base["metrics"]["summaries"] = {
            "sim.callback.wall_s": {"count": 512, "mean": 4e-08}}
        cur = self.v2_current()
        cur["metrics"]["gauges"]["sim.queue.depth"] = {"value": 3}
        cur["metrics"]["histograms"] = {
            "serve.latency_s": {"lo": 0.0, "hi": 1.0, "counts": [1]}}
        code, out = self.compare(base, cur)
        self.assertEqual(code, 0, out)
        self.assertIn("keys only in baseline (2):", out)
        self.assertIn("counters: sim.events.cancelled", out)
        self.assertIn("summaries: sim.callback.wall_s", out)
        self.assertIn("keys only in current (2):", out)
        self.assertIn("gauges: sim.queue.depth", out)
        self.assertIn("histograms: serve.latency_s", out)
        cur["metrics"]["gauges"]["perf.fixture.wall_s"]["value"] = 1.5
        code, out = self.compare(base, cur)
        self.assertEqual(code, 1, out)
        self.assertIn("counters: sim.events.cancelled", out)
        code, out = self.compare(base, cur, "--warn-only")
        self.assertEqual(code, 0, out)

    def test_warn_only_downgrades_regressions(self):
        code, out = self.compare(self.v1_baseline(wall=1.0),
                                 self.v2_current(wall=1.5), "--warn-only")
        self.assertEqual(code, 0, out)
        self.assertIn("warn-only", out)

    def test_unknown_schema_rejected(self):
        bad = self.v1_baseline()
        bad["schema"] = "zeiot.obs.v3"
        code, out = self.compare(bad, self.v2_current())
        self.assertEqual(code, 1, out)


if __name__ == "__main__":
    unittest.main()
