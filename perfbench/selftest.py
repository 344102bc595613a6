#!/usr/bin/env python3
"""Self-test of the benchmark at smoke size.

Usage (from the repository root):

    python3 perfbench/selftest.py

Runs every workload timed and traced on tiny inputs through run.py and
asserts that every metric appears with its unit, that the output checks
pass, and that each workload's bypassed layers did no work.  It also feeds
the runner fake child runs that hang, crash or stop part-way, which must
be reported as failed instead of stalling the runner.  Exits non-zero on
the first failed assertion.
"""

import json
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402


def check(cond, what):
    if not cond:
        raise AssertionError(what)
    print(f"ok   {what}")


def check_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    check([w["name"] for w in spec["workloads"]] == run.GATED,
          "BENCHMARK.json names the runner's gated workloads")
    check([(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]]
          == run.END_TO_END, "BENCHMARK.json end-to-end metrics match")
    check([(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
          == run.PER_LAYER, "BENCHMARK.json per-layer metrics match")


def bench(workload, trace):
    """Runs run.py at smoke size; returns (result line, result record)."""
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "0.5", "--trace", str(trace),
         "--smoke"], capture_output=True, text=True, timeout=600)
    check(out.returncode == 0, f"{workload} trace {trace} exits 0")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    record = json.loads((run.OUT / "results" /
                         f"{workload}-seed1-trace{trace}.json").read_text())
    return result, record


def check_result(workload, trace, result):
    check(set(result) == {"correct", "attempted", "failed", "metrics"},
          f"{workload} trace {trace}: result has exactly the contract keys")
    check(result["correct"] and result["attempted"] >= 1,
          f"{workload} trace {trace}: output checks pass")
    metrics = run.END_TO_END if trace == 0 else run.per_layer(workload)
    expected = {name: unit for name, unit, _ in metrics}
    got = {n: m["unit"] for n, m in result["metrics"].items()}
    check(got == expected,
          f"{workload} trace {trace}: every metric appears with its unit")
    if trace == 0:
        check(all(m["value"] > 0 for m in result["metrics"].values()),
              f"{workload}: end-to-end metrics are positive")


def span_names(record):
    with open(run.ROOT / record["spans"]) as f:
        return {json.loads(line)["name"] for line in f}


def check_workloads():
    for workload in run.WORKLOADS:
        for trace in (0, 1):
            result, record = bench(workload, trace)
            check_result(workload, trace, result)
            if trace == 0:
                continue
            probes, names = record["probes"], span_names(record)
            if workload == "fleet_backscatter":
                check(probes["sim.events.executed"] > 0
                      and probes["fleet.inferences"] == 0,
                      "fleet_backscatter simulates events, runs no inference")
            elif workload == "netexec_inference":
                check(probes["netexec.inferences"] > 0 and not any(
                    n.startswith(("serve.", "fleet.FleetSimulator"))
                    for n in names),
                    "netexec_inference makes no serve or FleetSimulator call")
            else:
                check(probes["sim.events.executed"] == 0
                      and probes["serve.offered"] > 0,
                      "serve_mix records zero sim.events.executed")


def check_runner_failures():
    sleeper = [sys.executable, "-c", "import time; time.sleep(60)"]
    started = time.monotonic()
    hung = run.Child(sleeper, deadline_s=1.0).wait()
    check(hung.status == "hung" and time.monotonic() - started < 10.0,
          "a child sleeping past its deadline is stopped as hung")

    crash = run.Child([sys.executable, "-c",
                       "import os, signal; os.kill(os.getpid(), "
                       "signal.SIGSEGV)"], deadline_s=10.0).wait()
    check(crash.status == "signal 11", "a child killed by a signal is seen")

    partial = run.Child([sys.executable, "-c", (
        "import json, time\n"
        "print(json.dumps({'event': 'plan', 'items_per_pass': 5}))\n"
        "print(json.dumps({'event': 'pass', 'items': 5, 'refused': 0,"
        " 'ok': True, 'wall_s': 0.1, 'digest': '1'}), flush=True)\n"
        "time.sleep(60)\n")], deadline_s=1.0).wait()
    good = run.Child([sys.executable, "-c", (
        "import json\n"
        "print(json.dumps({'event': 'plan', 'items_per_pass': 5}))\n"
        "print(json.dumps({'event': 'pass', 'items': 5, 'refused': 2,"
        " 'ok': True, 'wall_s': 0.1, 'digest': '1'}))\n"
        "print(json.dumps({'event': 'done', 'peak_rss_mib': 1.0}))\n")],
        deadline_s=10.0).wait()
    tally = run.Tally()
    for child in (hung, crash, partial, good):
        tally.add(child)
    # hung: 1 in flight; crash: 1; partial: 5 done + 5 in flight; good: 5.
    check(tally.attempted == 17 and tally.failed == 14 and tally.lost == 12
          and tally.refused == 2,
          "failed runs count every operation they attempted as failed")

    other = run.Child([sys.executable, "-c", (
        "import json\n"
        "print(json.dumps({'event': 'pass', 'items': 5, 'refused': 0,"
        " 'ok': True, 'wall_s': 0.1, 'digest': '2'}))\n"
        "print(json.dumps({'event': 'done', 'peak_rss_mib': 1.0}))\n")],
        deadline_s=10.0).wait()
    tally.add(other)
    check(not tally.correct and tally.check_failed == 5,
          "a pass whose output digest differs fails its operations")


def main():
    check(run.build(), "benchmark binary builds")
    check_benchmark_json()
    check_runner_failures()
    check_workloads()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
