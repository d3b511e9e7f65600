"""Self-test of the benchmark harness on tiny inputs.

    python3 perfbench/selftest.py

Checks the span arithmetic of the tracer on synthetic calls, runs each
workload shape on a tiny input with and without tracing and compares
their counts, checks that the output checks catch a changed value, and
that the benchmark refuses to run where the program is missing.  Takes
a few seconds; prints one line per check and exits 1 if any fails.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402
import worker  # noqa: E402

WORK = run.WORK / "selftest"
FAILURES: list[str] = []

TINY = {
    "mms-ladder": {"kind": "study", "cells": (4, 8), "mapping": {
        **worker.MMS_BASE, "time": {"alpha": -0.05, "t_final": 5.0e-4}}},
    "driven-graded": {"kind": "cli", "argv": ["simulate"], "mapping": {
        **worker.DRIVEN_GRADED,
        "mesh": {"n_cells": 16, "degree_policy": "center_graded"},
        "time": {"dt": 1.0e-3, "t_final": 0.01},
        "output": {"snapshot_interval": 0.005, "samples": 32}}},
    "sweep-grid": {"kind": "cli",
                   "argv": ["sweep", "--grid", "all", "--jobs", "1"],
                   "mapping": {"material": {"b": 0.0},
                               "mesh": {"n_cells": 8},
                               "time": {"t_final": 0.005},
                               "output": {"snapshot_interval": 0.0025,
                                          "samples": 16}}},
}
TINY_RUNS = {"mms-ladder": 2, "driven-graded": 1, "sweep-grid": 7}


def check(ok: bool, what: str):
    print(f"{'ok' if ok else 'FAIL'}: {what}")
    if not ok:
        FAILURES.append(what)


def spans_consistent(tracer: worker.Tracer) -> bool:
    """Parents precede and enclose children; self times sum to roots."""
    spans = tracer.spans
    for name, start, end, parent, _ in spans:
        if not start <= end:
            return False
        if parent >= 0 and not (parent < len(spans)
                                and spans[parent][1] <= start
                                and end <= spans[parent][2]):
            return False
    summary = tracer.summary()
    total_self = sum(row[1] for row in summary["spans"].values())
    return abs(total_self - summary["root_s"]) <= 1e-9 * max(1.0, total_self)


def test_tracer_arithmetic():
    tracer = worker.Tracer()

    def leaf():
        time.sleep(0.002)

    inner = tracer.span(leaf, "b.leaf")
    same_layer = tracer.span(leaf, "a.helper")

    def outer():
        time.sleep(0.002)
        inner()
        same_layer()

    top = tracer.span(outer, "a.top", starts_run=True)
    top()
    top()
    names = [s[0] for s in tracer.spans]
    check(names == ["a.top", "b.leaf", "a.top", "b.leaf"],
          "a call inside a span of its own layer opens no span")
    check([s[4] for s in tracer.spans] == [1, 1, 2, 2],
          "each run-starting call gets its own run id")
    check(spans_consistent(tracer), "synthetic spans nest and self times "
          "add up to root time")
    table = tracer.summary()["spans"]
    check(table["a.top"][1] >= 0.008 and table["b.leaf"][0] == 2,
          "self time of a span excludes its child spans only")


def tiny_pass(name: str, trace: bool) -> tuple[dict, worker.Tracer | None]:
    return worker.run_pass(TINY[name], WORK / f"{name}-{int(trace)}", trace,
                           0.0)


def test_tiny_workloads():
    worker.import_stresswave()
    for name in TINY:
        plain, _ = tiny_pass(name, False)
        traced, tracer = tiny_pass(name, True)
        check(plain["exit_code"] == 0 and traced["exit_code"] == 0,
              f"{name}: tiny pass exits 0")
        same = all(plain[k] == traced[k] for k in ("newton_iters", "runs"))
        check(same and len(plain["latencies_s"]) == len(traced["latencies_s"]),
              f"{name}: tracing changes no count")
        check(traced["spans"]["integrator.step"][0]
              == len(plain["latencies_s"]) > 0,
              f"{name}: one integrator.step span per advance_step call")
        runs = {s[4] for s in tracer.spans if s[0] == "run"}
        check(len(runs) == TINY_RUNS[name] == plain["runs"] and 0 not in runs,
              f"{name}: {TINY_RUNS[name]} runs, each with its own run id")
        check(spans_consistent(tracer), f"{name}: spans nest and self times "
              "add up to root time")
        check(plain["run_setup_s"] > 0.0, f"{name}: per-run set-up measured")
        check(len(plain["probes"]) > 0 and "probes" not in traced,
              f"{name}: speed probes run in untraced passes only")


def test_output_checks():
    mms = {"detail": {"rows": [[17, 1e-4, None], [33, 2.5e-5, 2.0],
                               [65, 6.3e-6, 1.99], [129, 1.6e-6, 1.98]]}}
    check(run.check_mms(mms, WORK) == [], "mms check passes good rates")
    mms["detail"]["rows"][3][2] = 1.9
    check(len(run.check_mms(mms, WORK)) == 1,
          "mms check fails a rate outside 2.00 +- 0.05")

    out = WORK / "sweep-check"
    (out / "result").mkdir(parents=True, exist_ok=True)
    summary = out / "result" / "sweep_summary.csv"
    text = (HERE / "reference" / "sweep-grid.csv").read_text()
    summary.write_text(text)
    ok = {"exit_code": 0}
    check(run.check_sweep(ok, out) == [], "sweep check passes reference")
    summary.write_text(text.replace("0.16634573290410543",
                                    "0.16634573290410600"))
    check(run.check_sweep(ok, out) == [], "sweep check allows roundoff")
    summary.write_text(text.replace("0.16634573290410543", "0.1663457"))
    check(len(run.check_sweep(ok, out)) == 1,
          "sweep check fails a member off by 1e-7 relative")
    check(len(run.check_sweep({"exit_code": 3}, out)) == 7,
          "sweep check fails every member on a non-zero exit")


def test_missing_program():
    bare = WORK / "bare"
    shutil.copytree(HERE, bare / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "mms-ladder",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60)
    check(proc.returncode != 0 and proc.stdout == "",
          "without src/stresswave the benchmark exits non-zero, no result")


def main() -> int:
    WORK.mkdir(parents=True, exist_ok=True)
    try:
        test_tracer_arithmetic()
        test_tiny_workloads()
        test_output_checks()
        test_missing_program()
    finally:
        run.remove_work(WORK)
    print(json.dumps({"selftest_failures": FAILURES}))
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
