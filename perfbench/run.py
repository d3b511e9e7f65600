"""stresswave benchmark: run one workload for a fixed time and report.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout that holds `src/stresswave`.  Each pass
runs the workload once in a fresh interpreter (perfbench/worker.py); the
run repeats passes until the next one would end after `--seconds`, with
a floor of three passes (two in a traced run).  Every pass's outputs are checked against the
references in perfbench/reference.  The last line of standard output is
one JSON object with `correct`, `attempted`, `failed` and `metrics`:

  --trace 0  end-to-end metrics (medians over passes; the step latency
             median over the pooled `advance_step` calls), with wall and
             step times scaled to a nominal machine speed (see `scale`);
  --trace 1  per-layer metrics from traced passes, which alternate with
             untraced ones so `trace.overhead_s` compares the two.

A run is one rung, member or simulate; `attempted` and `failed` count
runs.  The exit code is 0 when every check passes, 1 when one fails and
2 when the program to measure is missing.  Inputs are fixed because
outputs are compared with references; the seed only decides whether a
traced run begins with a traced or an untraced pass.
"""
from __future__ import annotations

import argparse
import bisect
import csv
import itertools
import json
import math
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference"
WORK = ROOT / ".perfbench_work"
TRACE_OUT = ROOT / ".perfbench_out"
sys.path.insert(0, str(HERE))
from worker import WORKLOADS  # noqa: E402

MIN_PASSES = 3
# Nominal time of one speed probe (worker.probe), as measured on a 2-vCPU
# Xeon (Sapphire Rapids, 2.1 GHz) guest of a shared host.  Scaled times
# are the times at the speed where a probe takes this long.
REF_PROBE_S = 4.0e-4
# Probes on each side of a step whose mean scales that step's latency.
LOCAL_PROBES = 2
# A run must end within 180 s; no pass may start or go on past this.
DEADLINE_S = 170.0
# Runs (rungs, members or simulates) in one pass of each workload.
RUNS = {"mms-ladder": 4, "driven-graded": 1, "sweep-grid": 7}
MMS_DOFS = [17, 33, 65, 129]
MMS_RATE, MMS_RATE_TOL = 2.0, 0.05
DRIVEN_SNAPSHOTS = 101
REL_TOL = 1e-9
# Roundoff floor for values near zero, such as |c - 1| when c is 1 to
# machine precision; every compared quantity is of order one or smaller.
ABS_TOL = 1e-14

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "step_ms_p50": "ms",
                    "newton_iters": "count", "peak_rss_mb": "MB"}
# per-layer metric -> (span name, field); field is "calls", "self" or
# "total" of that span name in a traced pass.
SPAN_METRICS = {
    "constitutive.calls": ("constitutive", "calls"),
    "constitutive.self_s": ("constitutive", "self"),
    "assembly.residual.calls": ("assembly.residual", "calls"),
    "assembly.residual.self_s": ("assembly.residual", "self"),
    "assembly.tangent.calls": ("assembly.tangent", "calls"),
    "assembly.tangent.self_s": ("assembly.tangent", "self"),
    "assembly.dirichlet.calls": ("assembly.dirichlet", "calls"),
    "assembly.dirichlet.self_s": ("assembly.dirichlet", "self"),
    "assembly.solve.calls": ("assembly.solve", "calls"),
    "assembly.solve.self_s": ("assembly.solve", "self"),
    "assembly.load.self_s": ("assembly.load", "self"),
    "verification.forcing.self_s": ("verification.forcing", "self"),
    "verification.l2_error.self_s": ("verification.l2_error", "self"),
    "integrator.init_accel_s": ("integrator.init_accel", "total"),
    "fe_space.build_space.calls": ("fe_space.build_space", "calls"),
    "fe_space.build_space.self_s": ("fe_space.build_space", "self"),
    "config.parse.self_s": ("config.parse", "self"),
    "cli.self_s": ("cli", "self"),
    "postprocess.sample.self_s": ("postprocess.sample", "self"),
    "postprocess.reconstruct.self_s": ("postprocess.reconstruct", "self"),
    "postprocess.write.self_s": ("postprocess.write", "self"),
}
COUNT_FIELDS = ("newton_iters", "steps", "snapshots", "bytes")


def unit_of(metric: str) -> str:
    if metric in END_TO_END_UNITS:
        return END_TO_END_UNITS[metric]
    if metric == "integrator.newton_per_step":
        return "iter/step"
    if metric == "integrator.step_ms_p99":
        return "ms"
    if metric == "postprocess.bytes":
        return "B"
    if metric.endswith("_s"):
        return "s"
    return "count"


# ---------------------------------------------------------------- checks

def close(ref, got) -> bool:
    if isinstance(ref, int) and isinstance(got, int):
        return ref == got
    if isinstance(ref, (int, float)) and isinstance(got, (int, float)):
        return math.isclose(ref, got, rel_tol=REL_TOL, abs_tol=ABS_TOL)
    return ref == got


def csv_value(text: str):
    for typ in (int, float):
        try:
            return typ(text)
        except ValueError:
            pass
    return text


def read_csv(path: Path) -> list[list]:
    with open(path, newline="") as fh:
        return [[csv_value(v) for v in row] for row in csv.reader(fh)]


def check_mms(result: dict, out: Path) -> list[str]:
    rows = result["detail"]["rows"]
    errors = []
    for i, dofs in enumerate(MMS_DOFS):
        if i >= len(rows):
            errors.append(f"rung {i}: missing")
            continue
        got_dofs, _, rate = rows[i]
        if got_dofs != dofs:
            errors.append(f"rung {i}: {got_dofs} DoFs, expected {dofs}")
        elif i > 0 and not abs(rate - MMS_RATE) <= MMS_RATE_TOL:
            errors.append(f"rung {i}: rate {rate}, expected "
                          f"{MMS_RATE} +- {MMS_RATE_TOL}")
    return errors


def check_driven(result: dict, out: Path) -> list[str]:
    if result["exit_code"] != 0:
        return [f"exit code {result['exit_code']}"]
    errors = []
    n = len(list((out / "result").glob("snapshot_*.csv")))
    if n != DRIVEN_SNAPSHOTS:
        errors.append(f"{n} snapshot files, expected {DRIVEN_SNAPSHOTS}")
    stats = json.loads((out / "result" / "manifest.json").read_text())["stats"]
    stats.pop("wall_time", None)  # a timing, not an output
    ref = json.loads((REFERENCE / "driven-graded.json").read_text())
    if set(stats) != set(ref):
        errors.append(f"manifest stats keys {sorted(stats)}, "
                      f"expected {sorted(ref)}")
    errors += [f"manifest stats {k}: {stats[k]!r}, expected {ref[k]!r}"
               for k in sorted(set(ref) & set(stats))
               if not close(ref[k], stats[k])]
    return errors


def check_sweep(result: dict, out: Path) -> list[str]:
    members = RUNS["sweep-grid"]
    if result["exit_code"] != 0:
        return [f"exit code {result['exit_code']}"] * members
    ref = read_csv(REFERENCE / "sweep-grid.csv")
    got = read_csv(out / "result" / "sweep_summary.csv")
    errors = []
    if got[:1] != ref[:1] or len(got) != len(ref):
        return [f"summary header or row count differs: "
                f"{len(got) - 1} rows"] * members
    for ref_row, got_row in zip(ref[1:], got[1:]):
        if len(ref_row) != len(got_row) or not all(
                close(r, g) for r, g in zip(ref_row, got_row)):
            errors.append(f"member {ref_row[0]}: {got_row}, "
                          f"expected {ref_row}")
    return errors


CHECKS = {"mms-ladder": check_mms, "driven-graded": check_driven,
          "sweep-grid": check_sweep}


def output_counts(out: Path) -> tuple[int, int]:
    """(snapshot files, bytes of snapshot and space-time files)."""
    snaps = list(out.rglob("snapshot_*.csv"))
    files = snaps + list(out.rglob("spacetime.csv"))
    return len(snaps), sum(f.stat().st_size for f in files)


# ---------------------------------------------------------------- passes

def remove_work(work: Path):
    """Delete a work directory, and WORK too once nothing is left in it."""
    shutil.rmtree(work, ignore_errors=True)
    if WORK.is_dir() and not any(WORK.iterdir()):
        WORK.rmdir()


def run_pass(workload: str, trace: bool, index: int, work: Path,
             timeout: float) -> dict:
    """Run one pass in a fresh interpreter, check it, return its record.

    A pass that crashes, times out or whose check raises fails all its
    runs; otherwise each failed check fails one run.
    """
    out = work / f"pass{index}"
    result_path = work / f"pass{index}.json"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--out", str(out), "--result", str(result_path)]
    if trace:
        TRACE_OUT.mkdir(exist_ok=True)
        cmd += ["--trace", "--spans", str(TRACE_OUT / f"{workload}-spans.csv")]
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=timeout)
        failure = None if proc.returncode == 0 else \
            f"pass exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"
    except subprocess.TimeoutExpired:
        failure = f"pass timed out after {timeout:.0f} s"
    record = {"trace": trace, "elapsed_s": time.perf_counter() - t0}
    runs = RUNS[workload]
    if failure is None:
        record.update(json.loads(result_path.read_text()))
        try:
            errors = CHECKS[workload](record, out)
        except (OSError, KeyError, ValueError, IndexError) as exc:
            errors = [f"output check raised {exc!r}"] * runs
        record["snapshots"], record["bytes"] = output_counts(out)
        record["steps"] = len(record["latencies_s"])
        if trace:  # traced latencies include tracing cost; not reported
            del record["latencies_s"]
        else:
            record["probe_s"] = statistics.fmean(d for _, d in
                                                 record["probes"])
    else:
        errors = [failure] * runs
    record["attempted"] = runs
    record["failed"] = min(len(errors), runs)
    record["errors"] = errors
    shutil.rmtree(out, ignore_errors=True)
    result_path.unlink(missing_ok=True)
    return record


def schedule(workload: str, seconds: float, trace: bool, seed: int,
             work: Path) -> list[dict]:
    """Run passes until the next one would end after `seconds`.

    Untraced runs make at least MIN_PASSES passes; traced runs alternate
    traced and untraced passes, at least one of each, starting with the
    mode the seed picks.  The next pass is estimated to take as long as
    the slowest earlier pass of its mode.
    """
    modes = [False]
    if trace:
        modes = [True, False] if random.Random(seed).random() < 0.5 \
            else [False, True]
    floor = MIN_PASSES if not trace else 2
    passes: list[dict] = []
    t0 = time.perf_counter()
    while True:
        mode = modes[len(passes) % len(modes)]
        left = DEADLINE_S - (time.perf_counter() - t0)
        passes.append(run_pass(workload, mode, len(passes), work, left))
        if "wall_s" not in passes[-1]:
            break  # the pass itself failed; later ones would too
        mode = modes[len(passes) % len(modes)]
        estimate = max([p["elapsed_s"] for p in passes if p["trace"] == mode]
                       or [p["elapsed_s"] for p in passes])
        elapsed = time.perf_counter() - t0
        if elapsed + estimate > DEADLINE_S or (
                len(passes) >= floor and elapsed + estimate > seconds):
            break
    return passes


# ---------------------------------------------------------------- metrics

def percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def scale(p: dict) -> float:
    """Factor that takes an untraced pass's times to the nominal speed.

    The machine's speed drifts by tens of percent over minutes, and the
    probes a pass takes between its steps follow it.  Over 13 passes of
    sweep-grid, pass wall time and mean probe time correlated at 0.92,
    and scaling cut the spread of wall time from 0.048 to 0.020
    (coefficients of variation).
    """
    return REF_PROBE_S / p["probe_s"]


def scaled_latencies(p: dict) -> list[float]:
    """An untraced pass's step latencies, each scaled by nearby probes.

    The speed also changes within a pass, and a median (unlike a total)
    moves with where the fast and slow stretches fall.  So each step is
    scaled by the mean of the LOCAL_PROBES probes before it and after it.
    On driven-graded this cut the pass-to-pass spread of the median step
    from 0.07 with the pass's factor to 0.03 (coefficients of variation).
    """
    at = [i for i, _ in p["probes"]]
    sums = list(itertools.accumulate((d for _, d in p["probes"]),
                                     initial=0.0))
    out = []
    for j, x in enumerate(p["latencies_s"]):
        i = bisect.bisect_right(at, j)
        lo, hi = max(0, i - LOCAL_PROBES), min(len(at), i + LOCAL_PROBES)
        out.append(x * REF_PROBE_S * (hi - lo) / (sums[hi] - sums[lo]))
    return out


def net_wall(p: dict) -> float:
    """Wall time of a pass without the probes taken inside it."""
    return p["wall_s"] - p.get("probe_total_s", 0.0)


def pooled_latencies(passes: list[dict]) -> list[float]:
    """Step latencies of the untraced passes, scaled to nominal speed."""
    return [x for p in passes if not p["trace"] for x in scaled_latencies(p)]


def end_to_end(passes: list[dict]) -> dict:
    plain = [p for p in passes if not p["trace"]]
    return {
        "wall_s": statistics.median(scale(p) * net_wall(p) for p in plain),
        # Unscaled: import time followed the probes only weakly, and
        # scaling it widened its spread.
        "setup_s": statistics.median(p["import_s"] + p["run_setup_s"]
                                     for p in plain),
        "step_ms_p50": 1e3 * percentile(pooled_latencies(passes), 50),
        "newton_iters": plain[0]["newton_iters"],
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain),
    }


def span_value(p: dict, span: str, field: str):
    calls, self_s, total_s = p["spans"].get(span, [0, 0.0, 0.0])
    return {"calls": calls, "self": self_s, "total": total_s}[field]


def per_layer(passes: list[dict]) -> dict:
    traced = [p for p in passes if p["trace"]]
    plain = [p for p in passes if not p["trace"]]

    def med(fn):
        return statistics.median(fn(p) for p in traced)

    # Call counts repeat exactly across passes (count_mismatches checks).
    metrics = {m: span_value(traced[0], s, f) if f == "calls"
               else med(lambda p, s=s, f=f: span_value(p, s, f))
               for m, (s, f) in SPAN_METRICS.items()}
    metrics["integrator.steps"] = traced[0]["steps"]
    metrics["integrator.newton_per_step"] = \
        traced[0]["newton_iters"] / max(traced[0]["steps"], 1)
    # The step latency tail, from the untraced passes.  Unscaled, its
    # median moved by 0.44 between two sets of runs on driven-graded, too
    # much for an end-to-end bound.
    metrics["integrator.step_ms_p99"] = \
        1e3 * percentile(pooled_latencies(passes), 99)
    metrics["integrator.self_s"] = med(
        lambda p: sum(row[1] for name, row in p["spans"].items()
                      if name.startswith("integrator.")))
    metrics["postprocess.bytes"] = traced[0]["bytes"]
    metrics["postprocess.snapshots"] = traced[0]["snapshots"]
    metrics["trace.overhead_s"] = med(lambda p: p["wall_s"]) - \
        statistics.median(net_wall(p) for p in plain)
    metrics["trace.uncovered_s"] = med(lambda p: p["wall_s"] - p["root_s"])
    metrics["machine.ref_s"] = statistics.median(p["probe_s"] for p in plain)
    return metrics


def count_mismatches(passes: list[dict]) -> list[str]:
    """Counts that differ between passes (they must repeat exactly)."""
    errors = []
    for field in COUNT_FIELDS:
        values = {p[field] for p in passes}
        if len(values) > 1:
            errors.append(f"{field} differs between passes: {sorted(values)}")
    traced = [p for p in passes if p["trace"]]
    for span in sorted({s for p in traced for s in p["spans"]}):
        values = {span_value(p, span, "calls") for p in traced}
        if len(values) > 1:
            errors.append(f"{span} calls differ between passes: "
                          f"{sorted(values)}")
    return errors


def machine_record(passes: list[dict], seed: int) -> dict:
    versions = passes[-1].get("versions", {})
    probes = [p["probe_s"] for p in passes if "probe_s" in p]
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": versions.get("numpy"), "scipy": versions.get("scipy"),
            "loadavg": list(os.getloadavg()), "seed": seed,
            "machine.ref_s": statistics.median(probes) if probes else None}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "stresswave" / "__init__.py").is_file():
        print(f"error: no stresswave package under {ROOT / 'src'}; run from "
              "a checkout of the repository", file=sys.stderr)
        return 2

    work = WORK / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        passes = schedule(args.workload, args.seconds, bool(args.trace),
                          args.seed, work)
    finally:
        remove_work(work)

    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    errors = [e for p in passes for e in p["errors"]]
    metrics = {}
    if all("wall_s" in p for p in passes):
        mismatches = count_mismatches(passes)
        errors += mismatches
        failed = min(attempted, failed + len(mismatches))
        metrics = per_layer(passes) if args.trace else end_to_end(passes)
    correct = failed == 0

    for e in errors:
        print(f"check failed: {e}", file=sys.stderr)
    print(json.dumps({"machine": machine_record(passes, args.seed),
                      "workload": args.workload,
                      "traced": [p["trace"] for p in passes],
                      "pass_wall_s": [p.get("wall_s") for p in passes],
                      "pass_probe_s": [p.get("probe_s") for p in passes]}))
    for name, value in metrics.items():
        print(f"{args.workload:>14} {name:<32} {value:>16.6g} {unit_of(name)}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)}
                    for k, v in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
