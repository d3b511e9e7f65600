"""One benchmark pass of one workload, in a fresh interpreter.

    python3 perfbench/worker.py --workload NAME --out DIR --result FILE
                                [--trace --spans FILE]

The pass times `import stresswave` (from the checkout's `src/`), runs the
workload once through its public entry point and writes a JSON result:
wall time, per-run set-up time, the latency of every
`integrator.advance_step` call, Newton iteration count and peak RSS.  An
untraced pass also probes the machine's speed between steps (see
`probe`).  A traced pass takes no probes; it wraps the public functions
of each module from outside and records one span per call (see
`Tracer`), written to `--spans` when the pass ends.

Only the standard library is imported before the timed import, so the
import time includes numpy and scipy.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
clock = time.perf_counter

# Acceptance MMS base (b=1, a=2, alpha=-0.05, no drive, no snapshots) with
# t_final shortened from 0.1 s to 0.02 s: 2,000 steps per rung at dt=1e-5.
MMS_BASE = {
    "material": {"rho": 1.0, "b": 1.0, "a": 2.0},
    "drive": {"A": 0.0},
    "time": {"alpha": -0.05, "t_final": 0.02},
    "output": {"snapshot_interval": 0.0},
}
DRIVEN_GRADED = {
    "material": {"rho": 1.0, "b": 5.0, "a": 1.5},
    "mesh": {"L": 1.0, "n_cells": 128, "degree_policy": "center_graded"},
    "time": {"dt": 1.0e-3, "t_final": 1.0, "alpha": -0.05},
    "output": {"snapshot_interval": 0.01, "samples": 2048},
}

# name -> how to run it.  "study" calls verification.convergence_study on
# the parsed mapping; "cli" calls cli.main with argv (plus --config when
# a mapping is given, and --out, --quiet).
WORKLOADS = {
    "mms-ladder": {"kind": "study", "mapping": MMS_BASE, "cells": None},
    "driven-graded": {"kind": "cli", "argv": ["simulate"],
                      "mapping": DRIVEN_GRADED},
    "sweep-grid": {"kind": "cli",
                   "argv": ["sweep", "--grid", "all", "--jobs", "1"],
                   "mapping": None},
}


def rebind(modules, original, replacement, undo: list):
    """Replace every module-level binding of `original` in `modules`."""
    for mod in modules:
        for name, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, name, replacement)
                undo.append((mod, name, original))


def restore(undo: list):
    for mod, name, original in reversed(undo):
        setattr(mod, name, original)
    undo.clear()


def package_modules():
    return [m for name, m in sys.modules.items()
            if m is not None and (name == "stresswave"
                                  or name.startswith("stresswave."))]


# Seconds between speed probes; a probe takes about 0.4 ms.
PROBE_INTERVAL_S = 0.01


def probe() -> float:
    """Time a fixed mix of the two kinds of work the program does.

    Small numpy calls, as in a step, and float formatting into CSV rows,
    as in a snapshot.  On a shared host the machine's speed drifts by
    tens of percent within a pass.  Probes taken between steps follow
    it, and run.py scales the pass's times by them.
    """
    import numpy as np
    x = np.linspace(0.0, 1.0, 129)
    writer = csv.writer(io.StringIO())
    acc = 0.0
    t0 = clock()
    for k in range(40):
        y = np.sqrt(x + k) * x
        acc += float(np.dot(y, x))
    for k in range(30):
        writer.writerow([f"{v + k:.17g}" for v in x[1:7]])
    elapsed = clock() - t0
    if not acc > 0.0:
        raise RuntimeError("probe loop produced no result")
    return elapsed


class StepTimer:
    """Latency of each `advance_step` call and the set-up of each run.

    A run's set-up is the time from entering `run_simulation` to the start
    of its first `advance_step`.  Only these two names are wrapped.  With
    `probing`, a speed probe runs before a step once PROBE_INTERVAL_S has
    passed since the last one, outside the step's timed interval.
    """

    def __init__(self, probing: bool):
        self.latencies: list[float] = []
        self.newton_iters = 0
        self.setup_s = 0.0
        self.runs = 0
        # [number of steps before the probe, probe seconds]
        self.probes: list[list] = []
        self._probing = probing
        self._last_probe = float("-inf")
        self._entered = None
        self._undo: list = []

    def install(self):
        from stresswave import integrator
        step, run = integrator.advance_step, integrator.run_simulation

        def advance_step(*args, **kwargs):
            now = clock()
            if self._entered is not None:
                self.setup_s += now - self._entered
                self._entered = None
            if self._probing and now - self._last_probe >= PROBE_INTERVAL_S:
                self.probes.append([len(self.latencies), probe()])
                self._last_probe = clock()
            t0 = clock()
            out = step(*args, **kwargs)
            self.latencies.append(clock() - t0)
            self.newton_iters += out[1].iters
            return out

        def run_simulation(*args, **kwargs):
            self.runs += 1
            self._entered = clock()
            return run(*args, **kwargs)

        modules = package_modules()
        rebind(modules, step, advance_step, self._undo)
        rebind(modules, run, run_simulation, self._undo)

    def uninstall(self):
        restore(self._undo)


# (module, attribute, span name).  A wrapped name is replaced wherever a
# module of the package binds it, so each caller's lookup goes through it.
TRACED_FUNCTIONS = (
    ("constitutive", "strain", "constitutive"),
    ("constitutive", "strain_derivative", "constitutive"),
    ("constitutive", "wave_speed", "constitutive"),
    ("fe_space", "build_space", "fe_space.build_space"),
    ("config", "parse_config", "config.parse"),
    ("config", "load_config", "config.parse"),
    ("integrator", "advance_step", "integrator.step"),
    ("integrator", "initial_acceleration", "integrator.init_accel"),
    ("verification", "mms_forcing", "verification.forcing"),
    ("verification", "l2_error", "verification.l2_error"),
    ("postprocess", "sample_solution", "postprocess.sample"),
    ("postprocess", "reconstruct", "postprocess.reconstruct"),
    ("postprocess", "write_snapshot", "postprocess.write"),
    ("postprocess", "append_spacetime", "postprocess.write"),
)
# Every other public function of `assembly` is traced as assembly.<name>.
ASSEMBLY_NAMES = {
    "assemble_residual": "assembly.residual",
    "assemble_tangent": "assembly.tangent",
    "apply_dirichlet": "assembly.dirichlet",
    "assemble_load_at": "assembly.load",
}
# Calls that begin one rung, member or simulate; each gets a new run id.
# run_simulation is also a span, in a layer of its own ("run") so that
# the steps inside it stay separate integrator spans.
RUN_STARTS = (("verification", "_mms_run_error"), ("cli", "_sweep_member"),
              ("cli", "run_scenario"))


class Tracer:
    """In-memory spans around the calls into each layer.

    A span is [name, start, end, parent index, run id].  Its layer is the
    part of the name before the first dot.  A call made while a span of
    the same layer is open belongs to that span and opens none, so a
    layer's self time (span time minus child spans) counts its internal
    helpers once.  Names that do not exist in the program are skipped.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.run = 0
        self._runs = 0
        self._stack: list[tuple[int, str]] = []
        self._undo: list = []

    def span(self, fn, name: str, starts_run: bool = False):
        layer = name.partition(".")[0]
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            if stack and stack[-1][1] == layer:
                return fn(*args, **kwargs)
            run = self.run
            if starts_run and run == 0:
                self._runs += 1
                self.run = self._runs
            rec = [name, 0.0, 0.0, stack[-1][0] if stack else -1, self.run]
            stack.append((len(spans), layer))
            spans.append(rec)
            rec[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
                self.run = run

        return traced

    def run_marker(self, fn):
        def marked(*args, **kwargs):
            run = self.run
            if run == 0:
                self._runs += 1
                self.run = self._runs
            try:
                return fn(*args, **kwargs)
            finally:
                self.run = run

        return marked

    def install(self):
        import inspect

        from stresswave import assembly, integrator
        modules = package_modules()
        pkg = {m.__name__.rpartition(".")[2]: m for m in modules}
        for mod_name, attr, name in TRACED_FUNCTIONS:
            fn = getattr(pkg.get(mod_name), attr, None)
            if fn is not None:
                rebind(modules, fn, self.span(fn, name), self._undo)
        for attr, fn in vars(assembly).items():
            if (inspect.isfunction(fn) and not attr.startswith("_")
                    and fn.__module__ == assembly.__name__):
                name = ASSEMBLY_NAMES.get(attr, f"assembly.{attr}")
                rebind(modules, fn, self.span(fn, name), self._undo)
        solve = getattr(getattr(assembly, "BandedMatrix", None), "solve", None)
        if solve is not None:
            assembly.BandedMatrix.solve = self.span(solve, "assembly.solve")
            self._undo.append((assembly.BandedMatrix, "solve", solve))
        run = integrator.run_simulation
        rebind(modules, run, self.span(run, "run", starts_run=True),
               self._undo)
        for mod_name, attr in RUN_STARTS:
            fn = getattr(pkg.get(mod_name), attr, None)
            if fn is not None:
                rebind(modules, fn, self.run_marker(fn), self._undo)

    def uninstall(self):
        restore(self._undo)

    def summary(self) -> dict:
        """{name: [calls, self seconds, total seconds]} and root coverage."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        table: dict[str, list] = {}
        roots = 0.0
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            row = table.setdefault(name, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += end - start - child[i]
            row[2] += end - start
            if parent < 0:
                roots += end - start
        return {"spans": table, "root_s": roots}

    def write(self, path: Path):
        with open(path, "w") as fh:
            fh.write("name,start,end,parent,run\n")
            for name, start, end, parent, run in self.spans:
                fh.write(f"{name},{start!r},{end!r},{parent},{run}\n")


def run_workload(spec: dict, out: Path, tracer: Tracer | None) -> tuple:
    """Run one pass; return (wall seconds, exit code, detail dict)."""
    from stresswave import cli, config, verification
    out.mkdir(parents=True, exist_ok=True)
    if spec["kind"] == "study":
        t0 = clock()
        base = config.parse_config(spec["mapping"])
        table = verification.convergence_study("spatial", base,
                                               cells=spec["cells"])
        wall = clock() - t0
        rows = [[r.dofs, r.l2_error, r.rate] for r in table.rows]
        return wall, 0, {"rows": rows}
    argv = list(spec["argv"])
    if spec["mapping"] is not None:
        path = out / "scenario.json"
        path.write_text(json.dumps(spec["mapping"]))
        argv += ["--config", str(path)]
    argv += ["--out", str(out / "result"), "--quiet"]
    main = cli.main if tracer is None else tracer.span(cli.main, "cli")
    t0 = clock()
    code = main(argv)
    wall = clock() - t0
    return wall, code, {}


def run_pass(spec: dict, out: Path, trace: bool,
             import_s: float) -> tuple[dict, Tracer | None]:
    timer = StepTimer(probing=not trace)
    timer.install()
    tracer = None
    if trace:
        tracer = Tracer()
        tracer.install()
    try:
        wall, code, detail = run_workload(spec, out, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
        timer.uninstall()
    result = {
        "trace": trace,
        "wall_s": wall,
        "exit_code": code,
        "import_s": import_s,
        "run_setup_s": timer.setup_s,
        "runs": timer.runs,
        "latencies_s": timer.latencies,
        "newton_iters": timer.newton_iters,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "detail": detail,
        "versions": {"numpy": sys.modules["numpy"].__version__,
                     "scipy": sys.modules["scipy"].__version__},
    }
    if tracer is not None:
        result.update(tracer.summary())
    else:
        result["probes"] = timer.probes
        result["probe_total_s"] = sum(d for _, d in timer.probes)
    return result, tracer


def import_stresswave() -> float:
    """Import the checkout's stresswave; return the seconds it took."""
    sys.path.insert(0, str(SRC))
    t0 = clock()
    import stresswave  # noqa: F401
    from stresswave import (assembly, cli, config, constitutive,  # noqa: F401
                            fe_space, integrator, postprocess, verification)
    elapsed = clock() - t0
    if SRC.resolve() not in Path(stresswave.__file__).resolve().parents:
        raise ImportError(f"stresswave imported from {stresswave.__file__}, "
                          f"not from {SRC}")
    return elapsed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--result", required=True, type=Path)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", type=Path)
    args = parser.parse_args(argv)
    import_s = import_stresswave()
    result, tracer = run_pass(WORKLOADS[args.workload], args.out, args.trace,
                              import_s)
    if tracer is not None and args.spans is not None:
        tracer.write(args.spans)
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
