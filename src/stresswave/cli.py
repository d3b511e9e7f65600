"""Command-line driver.

Subcommands:

    mms-spatial   spatial convergence study, writes a rate table CSV
    mms-temporal  temporal convergence study, writes a rate table CSV
    simulate      single boundary-driven run with snapshot output
    sweep         parameter-grid runs with a summary CSV
    fit           calibrate (b, a) against a stress-strain dataset
    gen-data      generate a synthetic stress-strain dataset

Exit codes: 0 success, 2 config error, 3 solver failure, 4 I/O failure.

Start-up loads the solver only.  A subcommand imports its own machinery
when it runs: the mms studies the verification module, fit and gen-data
the calibration module, and sweep --jobs N > 1 the process pool.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import pickle
import sys
import time
import warnings
from pathlib import Path

import numpy as np

from .config import (ConfigError, ScenarioConfig, config_to_mapping,
                     load_config, parse_config)
from .constitutive import HyperbolicityError
from .fe_space import build_space
from .integrator import (NewtonDivergedError, SystemState, run_simulation,
                         snapshot_schedule)
from .postprocess import SnapshotWriter, snapshot_filename

# Constitutive setting of the published convergence tables.
MMS_BASE_MAPPING = {
    "material": {"rho": 1.0, "b": 1.0, "a": 2.0},
    "drive": {"A": 0.0},
    "time": {"alpha": -0.05},
}
# End time of the spatial study; rates are insensitive to it, runtime
# and error magnitudes are not (dt is pinned at 1e-5).
MMS_SPATIAL_T_FINAL = 0.1

SWEEP_B_GRID = ((0.0, 1.5), (1.0, 1.5), (5.0, 1.5), (10.0, 1.5))
SWEEP_A_GRID = ((1.0, 1.5), (1.0, 3.0), (1.0, 5.0), (1.0, 10.0))

# Fewest sample rows, kept states x (output.samples + 1), that run_scenario
# writes in a forked child.  Below it the fork's own costs (fork and reap,
# the copy-on-write faults a live child causes, the wait for the child's
# last block) exceed the output time it takes off the run's path; the
# measured costs are in CHANGES.md.
FORK_MIN_ROWS = 6_120

# Largest gen-data --n: a 39 MB file, made in about 100 MB of peak memory.
GEN_DATA_MAX_POINTS = 10**6


class _ForkedWriter:
    """A SnapshotWriter run in a forked child, fed through a pipe.

    keep sends a state down the pipe as the bytes of t and of its (3, n)
    array; the child writes each block as it fills, and when the pipe
    ends it sends back writer.finish() (or whatever ended it) by pickle
    and leaves by os._exit.  finish closes the pipe, reaps the child and
    returns its result, or an OSError if the child ended without one.
    """

    def __init__(self, writer: SnapshotWriter):
        states_r, self._states = os.pipe()
        self._result, result_w = os.pipe()
        # Python 3.12 warns when a process with threads forks, since a
        # lock another thread holds stays locked in the child.  The only
        # threads here are BLAS's, and the child makes no BLAS or LAPACK
        # call: sampling, reconstruction and formatting are elementwise.
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", DeprecationWarning)
                self.pid = os.fork()
        except OSError:
            for fd in (states_r, self._states, self._result, result_w):
                os.close(fd)
            raise
        if self.pid == 0:
            try:
                os.close(self._states)
                os.close(self._result)
                result = self._serve(writer, states_r)
            except BaseException as exc:
                result = exc
            try:
                with open(result_w, "wb") as fh:
                    pickle.dump(result, fh)
            finally:
                os._exit(0)
        os.close(states_r)
        os.close(result_w)

    @staticmethod
    def _serve(writer: SnapshotWriter, fd: int):
        size = 8 * (1 + 3 * writer.space.n_dofs)
        with open(fd, "rb") as states:
            while len(data := states.read(size)) == size:
                a = np.frombuffer(data)
                writer.keep(SystemState(float(a[0]), a[1:].reshape(3, -1)))
        return writer.finish()

    def keep(self, state: SystemState):
        if self._states is None:
            return  # the child is gone; finish says so
        view = memoryview(np.append(state.t, state.X)).cast("B")
        try:
            while view:
                view = view[os.write(self._states, view):]
        except BrokenPipeError:
            os.close(self._states)
            self._states = None

    def finish(self) -> dict | BaseException:
        if self._states is not None:
            os.close(self._states)
        try:
            with open(self._result, "rb") as fh:
                data = fh.read()
        finally:
            _, status = os.waitpid(self.pid, 0)
        try:
            return pickle.loads(data)
        except (EOFError, pickle.UnpicklingError):
            return OSError(f"the snapshot writer process ended without a "
                           f"result (exit code "
                           f"{os.waitstatus_to_exitcode(status)})")


def run_scenario(config: ScenarioConfig, out_dir: Path) -> dict:
    """Run one scenario, write snapshots + manifest, return run metrics.

    The snapshots are written while the run steps: by a SnapshotWriter in
    a forked child when the run writes at least FORK_MIN_ROWS sample rows
    and os.fork exists, else in this process.  A solver error wins over
    the writer's; either way the snapshots kept before it are on disk,
    and only a run that succeeds writes manifest.json.
    """
    schedule = snapshot_schedule(config.time.dt, config.time.t_final,
                                 config.output.snapshot_interval)
    names = [snapshot_filename(t) for _, t in schedule]
    if len(set(names)) < len(names):
        final = ""
        if names.count(names[-1]) > 1:
            final = (f"; time.t_final {schedule[-1][1]:g} shares the name "
                     f"{names[-1]} with an earlier snapshot")
        raise ConfigError(
            f"output.snapshot_interval: {len(names)} snapshots map to "
            f"{len(set(names))} file names, which carry t to 6 decimals{final}")
    space = build_space(config.mesh.L, config.mesh.n_cells,
                        config.mesh.degree_policy)
    writer = feed = SnapshotWriter(config, space, out_dir)
    if (len(schedule) * (config.output.samples + 1) >= FORK_MIN_ROWS
            and hasattr(os, "fork")):
        with contextlib.suppress(OSError):  # no process to spare: write here
            feed = _ForkedWriter(writer)
    handed_s = 0.0

    def on_keep(state: SystemState):
        nonlocal handed_s
        start = time.perf_counter()
        feed.keep(state)
        handed_s += time.perf_counter() - start

    try:
        _, report = run_simulation(config, on_keep=on_keep, space=space)
    finally:
        start = time.perf_counter()
        written = feed.finish()
        write_wait_s = time.perf_counter() - start
    if isinstance(written, BaseException):
        raise written
    step_s = report.wall_time - handed_s
    metrics = {
        "b": config.material.b,
        "a": config.material.a,
        "steps": len(report.newton_iters),
        "total_newton_iters": sum(report.newton_iters),
        "max_newton_iters": max(report.newton_iters),
        "max_abs_c_minus_1": written["max_abs_c_minus_1"],
        "final_max_stress_gradient": written["final_max_stress_gradient"],
        "wall_time": step_s,
        "snapshots": len(schedule),
    }
    telemetry = {"step_s": step_s, "write_s": written["write_s"],
                 "write_wait_s": write_wait_s,
                 "writer": "inline" if feed is writer else "forked"}
    manifest = {"config": config_to_mapping(config), "stats": metrics,
                "telemetry": telemetry}
    with open(out_dir / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2)
    return metrics


def _config_mapping(args, preset: dict | None = None) -> dict:
    """Mapping of --config (else `preset`) with --snapshot-every applied."""
    if args.config:
        mapping = config_to_mapping(load_config(args.config))
    elif preset is not None:
        mapping = preset
    else:
        raise ConfigError("--config PATH is required for this subcommand")
    if getattr(args, "snapshot_every", None) is not None:
        mapping.setdefault("output", {})["snapshot_interval"] = args.snapshot_every
    return mapping


def _out_dir(args, config: ScenarioConfig | None = None) -> Path:
    """--out if given, else the config's output.directory, else out."""
    if args.out:
        return Path(args.out)
    return Path("out" if config is None else config.output.directory)


def _say(args, message: str):
    if not args.quiet:
        print(message)


def cmd_simulate(args) -> int:
    config = parse_config(_config_mapping(args))
    out = _out_dir(args, config)
    metrics = run_scenario(config, out)
    _say(args, f"simulate: {metrics['steps']} steps, "
               f"max Newton iters {metrics['max_newton_iters']}, "
               f"max|c-1| {metrics['max_abs_c_minus_1']:.3e}")
    _say(args, f"outputs in {out}")
    return 0


def _mms_preset(kind: str) -> dict:
    preset = json.loads(json.dumps(MMS_BASE_MAPPING))
    if kind == "spatial":
        preset["time"]["t_final"] = MMS_SPATIAL_T_FINAL
    return preset


def cmd_mms(args, kind: str) -> int:
    from .verification import convergence_study
    config = parse_config(_config_mapping(args, preset=_mms_preset(kind)))
    table = convergence_study(kind, config)  # checks each rung's config
    out = _out_dir(args, config)
    out.mkdir(parents=True, exist_ok=True)
    path = table.write_csv(out / f"convergence_{kind}.csv")
    _say(args, str(table))
    _say(args, f"table written to {path}")
    return 0


def _sweep_member(mapping: dict, b: float, a: float, out_dir: str) -> tuple:
    """(label, the run's metrics or its solver failure) of one member."""
    config = parse_config({**mapping,
                           "material": {**mapping["material"], "b": b, "a": a}})
    label = f"b{b:g}_a{a:g}"
    try:
        metrics = run_scenario(config, Path(out_dir) / label)
    except (HyperbolicityError, NewtonDivergedError) as exc:
        return label, exc
    metrics["label"] = label
    return label, metrics


def cmd_sweep(args) -> int:
    if args.jobs < 1:
        raise ConfigError(f"--jobs must be at least 1, got {args.jobs}")
    base = _config_mapping(args, preset={"material": {"b": 0.0}})
    config = parse_config(base)  # fail early on bad base config

    members = []
    if args.grid in ("b", "all"):
        members.extend(SWEEP_B_GRID)
    if args.grid in ("a", "all"):
        members.extend(g for g in SWEEP_A_GRID if g not in members)

    out = _out_dir(args, config)
    out.mkdir(parents=True, exist_ok=True)
    jobs = min(args.jobs, len(members))
    if jobs == 1:
        outcomes = [_sweep_member(base, b, a, str(out)) for b, a in members]
    else:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            futures = [pool.submit(_sweep_member, base, b, a, str(out))
                       for b, a in members]
            outcomes = [f.result() for f in futures]
    results = [r for _, r in outcomes if isinstance(r, dict)]

    summary = out / "sweep_summary.csv"
    with open(summary, "w") as fh:
        fh.write("label,b,a,max_abs_c_minus_1,max_newton_iters,"
                 "final_max_stress_gradient\n")
        for r in results:
            fh.write(f"{r['label']},{r['b']:.17g},{r['a']:.17g},"
                     f"{r['max_abs_c_minus_1']:.17g},{r['max_newton_iters']},"
                     f"{r['final_max_stress_gradient']:.17g}\n")
    for r in results:
        _say(args, f"{r['label']:>10}: max|c-1| = {r['max_abs_c_minus_1']:.3e}, "
                   f"max Newton iters = {r['max_newton_iters']}")
    _say(args, f"summary written to {summary}")
    failed = [(label, r) for label, r in outcomes if not isinstance(r, dict)]
    for label, exc in failed:
        print(f"solver failure: sweep member {label}: {exc}", file=sys.stderr)
    return 3 if failed else 0


def cmd_fit(args) -> int:
    from .calibration import fit_material, load_dataset, write_fit_csv
    try:
        data = load_dataset(args.dataset)
        result = fit_material(data, init=(args.init_b, args.init_a),
                              max_iters=args.max_iters)
    except ValueError as exc:  # a bad data line, initial guess or budget
        raise ConfigError(str(exc)) from exc
    if not (math.isfinite(result.sse) and math.isfinite(result.r2)):
        print(f"solver failure: fit {data.label}: sse={result.sse:.6g} "
              f"r2={result.r2:.6g} is not finite", file=sys.stderr)
        return 3
    out = _out_dir(args)
    out.mkdir(parents=True, exist_ok=True)
    path = write_fit_csv(out / "fit.csv", data.label, result)
    flag = "" if result.converged else "  [did not converge]"
    _say(args, f"fit {data.label}: b={result.b:.6g} a={result.a:.6g} "
               f"sse={result.sse:.6g} r2={result.r2:.6f}{flag}")
    _say(args, f"result written to {path}")
    return 0 if result.converged else 3


def cmd_gen_data(args) -> int:
    from .calibration import generate_synthetic
    if not 3 <= args.n <= GEN_DATA_MAX_POINTS:
        raise ConfigError(f"--n: must be in [3, {GEN_DATA_MAX_POINTS}], "
                          f"got {args.n}")
    if args.seed is not None and args.seed < 0:
        raise ConfigError(f"--seed: must be non-negative, got {args.seed}")
    try:
        data = generate_synthetic(b=args.b, a=args.a, n_points=args.n,
                                  sigma_max=args.sigma_max, noise=args.noise,
                                  seed=args.seed)
    except ValueError as exc:  # a parameter out of range
        raise ConfigError(str(exc)) from exc
    path = Path(args.path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        fh.write("stress,strain\n")
        for s, e in zip(data.stresses, data.strains):
            fh.write(f"{s:.17g},{e:.17g}\n")
    _say(args, f"{args.n} points written to {path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stresswave",
        description="1D FE solver for stress waves in strain-limiting materials")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, scenario=True):
        if scenario:
            sp.add_argument("--config", metavar="PATH",
                            help="YAML scenario config")
        sp.add_argument("--out", metavar="DIR", help="output directory")
        sp.add_argument("--quiet", action="store_true")

    for kind in ("spatial", "temporal"):
        sp = sub.add_parser(f"mms-{kind}", help=f"{kind} convergence study")
        common(sp)
        sp.set_defaults(func=lambda a, kind=kind: cmd_mms(a, kind))

    sp = sub.add_parser("simulate", help="single boundary-driven run")
    common(sp)
    sp.add_argument("--snapshot-every", type=float, metavar="T",
                    help="override snapshot interval")
    sp.set_defaults(func=cmd_simulate)

    sp = sub.add_parser("sweep", help="material parameter grid runs")
    common(sp)
    sp.add_argument("--snapshot-every", type=float, metavar="T",
                    help="override snapshot interval")
    sp.add_argument("--jobs", type=int, default=1, metavar="N",
                    help="parallel runs")
    sp.add_argument("--grid", choices=("b", "a", "all"), default="all")
    sp.set_defaults(func=cmd_sweep)

    sp = sub.add_parser("fit", help="calibrate (b, a) to a dataset")
    common(sp, scenario=False)
    sp.add_argument("dataset", help="two-column (stress, strain) text file")
    sp.add_argument("--init-b", type=float, default=1.0)
    sp.add_argument("--init-a", type=float, default=1.0)
    sp.add_argument("--max-iters", type=int, default=200)
    sp.set_defaults(func=cmd_fit)

    sp = sub.add_parser("gen-data", help="generate a synthetic dataset")
    sp.add_argument("--quiet", action="store_true")
    sp.add_argument("path", help="output file")
    sp.add_argument("--b", type=float, required=True)
    sp.add_argument("--a", type=float, required=True)
    sp.add_argument("--n", type=int, default=50)
    sp.add_argument("--sigma-max", type=float, default=5.0)
    sp.add_argument("--noise", type=float, default=0.0)
    sp.add_argument("--seed", type=int, default=None)
    sp.set_defaults(func=cmd_gen_data)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (HyperbolicityError, NewtonDivergedError) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o failure: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
