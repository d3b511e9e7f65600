"""The command line's contract, most of it as one table, `CASES`.

A row is one command: the files written first into an empty directory,
the argv, and the expected exit code, stderr and outputs.  Two drivers
run every row.  The in-process driver calls `cli.main` with that
directory as the cwd (argparse's `SystemExit` counts as its exit code);
it runs each row as the test named in the row's `test` column.  The
script driver runs the `stresswave` executable on PATH in a subprocess,
from a temporary directory, in `test_installed_script`; it skips unless
there is such an executable and the `stresswave` package imported here
is not the checkout's `src/` (CI runs this module against the installed
package).  The tests after the table need a monkeypatch, more than one
command or a fresh interpreter.
"""
import concurrent.futures
import contextlib
import io
import json
import os
import re
import shutil
import subprocess
import sys
from concurrent.futures import Future
from pathlib import Path
from typing import NamedTuple

import pytest

import stresswave
from stresswave import cli
from stresswave.cli import main

SMALL_SIM = """
material: {b: 0.0}
mesh: {n_cells: 16}
time: {dt: 1.0e-3, t_final: 0.05}
output: {snapshot_interval: 0.025, samples: 64}
"""

DIVERGE = """
material: {b: 10.0, a: 1.5}
mesh: {n_cells: 8}
time: {dt: 0.2, t_final: 1.0}
drive: {A: 0.5}
newton: {tol: 1.0e-12, k_max: 1}
"""

# the law at b = 1, a = 1.5 on six stresses, which `fit` recovers
LAW_CSV = "stress,strain\n" + "".join(
    f"{s},{s / (1 + s**1.5) ** (1 / 1.5)}\n" for s in range(6))


class Case(NamedTuple):
    test: str        # the Tier-1 test that runs the row
    id: str | None   # its parameter id there; None: the test has no parameters
    argv: str        # split at spaces
    code: int
    err: list        # stderr lines; "..." is any text, a line "..." any lines
    files: dict = {}  # written first: name -> str or bytes
    out: dict = {}   # glob -> number of matching paths, or CSV path -> line prefixes


ONLY_INPUTS = {"*": 1}  # a config error writes nothing
SIMULATE = "simulate --config run.yaml --out o --quiet"
USAGE = "stresswave: error: unrecognized arguments: "
GEN = "gen-data g.csv --b 1 --a 1"
B_GRID = ["b0_a1.5", "b1_a1.5", "b5_a1.5", "b10_a1.5"]
A_GRID = ["b1_a1.5", "b1_a3", "b1_a5", "b1_a10"]


def _summary(labels: list) -> list:
    """The line prefixes of a sweep_summary.csv of these members."""
    return ["label,b,a,", *[f"{label}," for label in labels]]


CASES = [
    Case("test_simulate_requires_config", None, "simulate --out o --quiet", 2,
         ["config error: --config PATH is required for this subcommand"],
         out={"*": 0}),
    *[Case("test_config_error_exit_code", id, SIMULATE, 2, [err], {"run.yaml": data},
           ONLY_INPUTS) for id, data, err in [
        ("no-b", b"material: {rho: 1.0}\n", "config error: material.b is required"),
        ("not-utf8", b"material: {b: 1.0}\n# \xff\n",
         "config error: run.yaml: not UTF-8 text (invalid start byte at byte 21)"),
        ("unknown-sections", b"material: {b: 1.0}\n1: 2\nx: 3\n",
         "config error: unknown config section(s): ['x', 1]"),
        ("unknown-keys", b"material: {b: 1.0, 1: 2, x: 3}\n",
         "config error: unknown key(s) in section 'material': ['x', 1]")]],
    *[Case("test_non_finite_config_number_exit_code",
           id or f"{text}-{err.split(':')[0]}", SIMULATE, 2,
           [f"config error: {err}"], {"run.yaml": text + "\n"}, ONLY_INPUTS)
      for id, text, err in [
        (None, "material: {b: .nan}", "material.b: must be finite, got nan"),
        (None, "material: {b: 1.0, reg_eta: .inf}",
         "material.reg_eta: must be finite, got inf"),
        *[(None, f"material: {{b: 1.0}}\nmesh: {{L: .{v}}}",
           f"mesh.L: must be finite, got {v}") for v in ("nan", "inf")],
        (None, "material: {b: 1.0}\ntime: {t_final: .inf}",
         "time.t_final: must be finite, got inf"),
        (None, "material: {b: 1.0}\ndrive: {A: .nan}",
         "drive.A: must be finite, got nan"),
        (None, "material: {b: 1.0}\ndrive: {omega: .nan}",
         "drive.omega: must be finite, got nan"),
        (None, "material: {b: 1.0}\noutput: {snapshot_interval: .inf}",
         "output.snapshot_interval: must be finite, got inf"),
        *[(None, f"material: {{b: 1.0, a: 1.5, reg_eta: {eta}}}",
           "material.reg_eta: must be positive when a < 2, where eps''' is "
           "infinite at sigma = 0") for eta in ("0.0", "1.0e-200")],
        (None, "material: {b: 1.0}\ntime: {dt: 'nan'}",
         "time.dt: must be finite, got nan"),
        ("integer-L-beyond-float64", f"material: {{b: 1.0}}\nmesh: {{L: {10**400}}}",
         f"mesh.L: must be finite, got {10**400}"),
        ("samples-over-2**31", f"material: {{b: 1.0}}\noutput: {{samples: {10**400}}}",
         f"output.samples: must be in [1, 2**31], got {10**400}")]],
    # cells whose stiffness (2 n_cells / L)^2 overflows (at 5e-324 their
    # edges repeat, too), a full-width digit 1, edges whose sum (the cell
    # midpoints) overflows, and a cell count beyond the 2**31 limit
    *[Case("test_mesh_rule_exit_code", id, SIMULATE, 2, [f"config error: mesh: {err}"],
           {"run.yaml": f"material: {{b: 1.0}}\nmesh: {mesh}\n"}, ONLY_INPUTS)
      for id, mesh, err in [
        *[(f"{{L: {L}}}-L={v} is too small to separate 128 cells", f"{{L: {L}}}",
           f"L={v} is too small to separate 128 cells: (2 n_cells / L)^2 overflows "
           "the stiffness") for L, v in (("5e-324", "5e-324"), ("1.0e-300", "1e-300"))],
        ("{degree_policy: 'uniform(１)'}-unknown degree policy",
         "{degree_policy: 'uniform(１)'}", "unknown degree policy 'uniform(１)'"),
        ("{L: 1.0e308}-L must be below 2**1023, got 1e+308", "{L: 1.0e308}",
         "L must be below 2**1023, got 1e+308"),
        ("n_cells-over-2**31", f"{{n_cells: {10**400}}}",
         f"n_cells must be in [2, 2**31], got {10**400}")]],
    # reg_eta^2 overflows to inf: the regularised negative powers are 0
    *[Case("test_huge_reg_eta_runs", command,
           f"{command} --config run.yaml --out o --quiet{grid}", 0, [],
           {"run.yaml": "material: {b: 1.0, a: 1.5, reg_eta: 1.0e300}\n"
                        "mesh: {n_cells: 8}\ntime: {dt: 1.0e-2, t_final: 0.05}\n"
                        "drive: {A: 0.3}\n"}, out)
      for command, grid, out in [
        ("simulate", "", {"o/manifest.json": 1}),
        ("sweep", " --grid b", {"o/sweep_summary.csv": _summary(B_GRID)})]],
    *[Case("test_bad_snapshot_every_exit_code", f"{command}-{value}",
           f"{command} --config run.yaml --out o --quiet --snapshot-every={value}", 2,
           [f"config error: output.snapshot_interval: {err}"], {"run.yaml": SMALL_SIM},
           ONLY_INPUTS)
      for command in ("simulate", "sweep") for value, err in [
        ("nan", "must be finite, got nan"), ("inf", "must be finite, got inf"),
        ("-1", "must be non-negative")]],
    # a run shorter than half a step still takes its one step, to t_final,
    # whose file name is that of t=0
    Case("test_final_time_sharing_a_file_name_is_named", None, SIMULATE, 2,
        ["config error: output.snapshot_interval: 2 snapshots map to 1 file names, "
         "which carry t to 6 decimals; time.t_final 1e-10 shares the name "
         "snapshot_t0.000000.csv with an earlier snapshot"],
        {"run.yaml": "material: {b: 0.0}\nmesh: {n_cells: 8}\n"
                     "time: {dt: 1.0e-3, t_final: 1.0e-10}\n"}, ONLY_INPUTS),
    Case("test_solver_failure_exit_code", None, SIMULATE, 3,
         ["solver failure: Newton did not converge at t=0.2, x=0.875: |R|=1.272e+00 "
          "after 1 iterations (threshold 3.643e-12)"], {"run.yaml": DIVERGE},
         {"o/manifest.json": 0}),
    # a = 0.5 stalls Newton at t = 0.459 on the default 128 cells; the
    # largest interior |R| is then at node 45, at the front
    Case("test_newton_failure_names_the_node_of_the_largest_residual", None,
         SIMULATE, 3,
         ["solver failure: Newton did not converge at t=0.459, x=0.351562: "
          "|R|=4.052e-09 after 20 iterations (threshold 7.850e-12)"],
         {"run.yaml": "material: {b: 1.0, a: 0.5}\ntime: {t_final: 0.5}\n"}),
    # RuntimeWarning is an error under Tier-1, so an overflow warning
    # escaping the run would end it with a traceback instead.  The line
    # names the first node whose residual is not finite: b = 1e308 makes
    # every one overflow, the drive only the one next to x = L
    *[Case("test_overflow_exits_3_naming_the_time", text,
           SIMULATE, 3,
           ["solver failure: Newton residual is not finite (overflow or NaN) "
            f"at t=0.001, x={x} after 0 iterations"], {"run.yaml": text + "\n"})
      for text, x in [("material: {b: 1.0e308}", "0.0078125"),
                      ("material: {b: 0.0}\ndrive: {A: 1.0e300}", "0.992188")]],
    # a 1x1 interior (2 linear cells); an interval whose quotient
    # overflows, which keeps every step; a limiting strain 1/b that
    # overflows; residuals near 1e300, whose squares overflow, and a
    # final stress gradient over spacings near 1e298
    *[Case("test_edge_config_runs_clean", f"{text}-{kept}",
           SIMULATE, 0, [],
           {"run.yaml": ("" if "material" in text else "material: {b: 1.0}\n")
                        + f"{text}\ntime: {{t_final: 0.02}}\n"},
           {"o/snapshot_*.csv": kept, "o/manifest.json": 1})
      for text, kept in [
        *[(f"mesh: {{n_cells: 2, degree_policy: {policy}}}", 2)
          for policy in ("'uniform(1)'", "'uniform(2)'", "'uniform(3)'",
                         "center_graded")],
        ("output: {snapshot_interval: 5.0e-324}", 21),
        ("material: {b: 5.0e-324}", 2),
        ("material: {b: 1.0, rho: 1.0e300}", 2),
        ("mesh: {L: 1.0e300}", 2)]],
    # rho * wj underflows to 0, so the mass matrix of the initial
    # acceleration is 0
    *[Case("test_singular_mass_at_t0_exits_3", b, SIMULATE, 3,
           ["solver failure: tangent is singular at t=0, x=0.0078125: singular "
            "matrix (zero pivot 1)"],
           {"run.yaml": f"material: {{b: {b}, rho: 5.0e-324}}\n"},
           {"o/manifest.json": 0}) for b in ("0.0", "1.0")],
    # eps' falls below 1e-40 at quadrature points in the first step, where
    # rho eps' underflows to 0: the mass matrix would be 0 there, so the run
    # stops at t = 0.001.  The snapshot kept before it, t = 0, is on disk
    # in both CSV files, and there is no manifest
    Case("test_infinite_wave_speed_exits_3", None, SIMULATE, 3,
         ["solver failure: tangent compliance ... times rho=1.000e-300 underflows "
          "to 0 at sigma=... at t=0.001"],
         {"run.yaml": "material: {b: 1.0e20, rho: 1.0e-300}\ntime: {t_final: 0.02}\n"},
         {"o/*": 2, "o/snapshot_t0.000000.csv": 1,
          "o/spacetime.csv": ["t,", *["0,"] * 257]}),
    Case("test_io_failure_exit_code", None,
        "simulate --config run.yaml --out blocked/sub --quiet", 4,
        ["i/o failure: [Errno 20] Not a directory: 'blocked/sub'"],
        {"run.yaml": SMALL_SIM, "blocked": "i am a file"}),
    Case("test_fit_missing_dataset_is_io_error", None, "fit nope.csv --quiet", 4,
         ["i/o failure: [Errno 2] No such file or directory: 'nope.csv'"],
         out={"*": 0}),
    Case("test_sweep_summary", None,
         "sweep --grid a --config base.yaml --out sweep --quiet", 0, [],
         {"base.yaml": "material: {b: 0.0}\nmesh: {n_cells: 16}\n"
                       "time: {dt: 2.0e-3, t_final: 0.1}\n"
                       "output: {snapshot_interval: 0.05, samples: 64}\n"},
         {"sweep/sweep_summary.csv": _summary(A_GRID),
          **{f"sweep/{x}/manifest.json": 1 for x in A_GRID}}),
    *[Case("test_config_output_directory_without_out", id,
           f"{argv} --config base.yaml --quiet", 0, [],
           {"base.yaml": "material: {b: 1.0, a: 2.0}\nmesh: {n_cells: 8}\n"
                         "time: {dt: 5.0e-3, t_final: 0.01}\n"
                         "output: {snapshot_interval: 0.05, samples: 16, "
                         "directory: here}\n"},
           {f"here/{written}": 1, "out": 0})
      for id, argv, written in [
        ("argv0-sweep_summary.csv", "sweep --grid b", "sweep_summary.csv"),
        ("argv1-convergence_temporal.csv", "mms-temporal",
         "convergence_temporal.csv")]],
    # every member runs; the summary holds the finished ones in grid
    # order, and each failed one gets a line naming it, with exit 3.  With
    # two jobs the solver failures come back through the process pool
    *[Case("test_sweep_keeps_the_members_that_finish", f"{name}-{jobs}",
           f"sweep --config base.yaml --jobs {jobs} --out s --quiet", 3,
           [f"solver failure: sweep member {label}: ..." for label in failed],
           {"base.yaml": f"{text}mesh: {{n_cells: 16}}\ntime: {{t_final: 0.005}}\n"},
           {"s/sweep_summary.csv": _summary(finished)})
      for name, text, finished, failed in [
        # the a-grid members lose hyperbolicity under a huge drive
        ("drive", "material: {b: 0.0}\ndrive: {A: 1.0e100}\n",
         B_GRID, ["b1_a3", "b1_a5", "b1_a10"]),
        # one Newton iteration is too few for the a = 1.5 members with b > 0
        ("k_max", "material: {b: 0.0}\nnewton: {k_max: 1}\n",
         ["b0_a1.5", "b1_a3", "b1_a5", "b1_a10"], ["b1_a1.5", "b5_a1.5", "b10_a1.5"])]
      for jobs in ("1", "2")],
    *[Case("test_unread_flag_exit_code", command.split()[0] + flag.split()[0],
           f"{command} {flag} --quiet", 2, ["...", USAGE + flag], out={"*": 0})
      for command, flag in [
        ("mms-spatial", "--jobs 2"), ("mms-temporal", "--jobs 2"),
        ("mms-spatial", "--snapshot-every 0.1"),
        ("mms-temporal", "--snapshot-every 0.123"),
        ("simulate", "--jobs 8"), ("fit d.csv", "--config /nonexistent.yaml"),
        ("fit d.csv", "--snapshot-every 0.1"), (GEN, "--jobs 8"),
        (GEN, "--config /nonexistent.yaml"), (GEN, "--snapshot-every nan"),
        (GEN, "--out x")]],
    *[Case("test_bad_fit_and_gen_data_input_exit_code", id, f"{argv} --quiet", 2,
           [f"config error: {err}"], files, {"g.csv": 0, "out": 0})
      for id, argv, err, files in [
        ("fit-data-line", "fit bad.csv", "unparseable data line in bad.csv: 'foo,bar'",
         {"bad.csv": "stress,strain\n1,2\nfoo,bar\n"}),
        ("fit-one-column-first-line", "fit one.csv",
         "unparseable data line in one.csv: '1.0'",
         {"one.csv": "1.0\n2.0 0.5\n3.0 0.7\n4.0 0.8\n"}),
        ("fit-three-fields", "fit three.csv",
         "unparseable data line in three.csv: '1,0.5,9'",
         {"three.csv": "stress,strain\n1,0.5,9\n2,0.7\n3,0.8\n4,1\n"}),
        *[(id, f"fit good.csv {flags}", err,
           {"good.csv": "stress,strain\n0,0\n1,0.5\n2,0.7\n3,0.8\n"})
          for id, flags, err in [
            ("fit-init-b", "--init-b -1",
             "initial guess must be finite, b >= 0, a > 0: (-1.0, 1.0)"),
            ("fit-init-b-inf", "--init-b inf",
             "initial guess must be finite, b >= 0, a > 0: (inf, 1.0)"),
            ("fit-max-iters-zero", "--max-iters 0", "max_iters must be >= 1, got 0")]],
        ("b-negative", "gen-data g.csv --b -1 --a 1",
         "b must be non-negative, got -1.0", {}),
        ("b-nan", "gen-data g.csv --b nan --a 1", "b must be non-negative, got nan",
         {}),
        ("a-zero", "gen-data g.csv --b 1 --a 0", "a must be positive, got 0.0", {}),
        ("n-two", f"{GEN} --n 2", "--n: must be in [3, 1000000], got 2", {}),
        # 745 GiB of stresses, which NumPy refuses in one piece
        ("n-1e11", f"{GEN} --n 100000000000",
         "--n: must be in [3, 1000000], got 100000000000", {}),
        ("sigma-max-zero", f"{GEN} --sigma-max 0",
         "sigma_max must be finite and > 0, got 0.0", {}),
        ("noise-negative", f"{GEN} --noise -1",
         "noise must be finite and >= 0, got -1.0", {}),
        # rejected whether or not the noise draws from the seed
        *[(f"seed-negative-noise-{noise}", f"{GEN} --seed -1 --noise {noise}",
           "--seed: must be non-negative, got -1", {}) for noise in ("0", "0.1")]]],
    # overflow in the optimizer's sums of squares is the law's to ignore
    # (a RuntimeWarning is an error here); an SSE of strains near 1e307
    # overflows to inf, and R^2 is then NaN
    *[Case("test_fit_warns_nowhere_and_a_fit_that_is_not_finite_exits_3", id,
           f"fit {argv} --out o --quiet", code, err,
           {"d.csv": "0 0\n1 0.5\n2 0.7\n3 0.8\n",
            "huge.csv": "0 3e307\n2.5 7e307\n5 3e307\n"}, {"o/fit.csv": int(code == 0)})
      for id, argv, code, err in [
        ("init-b-1e300", "d.csv --init-b 1e300", 0, []),
        ("init-a-1e300", "d.csv --init-a 1e300", 0, []),
        ("strains-1e307", "huge.csv", 3,
         ["solver failure: fit huge: sse=inf r2=nan is not finite"])]],
    Case("test_mms_spatial_cli_smoke", None,
         "mms-spatial --config mms.yaml --out mms --quiet", 0, [],
         {"mms.yaml": "material: {rho: 1.0, b: 1.0, a: 2.0}\ndrive: {A: 0.0}\n"
                      "time: {alpha: -0.05, t_final: 0.01}\n"},
         {"mms/convergence_spatial.csv": ["resolution,dofs,", "16 cells,17,",
                                          "32 cells,33,", "64 cells,65,",
                                          "128 cells,129,"]}),
    # each command to exit 0 with its outputs, most without --quiet
    *[Case("test_commands_run_clean", id, argv, 0, [], files, out)
      for id, argv, files, out in [
        ("gen-data", "gen-data d.csv --b 1 --a 1.5 --n 20 --seed 1", {},
         {"d.csv": ["stress,strain", "0,0", *[""] * 19]}),
        ("gen-data-noise-1e308",
         "gen-data h.csv --b 1 --a 1 --n 3 --noise 1e308 --seed 1", {},
         {"h.csv": ["stress,strain", "0,", "2.5,", "5,"]}),
        ("fit", "fit law.csv", {"law.csv": LAW_CSV}, {"out/fit.csv": 1}),
        ("simulate", "simulate --config run.yaml --out sim",
         {"run.yaml": "material: {b: 1.0}\ntime: {t_final: 0.05}\n"},
         {"sim/manifest.json": 1}),
        ("sweep-jobs-2",
         "sweep --config run.yaml --grid b --jobs 2 --out sweep --quiet",
         {"run.yaml": "material: {b: 1.0}\ntime: {t_final: 0.05}\n"},
         {"sweep/sweep_summary.csv": _summary(B_GRID)}),
        *[(policy, "simulate --config graded.yaml --out graded",
           {"graded.yaml": f"material: {{b: 5.0}}\nmesh: {{n_cells: 16, "
                           f"degree_policy: '{policy}'}}\ntime: {{t_final: 0.05}}\n"},
           {"graded/manifest.json": 1}) for policy in ("center_graded", "uniform(3)")],
        ("mms-temporal", "mms-temporal --config mms.yaml --out mms --quiet",
         {"mms.yaml": "material: {b: 1.0, a: 2.0}\ndrive: {A: 0.0}\n"
                      "time: {t_final: 0.002}\n"},
         {"mms/convergence_temporal.csv": ["resolution,", "dt=0.008,", "dt=0.004,",
                                           "dt=0.002,", "dt=0.001,"]})]],
]


def _stderr_matches(want: list, err: str) -> bool:
    pattern = "".join(
        r"(.*\n)*" if line == "..." else
        ".*".join(map(re.escape, line.split("..."))) + "\n" for line in want)
    return re.fullmatch(pattern, err) is not None


def in_process(argv: list, directory) -> tuple:
    """(exit code, stderr) of `cli.main(argv)` run with `directory` as
    the cwd; argparse's SystemExit gives the code."""
    err, cwd = io.StringIO(), os.getcwd()
    os.chdir(directory)
    try:
        with contextlib.redirect_stderr(err):
            code = main(argv)
    except SystemExit as exc:
        code = exc.code
    finally:
        os.chdir(cwd)
    return code, err.getvalue()


def script(argv: list, directory) -> tuple:
    """(exit code, stderr) of the `stresswave` executable on PATH, run in
    `directory`."""
    proc = subprocess.run(["stresswave", *argv], cwd=directory, timeout=120,
                          capture_output=True, text=True)
    return proc.returncode, proc.stderr


def check(case: Case, directory: Path, driver):
    """Write the row's files into `directory`, run it there and check it."""
    for name, data in case.files.items():
        if isinstance(data, bytes):
            (directory / name).write_bytes(data)
        else:
            (directory / name).write_text(data)
    code, err = driver(case.argv.split(), directory)
    assert code == case.code, err
    assert _stderr_matches(case.err, err), err
    for path, want in case.out.items():
        if isinstance(want, int):
            assert len(list(directory.glob(path))) == want, path
        else:
            lines = (directory / path).read_text().splitlines()
            assert len(lines) == len(want), lines
            assert all(map(str.startswith, lines, want)), lines


def _tier1_test(rows: list):
    if rows[0].id is None:
        (case,) = rows

        def test(tmp_path):
            check(case, tmp_path, in_process)
        return test

    @pytest.mark.parametrize("case", rows, ids=[row.id for row in rows])
    def test(case, tmp_path):
        check(case, tmp_path, in_process)
    return test


# the rows of a test run as that test, under their ids
_tests = {}
for _row in CASES:
    _tests.setdefault(_row.test, []).append(_row)
for _name, _rows in _tests.items():
    globals()[_name] = _tier1_test(_rows)


def _script_skip_reason() -> str | None:
    if shutil.which("stresswave") is None:
        return "no stresswave executable on PATH"
    src = Path(__file__).resolve().parents[1] / "src"
    if Path(stresswave.__file__).resolve().is_relative_to(src):
        return f"stresswave is imported from the checkout's {src}"
    return None


SCRIPT_SKIP = _script_skip_reason()


@pytest.mark.skipif(SCRIPT_SKIP is not None, reason=str(SCRIPT_SKIP))
@pytest.mark.parametrize("case", CASES, ids=[
    row.test[5:] + (f"[{row.id}]" if row.id else "") for row in CASES])
def test_installed_script(case, tmp_path):
    check(case, tmp_path, script)


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_simulate_writes_outputs(tmp_path):
    cfg = _write(tmp_path, "run.yaml", SMALL_SIM)
    out = tmp_path / "out"
    rc = main(["simulate", "--config", str(cfg), "--out", str(out), "--quiet"])
    assert rc == 0
    snaps = sorted(out.glob("snapshot_t*.csv"))
    assert [p.name for p in snaps] == ["snapshot_t0.000000.csv",
                                       "snapshot_t0.025000.csv",
                                       "snapshot_t0.050000.csv"]
    assert (out / "spacetime.csv").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["mesh"]["n_cells"] == 16
    assert manifest["stats"]["steps"] == 50
    # every resolved parameter section is present in the manifest
    assert set(manifest["config"]) == {"material", "mesh", "time", "drive",
                                       "newton", "output"}


def test_simulate_deterministic_and_manifest_rerun(tmp_path):
    cfg = _write(tmp_path, "run.yaml", SMALL_SIM)
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert main(["simulate", "--config", str(cfg), "--out", str(out1),
                 "--quiet"]) == 0
    # rerun from the first run's manifest
    assert main(["simulate", "--config", str(out1 / "manifest.json"),
                 "--out", str(out2), "--quiet"]) == 0
    for name in [p.name for p in out1.glob("snapshot_t*.csv")]:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    assert (out1 / "spacetime.csv").read_bytes() == \
        (out2 / "spacetime.csv").read_bytes()


def test_snapshot_every_overrides_config(tmp_path):
    cfg = _write(tmp_path, "run.yaml", SMALL_SIM)
    out = tmp_path / "o"
    assert main(["simulate", "--config", str(cfg), "--out", str(out),
                 "--quiet", "--snapshot-every", "0.05"]) == 0
    assert len(list(out.glob("snapshot_t*.csv"))) == 2
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["output"]["snapshot_interval"] == 0.05


def test_colliding_snapshot_names_exit_code(tmp_path, monkeypatch, capsys):
    # 51 snapshots 1e-7 apart, but file names carry t to 6 decimals; the
    # names are checked before the first step
    from stresswave import integrator

    def no_step(*args, **kwargs):
        raise AssertionError("a doomed run took a step")

    monkeypatch.setattr(integrator, "advance_step", no_step)
    cfg = _write(tmp_path, "run.yaml", """
material: {b: 0.0}
mesh: {n_cells: 8}
time: {dt: 1.0e-7, t_final: 5.0e-6}
output: {snapshot_interval: 1.0e-7, samples: 16}
""")
    out = tmp_path / "o"
    assert main(["simulate", "--config", str(cfg), "--out", str(out),
                 "--quiet"]) == 2
    assert capsys.readouterr().err.startswith(
        "config error: output.snapshot_interval: ")
    assert not out.exists()


@pytest.mark.parametrize("time", ["{t_final: 1.0e300}",
                                  "{t_final: 1.0e300, dt: 1.0e-300}"])
@pytest.mark.parametrize("command", ["simulate", "sweep"])
def test_step_count_out_of_range_exit_code(tmp_path, monkeypatch, capsys,
                                           command, time):
    # t_final / dt above 2**53 (or infinite): the run is never started
    def no_run(*args, **kwargs):
        raise AssertionError("a run was started")

    monkeypatch.setattr(cli, "run_scenario", no_run)
    cfg = _write(tmp_path, "run.yaml", f"material: {{b: 1.0}}\ntime: {time}\n")
    out = tmp_path / "o"
    assert main([command, "--config", str(cfg), "--out", str(out),
                 "--quiet"]) == 2
    assert capsys.readouterr().err.startswith("config error: time.dt: ")
    assert not out.exists()


def test_singular_tangent_exit_code(tmp_path, monkeypatch, capsys):
    from stage_helpers import singular_tangent
    singular_tangent(monkeypatch, 3)
    cfg = _write(tmp_path, "run.yaml", SMALL_SIM)
    assert main(["simulate", "--config", str(cfg),
                 "--out", str(tmp_path / "o"), "--quiet"]) == 3
    assert capsys.readouterr().err.splitlines() == [
        "solver failure: Newton tangent is singular at t=0.001, x=0.1875: "
        "singular matrix (zero pivot 3)"]


@pytest.fixture(params=["inline", "forked"])
def writer(request, monkeypatch):
    """Where run_scenario writes: in this process or in a forked child."""
    monkeypatch.setattr(cli, "FORK_MIN_ROWS",
                        0 if request.param == "forked" else 2**62)
    return request.param


def test_solver_failure_wins_over_an_unwritable_out(tmp_path, capsys, writer):
    # the writer keeps its error until the run ends: a run that diverges
    # exits 3 as if --out were fine, and alone the same --out exits 4
    blocker = tmp_path / "blocked"
    blocker.write_text("i am a file")
    out = str(blocker / "sub")
    for text, code in [(DIVERGE, 3), (SMALL_SIM, 4)]:
        cfg = _write(tmp_path, "run.yaml", text)
        assert main(["simulate", "--config", str(cfg), "--out", out,
                     "--quiet"]) == code
    diverged, io = capsys.readouterr().err.splitlines()
    assert diverged.startswith("solver failure: Newton did not converge at t=0.2")
    assert io == f"i/o failure: [Errno 20] Not a directory: {out!r}"


def _outputs(out: Path) -> dict:
    """Every file's bytes, the manifest without its timings."""
    files = {p.name: p.read_bytes() for p in out.iterdir()}
    manifest = json.loads(files.pop("manifest.json"))
    del manifest["stats"]["wall_time"]
    return {**files, "manifest": manifest.pop("telemetry")["writer"],
            "manifest.json": manifest}


@pytest.mark.parametrize("text, per_block", [
    # 1,025 rows: a block per snapshot; the default 257: seven per block
    ("mesh: {n_cells: 32, degree_policy: center_graded}\n"
     "time: {t_final: 0.1}\noutput: {snapshot_interval: 0.01, samples: 1024}",
     1),
    ("time: {t_final: 1.0}", 7),
])
def test_forked_and_inline_writers_write_the_same_bytes(tmp_path, monkeypatch,
                                                        text, per_block):
    from stresswave.postprocess import BLOCK_ROWS
    cfg = _write(tmp_path, "run.yaml", f"material: {{b: 5.0, a: 1.5}}\n{text}\n")
    got = {}
    for where, rows in [("forked", 0), ("inline", 2**62)]:
        monkeypatch.setattr(cli, "FORK_MIN_ROWS", rows)
        assert main(["simulate", "--config", str(cfg), "--out",
                     str(tmp_path / where), "--quiet"]) == 0
        got[where] = _outputs(tmp_path / where)
        assert got[where].pop("manifest") == where
    samples = got["inline"]["manifest.json"]["config"]["output"]["samples"]
    assert BLOCK_ROWS // (samples + 1) == per_block
    assert len(got["inline"]) == 2 + got["inline"]["manifest.json"]["stats"][
        "snapshots"]
    assert got["forked"] == got["inline"]


def test_manifest_telemetry(tmp_path, writer):
    cfg = _write(tmp_path, "run.yaml", SMALL_SIM)
    assert main(["simulate", "--config", str(cfg), "--out",
                 str(tmp_path / "o"), "--quiet"]) == 0
    manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
    telemetry = manifest["telemetry"]
    assert telemetry["writer"] == writer
    assert set(telemetry) == {"step_s", "write_s", "write_wait_s", "writer"}
    assert telemetry["step_s"] == manifest["stats"]["wall_time"] > 0
    assert telemetry["write_s"] > 0 and telemetry["write_wait_s"] >= 0


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_forked_writer_is_reaped(tmp_path, monkeypatch):
    # after a success, a solver failure, a writer failure and an interrupt
    monkeypatch.setattr(cli, "FORK_MIN_ROWS", 0)
    blocker = tmp_path / "blocked"
    blocker.write_text("i am a file")
    for text, out, code in [(SMALL_SIM, tmp_path / "o", 0),
                            (DIVERGE, tmp_path / "d", 3),
                            (SMALL_SIM, blocker / "sub", 4)]:
        cfg = _write(tmp_path, "run.yaml", text)
        assert main(["simulate", "--config", str(cfg), "--out", str(out),
                     "--quiet"]) == code
        _no_child_left()
    from stresswave import integrator
    step = integrator.advance_step

    def interrupted(state, t_next, *args):
        if t_next > 0.03:
            raise KeyboardInterrupt
        return step(state, t_next, *args)

    monkeypatch.setattr(integrator, "advance_step", interrupted)
    cfg = _write(tmp_path, "run.yaml", SMALL_SIM)
    with pytest.raises(KeyboardInterrupt):
        main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "i"),
              "--quiet"])
    _no_child_left()
    # the snapshots kept before the interrupt are written, and no manifest
    assert sorted(p.name for p in (tmp_path / "i").iterdir()) == [
        "snapshot_t0.000000.csv", "snapshot_t0.025000.csv", "spacetime.csv"]


def test_forked_writer_that_ends_without_a_result_exits_4(tmp_path,
                                                          monkeypatch, capsys):
    monkeypatch.setattr(cli, "FORK_MIN_ROWS", 0)
    monkeypatch.setattr(cli._ForkedWriter, "_serve",
                        staticmethod(lambda writer, fd: os._exit(7)))
    cfg = _write(tmp_path, "run.yaml", SMALL_SIM)
    assert main(["simulate", "--config", str(cfg), "--out",
                 str(tmp_path / "o"), "--quiet"]) == 4
    assert capsys.readouterr().err.splitlines() == [
        "i/o failure: the snapshot writer process ended without a result "
        "(exit code 7)"]
    assert not (tmp_path / "o" / "manifest.json").exists()
    _no_child_left()


def test_writer_stays_in_process_when_fork_fails(tmp_path, monkeypatch):
    def no_fork():
        raise BlockingIOError(11, "Resource temporarily unavailable")

    monkeypatch.setattr(cli, "FORK_MIN_ROWS", 0)
    monkeypatch.setattr(os, "fork", no_fork)
    cfg = _write(tmp_path, "run.yaml", SMALL_SIM)
    assert main(["simulate", "--config", str(cfg), "--out",
                 str(tmp_path / "o"), "--quiet"]) == 0
    manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
    assert manifest["telemetry"]["writer"] == "inline"


def test_gen_data_and_fit_roundtrip(tmp_path):
    data_path = tmp_path / "synthetic.csv"
    rc = main(["gen-data", str(data_path), "--b", "3.0", "--a", "1.2",
               "--n", "50", "--quiet"])
    assert rc == 0
    out = tmp_path / "fit_out"
    rc = main(["fit", str(data_path), "--out", str(out), "--quiet"])
    assert rc == 0
    row = (out / "fit.csv").read_text().strip().splitlines()[1].split(",")
    assert float(row[1]) == pytest.approx(3.0, rel=1e-2)
    assert float(row[2]) == pytest.approx(1.2, rel=1e-2)
    assert float(row[4]) >= 0.999


def test_sweep_parallel_matches_serial(tmp_path):
    cfg = _write(tmp_path, "base.yaml", """
material: {b: 0.0}
mesh: {n_cells: 8}
time: {dt: 5.0e-3, t_final: 0.05}
output: {snapshot_interval: 0.05, samples: 32}
""")
    out1, out2 = tmp_path / "s1", tmp_path / "s2"
    assert main(["sweep", "--grid", "b", "--config", str(cfg),
                 "--out", str(out1), "--quiet"]) == 0
    assert main(["sweep", "--grid", "b", "--config", str(cfg), "--jobs", "2",
                 "--out", str(out2), "--quiet"]) == 0
    assert (out1 / "sweep_summary.csv").read_bytes() == \
        (out2 / "sweep_summary.csv").read_bytes()
    # wave-speed deviation column grows monotonically along the b grid
    rows = (out1 / "sweep_summary.csv").read_text().strip().splitlines()[1:]
    devs = [float(r.split(",")[3]) for r in rows]
    assert devs == sorted(devs) and devs[0] < devs[-1]


def _recording_pool(monkeypatch):
    """Replace the process pool with one that runs each member in-process
    and records the worker count it was asked for."""
    workers = []

    class Pool:
        def __init__(self, max_workers):
            workers.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            future = Future()
            future.set_result(fn(*args))
            return future

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
    return workers


def test_sweep_workers_capped_at_member_count(tmp_path, monkeypatch):
    workers = _recording_pool(monkeypatch)
    cfg = _write(tmp_path, "base.yaml", """
material: {b: 0.0}
mesh: {n_cells: 8}
time: {dt: 5.0e-3, t_final: 0.02}
output: {snapshot_interval: 0.0, samples: 16}
""")
    out = tmp_path / "s"
    assert main(["sweep", "--grid", "b", "--config", str(cfg), "--jobs", "64",
                 "--out", str(out), "--quiet"]) == 0
    assert workers == [4]
    assert len((out / "sweep_summary.csv").read_text().splitlines()) == 5


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_sweep_jobs_below_one_exit_code(tmp_path, monkeypatch, capsys, jobs):
    workers = _recording_pool(monkeypatch)
    out = tmp_path / "s"
    assert main(["sweep", "--jobs", jobs, "--out", str(out), "--quiet"]) == 2
    assert "--jobs" in capsys.readouterr().err
    assert workers == [] and not out.exists()


def _fresh_python(code: str) -> str:
    """stdout of `code` run by a new interpreter that imports this stresswave."""
    src = str(Path(stresswave.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          timeout=120, capture_output=True, text=True).stdout


def test_import_leaves_scipy_optimize_unloaded():
    # scipy.optimize costs about a quarter second of every start-up, the
    # scipy.linalg package import (which loads numpy.f2py and
    # numpy.testing) about as much, and yaml 15-20 ms; the solver's
    # LAPACK module is loaded without the package
    _fresh_python("import stresswave.cli, sys; "
                  "assert 'scipy.optimize' not in sys.modules; "
                  "loaded = {'scipy.linalg', 'numpy.f2py', 'numpy.testing', "
                  "'yaml'} & set(sys.modules); assert not loaded, loaded; "
                  "assert 'scipy.linalg._flapack' in sys.modules")


def test_import_leaves_subcommand_machinery_unloaded(tmp_path):
    # start-up loads the solver only; the process pool, calibration and
    # verification come with the subcommands that use them
    out = _fresh_python(f"""
import sys
import stresswave.cli
deferred = {{'concurrent.futures', 'multiprocessing', 'stresswave.calibration',
            'stresswave.verification'}}
loaded = deferred & set(sys.modules)
assert not loaded, loaded
assert stresswave.cli.main(["gen-data", {str(tmp_path / "d.csv")!r},
                            "--b", "1", "--a", "1.5", "--quiet"]) == 0
print("stresswave.calibration" in sys.modules)
""")
    assert out.strip() == "True"


def test_runs_import_nothing(tmp_path):
    # an import inside a run would be timed as part of the run
    cfg = _write(tmp_path, "run.json", json.dumps({
        "material": {"b": 1.0},
        "mesh": {"n_cells": 16, "degree_policy": "center_graded"},
        "time": {"dt": 1e-3, "t_final": 0.01},
        "output": {"snapshot_interval": 0.005, "samples": 33}}))
    out = _fresh_python(f"""
import sys
from stresswave import cli, config, verification
def run(argv):
    assert cli.main(argv + ["--config", {str(cfg)!r}, "--quiet"]) == 0
before = set(sys.modules)
run(["simulate", "--out", {str(tmp_path / "sim")!r}])
run(["sweep", "--grid", "b", "--jobs", "1", "--out", {str(tmp_path / "sw")!r}])
verification.convergence_study("spatial", config.parse_config(
    {{**cli.MMS_BASE_MAPPING, "time": {{"alpha": -0.05, "t_final": 0.002}}}}),
    cells=[4])
print(sorted(set(sys.modules) - before))
""")
    assert out.strip() == "[]"


@pytest.mark.parametrize("order", [("stresswave.assembly", "scipy.linalg"),
                                   ("scipy.linalg", "stresswave.assembly")],
                         ids=["stresswave-first", "scipy-linalg-first"])
def test_solver_routines_are_scipy_linalg_routines(order):
    # assembly loads scipy.linalg's LAPACK and BLAS modules itself; in
    # either import order both must hold the very same routine objects
    _fresh_python(f"""
import importlib
for name in {order!r}:
    importlib.import_module(name)
import numpy as np
from scipy.linalg import get_blas_funcs, get_lapack_funcs
from stresswave import assembly
gtsv, gbsv = get_lapack_funcs(("gtsv", "gbsv"), dtype=np.float64)
gbmv, = get_blas_funcs(("gbmv",), dtype=np.float64)
assert gtsv is assembly._gtsv and gbsv is assembly._gbsv
assert gbmv is assembly._gbmv
""")


def test_fit_after_simulation_matches_fresh_fit():
    # scipy.optimize imports scipy.linalg, which then finds the LAPACK and
    # BLAS modules that a run registered
    fit = ("from stresswave.calibration import fit_material, "
           "generate_synthetic\n"
           "r = fit_material(generate_synthetic(2.0, 1.5, noise=0.01, seed=3))\n"
           "print(repr((r.b, r.a, r.sse, r.converged)))\n")
    run = ("from stresswave.config import parse_config\n"
           "from stresswave.integrator import run_simulation\n"
           "run_simulation(parse_config({'material': {'b': 1.0}, "
           "'mesh': {'n_cells': 8}, 'time': {'t_final': 0.01}}))\n")
    assert _fresh_python(run + fit) == _fresh_python(fit)
