import concurrent.futures
import json
import os
import subprocess
import sys
from concurrent.futures import Future
from pathlib import Path

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


def test_simulate_requires_config(tmp_path):
    assert main(["simulate", "--out", str(tmp_path / "o"), "--quiet"]) == 2


def test_config_error_exit_code(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    for data, named in (
            (b"material: {rho: 1.0}\n", "material.b is required"),
            (b"material: {b: 1.0}\n# \xff\n", "bad.yaml: not UTF-8"),
            (b"material: {b: 1.0}\n1: 2\nx: 3\n", "['x', 1]"),
            (b"material: {b: 1.0, 1: 2, x: 3}\n", "['x', 1]")):
        Path("bad.yaml").write_bytes(data)
        assert main(["simulate", "--config", "bad.yaml", "--quiet"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert named in err
        assert list(tmp_path.iterdir()) == [tmp_path / "bad.yaml"]


@pytest.mark.parametrize("text,field", [
    ("material: {b: .nan}", "material.b"),
    ("material: {b: 1.0, reg_eta: .inf}", "material.reg_eta"),
    ("material: {b: 1.0}\nmesh: {L: .nan}", "mesh.L"),
    ("material: {b: 1.0}\nmesh: {L: .inf}", "mesh.L"),
    ("material: {b: 1.0}\ntime: {t_final: .inf}", "time.t_final"),
    ("material: {b: 1.0}\ndrive: {A: .nan}", "drive.A"),
    ("material: {b: 1.0}\ndrive: {omega: .nan}", "drive.omega"),
    ("material: {b: 1.0}\noutput: {snapshot_interval: .inf}",
     "output.snapshot_interval"),
    ("material: {b: 1.0, a: 1.5, reg_eta: 0.0}", "material.reg_eta"),
    ("material: {b: 1.0, a: 1.5, reg_eta: 1.0e-200}", "material.reg_eta"),
    ("material: {b: 1.0}\ntime: {dt: 'nan'}", "time.dt"),
    pytest.param(f"material: {{b: 1.0}}\nmesh: {{L: {10**400}}}", "mesh.L",
                 id="integer-L-beyond-float64"),
    pytest.param(f"material: {{b: 1.0}}\noutput: {{samples: {10**400}}}",
                 "output.samples", id="samples-over-2**31"),
])
def test_non_finite_config_number_exit_code(tmp_path, capsys, text, field):
    cfg = _write(tmp_path, "bad.yaml", text + "\n")
    assert main(["simulate", "--config", str(cfg),
                 "--out", str(tmp_path / "o"), "--quiet"]) == 2
    assert capsys.readouterr().err.startswith(f"config error: {field}: ")


@pytest.mark.parametrize("mesh,named", [
    ("{L: 5e-324}", "L=5e-324 is too small to separate 128 cells"),
    ("{L: 1.0e-300}", "L=1e-300 is too small to separate 128 cells"),
    ("{degree_policy: 'uniform(\uff11)'}", "unknown degree policy"),
    ("{L: 1.0e308}", "L must be below 2**1023, got 1e+308"),
    pytest.param(f"{{n_cells: {10**400}}}", "n_cells must be in [2, 2**31]",
                 id="n_cells-over-2**31"),
])
def test_mesh_rule_exit_code(tmp_path, capsys, mesh, named):
    # cells whose stiffness (2 n_cells / L)^2 overflows (at 5e-324 their
    # edges repeat, too), a full-width digit 1, edges whose sum (the cell
    # midpoints) overflows, and a cell count beyond the 2**31 limit
    cfg = _write(tmp_path, "bad.yaml", f"material: {{b: 1.0}}\nmesh: {mesh}\n")
    out = tmp_path / "o"
    assert main(["simulate", "--config", str(cfg), "--out", str(out),
                 "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: mesh: ") and named in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "sweep"])
def test_huge_reg_eta_runs(tmp_path, command):
    # reg_eta^2 overflows to inf: the regularised negative powers are 0
    cfg = _write(tmp_path, "run.yaml", """
material: {b: 1.0, a: 1.5, reg_eta: 1.0e300}
mesh: {n_cells: 8}
time: {dt: 1.0e-2, t_final: 0.05}
drive: {A: 0.3}
""")
    argv = [command, "--config", str(cfg), "--out", str(tmp_path / "o"),
            "--quiet"]
    assert main(argv + (["--grid", "b"] if command == "sweep" else [])) == 0


@pytest.mark.parametrize("value", ["nan", "inf", "-1"])
@pytest.mark.parametrize("command", ["simulate", "sweep"])
def test_bad_snapshot_every_exit_code(tmp_path, capsys, command, value):
    cfg = _write(tmp_path, "run.yaml", SMALL_SIM)
    out = tmp_path / "o"
    assert main([command, "--config", str(cfg), "--out", str(out), "--quiet",
                 f"--snapshot-every={value}"]) == 2
    assert capsys.readouterr().err.startswith(
        "config error: output.snapshot_interval: ")
    assert not out.exists()


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


def test_final_time_sharing_a_file_name_is_named(tmp_path, capsys):
    # a run shorter than half a step still takes its one step, to t_final,
    # whose file name is that of t=0
    cfg = _write(tmp_path, "run.yaml", """
material: {b: 0.0}
mesh: {n_cells: 8}
time: {dt: 1.0e-3, t_final: 1.0e-10}
""")
    out = tmp_path / "o"
    assert main(["simulate", "--config", str(cfg), "--out", str(out),
                 "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: output.snapshot_interval: 2 snapshots")
    assert "time.t_final 1e-10 shares the name snapshot_t0.000000.csv" in err
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


def test_solver_failure_exit_code(tmp_path):
    cfg = _write(tmp_path, "diverge.yaml", """
material: {b: 10.0, a: 1.5}
mesh: {n_cells: 8}
time: {dt: 0.2, t_final: 1.0}
drive: {A: 0.5}
newton: {tol: 1.0e-12, k_max: 1}
""")
    assert main(["simulate", "--config", str(cfg),
                 "--out", str(tmp_path / "o"), "--quiet"]) == 3


def test_newton_failure_names_the_node_of_the_largest_residual(tmp_path,
                                                               capsys):
    # a = 0.5 stalls Newton at t = 0.459 on the default 128 cells; the
    # largest interior |R| is then at node 45, at the front
    cfg = _write(tmp_path, "low_a.yaml",
                 "material: {b: 1.0, a: 0.5}\ntime: {t_final: 0.5}\n")
    assert main(["simulate", "--config", str(cfg),
                 "--out", str(tmp_path / "o"), "--quiet"]) == 3
    assert capsys.readouterr().err.splitlines() == [
        "solver failure: Newton did not converge at t=0.459, x=0.351562: "
        "|R|=4.052e-09 after 20 iterations (threshold 7.850e-12)"]


@pytest.mark.parametrize("text", [
    "material: {b: 1.0e308}",
    "material: {b: 0.0}\ndrive: {A: 1.0e300}",
])
def test_overflow_exits_3_naming_the_time(tmp_path, capsys, text):
    # RuntimeWarning is an error under Tier-1, so an overflow warning
    # escaping the run would end it with a traceback instead.  The line
    # names the first node whose residual is not finite: b = 1e308 makes
    # every one overflow, the drive only the one next to x = L
    cfg = _write(tmp_path, "run.yaml", text + "\n")
    assert main(["simulate", "--config", str(cfg),
                 "--out", str(tmp_path / "o"), "--quiet"]) == 3
    x = "0.992188" if "drive" in text else "0.0078125"
    assert capsys.readouterr().err.splitlines() == [
        "solver failure: Newton residual is not finite (overflow or NaN) "
        f"at t=0.001, x={x} after 0 iterations"]


@pytest.mark.parametrize("text, kept", [
    ("mesh: {n_cells: 2, degree_policy: 'uniform(1)'}", 2),
    ("mesh: {n_cells: 2, degree_policy: 'uniform(2)'}", 2),
    ("mesh: {n_cells: 2, degree_policy: 'uniform(3)'}", 2),
    ("mesh: {n_cells: 2, degree_policy: center_graded}", 2),
    ("output: {snapshot_interval: 5.0e-324}", 21),
    ("material: {b: 5.0e-324}", 2),
    ("material: {b: 1.0, rho: 1.0e300}", 2),
    ("mesh: {L: 1.0e300}", 2),
])
def test_edge_config_runs_clean(tmp_path, capsys, text, kept):
    # a 1x1 interior (2 linear cells); an interval whose quotient
    # overflows, which keeps every step; a limiting strain 1/b that
    # overflows; residuals near 1e300, whose squares overflow, and a
    # final stress gradient over spacings near 1e298
    if "material" not in text:
        text = f"material: {{b: 1.0}}\n{text}"
    cfg = _write(tmp_path, "run.yaml", f"{text}\ntime: {{t_final: 0.02}}\n")
    out = tmp_path / "o"
    assert main(["simulate", "--config", str(cfg), "--out", str(out),
                 "--quiet"]) == 0
    assert capsys.readouterr().err == ""
    assert len(list(out.glob("snapshot_*.csv"))) == kept


@pytest.mark.parametrize("b", ["0.0", "1.0"])
def test_singular_mass_at_t0_exits_3(tmp_path, capsys, b):
    # rho * wj underflows to 0, so the mass matrix of the initial
    # acceleration is 0
    cfg = _write(tmp_path, "run.yaml", f"material: {{b: {b}, rho: 5.0e-324}}\n")
    assert main(["simulate", "--config", str(cfg),
                 "--out", str(tmp_path / "o"), "--quiet"]) == 3
    assert capsys.readouterr().err.splitlines() == [
        "solver failure: tangent is singular at t=0, x=0.0078125: singular "
        "matrix (zero pivot 1)"]


def test_infinite_wave_speed_exits_3(tmp_path, capsys):
    # eps' falls below 1e-40 at quadrature points in the first step, where
    # rho eps' underflows to 0: the mass matrix would be 0 there, so the run
    # stops at t = 0.001.  The snapshot kept before it, t = 0, is on disk
    # in both CSV files, and there is no manifest
    cfg = _write(tmp_path, "run.yaml", "material: {b: 1.0e20, rho: 1.0e-300}\n"
                 "time: {t_final: 0.02}\n")
    out = tmp_path / "o"
    assert main(["simulate", "--config", str(cfg), "--out", str(out),
                 "--quiet"]) == 3
    line, = capsys.readouterr().err.splitlines()
    assert line.startswith("solver failure: tangent compliance ")
    assert " times rho=1.000e-300 underflows to 0 at sigma=" in line
    assert line.endswith(" at t=0.001")
    assert sorted(f.name for f in out.iterdir()) == [
        "snapshot_t0.000000.csv", "spacetime.csv"]
    rows = (out / "spacetime.csv").read_bytes().split(b"\r\n")[1:-1]
    assert len(rows) == 257
    assert {row.split(b",", 1)[0] for row in rows} == {b"0"}


def test_singular_tangent_exit_code(tmp_path, monkeypatch, capsys):
    from stage_helpers import singular_tangent
    singular_tangent(monkeypatch, 3)
    cfg = _write(tmp_path, "run.yaml", SMALL_SIM)
    assert main(["simulate", "--config", str(cfg),
                 "--out", str(tmp_path / "o"), "--quiet"]) == 3
    assert capsys.readouterr().err.splitlines() == [
        "solver failure: Newton tangent is singular at t=0.001, x=0.1875: "
        "singular matrix (zero pivot 3)"]


def test_io_failure_exit_code(tmp_path):
    cfg = _write(tmp_path, "run.yaml", SMALL_SIM)
    blocker = tmp_path / "blocked"
    blocker.write_text("i am a file")
    rc = main(["simulate", "--config", str(cfg), "--out",
               str(blocker / "sub"), "--quiet"])
    assert rc == 4


@pytest.fixture(params=["inline", "forked"])
def writer(request, monkeypatch):
    """Where run_scenario writes: in this process or in a forked child."""
    monkeypatch.setattr(cli, "FORK_MIN_ROWS",
                        0 if request.param == "forked" else 2**62)
    return request.param


DIVERGE = """
material: {b: 10.0, a: 1.5}
mesh: {n_cells: 8}
time: {dt: 0.2, t_final: 1.0}
drive: {A: 0.5}
newton: {tol: 1.0e-12, k_max: 1}
"""


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


def test_fit_missing_dataset_is_io_error(tmp_path):
    assert main(["fit", str(tmp_path / "nope.csv"), "--quiet"]) == 4


def test_sweep_summary(tmp_path):
    cfg = _write(tmp_path, "base.yaml", """
material: {b: 0.0}
mesh: {n_cells: 16}
time: {dt: 2.0e-3, t_final: 0.1}
output: {snapshot_interval: 0.05, samples: 64}
""")
    out = tmp_path / "sweep"
    rc = main(["sweep", "--grid", "a", "--config", str(cfg),
               "--out", str(out), "--quiet"])
    assert rc == 0
    lines = (out / "sweep_summary.csv").read_text().strip().splitlines()
    assert lines[0].startswith("label,b,a,")
    assert len(lines) == 5
    labels = [ln.split(",")[0] for ln in lines[1:]]
    assert labels == ["b1_a1.5", "b1_a3", "b1_a5", "b1_a10"]
    for label in labels:
        assert (out / label / "manifest.json").exists()


@pytest.mark.parametrize("argv, written", [
    (["sweep", "--grid", "b"], "sweep_summary.csv"),
    (["mms-temporal"], "convergence_temporal.csv"),
])
def test_config_output_directory_without_out(tmp_path, monkeypatch, argv,
                                             written):
    monkeypatch.chdir(tmp_path)
    _write(tmp_path, "base.yaml", """
material: {b: 1.0, a: 2.0}
mesh: {n_cells: 8}
time: {dt: 5.0e-3, t_final: 0.01}
output: {snapshot_interval: 0.05, samples: 16, directory: here}
""")
    assert main(argv + ["--config", "base.yaml", "--quiet"]) == 0
    assert (tmp_path / "here" / written).exists()
    assert not (tmp_path / "out").exists()


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


SWEEP_FAILURES = {
    # the a-grid members lose hyperbolicity under a huge drive
    "drive": ("material: {b: 0.0}\ndrive: {A: 1.0e100}\n",
              ["b0_a1.5", "b1_a1.5", "b5_a1.5", "b10_a1.5"],
              ["b1_a3", "b1_a5", "b1_a10"]),
    # one Newton iteration is too few for the a = 1.5 members with b > 0
    "k_max": ("material: {b: 0.0}\nnewton: {k_max: 1}\n",
              ["b0_a1.5", "b1_a3", "b1_a5", "b1_a10"],
              ["b1_a1.5", "b5_a1.5", "b10_a1.5"]),
}


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("case", sorted(SWEEP_FAILURES))
def test_sweep_keeps_the_members_that_finish(tmp_path, capsys, case, jobs):
    # every member runs; the summary holds the finished ones in grid
    # order, and each failed one gets a line naming it, with exit 3.  With
    # two jobs the solver failures come back through the process pool
    text, finished, failed = SWEEP_FAILURES[case]
    cfg = _write(tmp_path, "base.yaml", text + "mesh: {n_cells: 16}\n"
                 "time: {t_final: 0.005}\n")
    out = tmp_path / "s"
    assert main(["sweep", "--config", str(cfg), "--jobs", jobs,
                 "--out", str(out), "--quiet"]) == 3
    rows = (out / "sweep_summary.csv").read_text().splitlines()
    assert rows[0].startswith("label,b,a,")
    assert [r.split(",")[0] for r in rows[1:]] == finished
    err = capsys.readouterr().err.splitlines()
    assert [line.split(":")[1] for line in err] == [
        f" sweep member {label}" for label in failed]
    assert all(line.startswith("solver failure: ") for line in err)


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


@pytest.mark.parametrize("argv", [
    ["mms-spatial", "--jobs", "2"],
    ["mms-temporal", "--jobs", "2"],
    ["mms-spatial", "--snapshot-every", "0.1"],
    ["mms-temporal", "--snapshot-every", "0.123"],
    ["simulate", "--jobs", "8"],
    ["fit", "d.csv", "--config", "/nonexistent.yaml"],
    ["fit", "d.csv", "--snapshot-every", "0.1"],
    ["gen-data", "g.csv", "--b", "1", "--a", "1", "--jobs", "8"],
    ["gen-data", "g.csv", "--b", "1", "--a", "1", "--config",
     "/nonexistent.yaml"],
    ["gen-data", "g.csv", "--b", "1", "--a", "1", "--snapshot-every", "nan"],
    ["gen-data", "g.csv", "--b", "1", "--a", "1", "--out", "x"],
], ids=lambda argv: argv[0] + [a for a in argv if a[:2] == "--"][-1])
def test_unread_flag_exit_code(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--quiet"])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


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
    # numpy.testing) about as much, and yaml 15-20 ms
    _fresh_python("import stresswave.cli, sys; "
                  "assert 'scipy.optimize' not in sys.modules; "
                  "loaded = {'scipy.linalg', 'numpy.f2py', 'numpy.testing', "
                  "'yaml'} & set(sys.modules); assert not loaded, loaded")


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


def test_mms_spatial_cli_smoke(tmp_path):
    cfg = _write(tmp_path, "mms.yaml", """
material: {rho: 1.0, b: 1.0, a: 2.0}
drive: {A: 0.0}
time: {alpha: -0.05, t_final: 0.01}
""")
    out = tmp_path / "mms"
    rc = main(["mms-spatial", "--config", str(cfg), "--out", str(out),
               "--quiet"])
    assert rc == 0
    lines = (out / "convergence_spatial.csv").read_text().strip().splitlines()
    assert len(lines) == 5
    dofs = [int(ln.split(",")[1]) for ln in lines[1:]]
    assert dofs == [17, 33, 65, 129]


@pytest.mark.parametrize("argv, named", [
    (["fit", "bad.csv"], "'foo,bar'"),
    (["fit", "one.csv"], "'1.0'"),
    (["fit", "three.csv"], "'1,0.5,9'"),
    (["fit", "good.csv", "--init-b", "-1"], "-1.0"),
    (["fit", "good.csv", "--init-b", "inf"], "inf"),
    (["fit", "good.csv", "--max-iters", "0"], "max_iters"),
    (["gen-data", "g.csv", "--b", "-1", "--a", "1"], "b must"),
    (["gen-data", "g.csv", "--b", "nan", "--a", "1"], "nan"),
    (["gen-data", "g.csv", "--b", "1", "--a", "0"], "a must"),
    (["gen-data", "g.csv", "--b", "1", "--a", "1", "--n", "2"], "got 2"),
    # 745 GiB of stresses, which NumPy refuses in one piece
    (["gen-data", "g.csv", "--b", "1", "--a", "1", "--n", "100000000000"],
     "--n: must be in [3, 1000000]"),
    (["gen-data", "g.csv", "--b", "1", "--a", "1", "--sigma-max", "0"],
     "sigma_max"),
    (["gen-data", "g.csv", "--b", "1", "--a", "1", "--noise", "-1"], "noise"),
], ids=["fit-data-line", "fit-one-column-first-line", "fit-three-fields",
        "fit-init-b", "fit-init-b-inf", "fit-max-iters-zero", "b-negative",
        "b-nan", "a-zero", "n-two", "n-1e11", "sigma-max-zero", "noise-negative"])
def test_bad_fit_and_gen_data_input_exit_code(tmp_path, monkeypatch, capsys,
                                              argv, named):
    monkeypatch.chdir(tmp_path)
    Path("bad.csv").write_text("stress,strain\n1,2\nfoo,bar\n")
    Path("one.csv").write_text("1.0\n2.0 0.5\n3.0 0.7\n4.0 0.8\n")
    Path("three.csv").write_text("stress,strain\n1,0.5,9\n2,0.7\n3,0.8\n4,1\n")
    Path("good.csv").write_text("stress,strain\n0,0\n1,0.5\n2,0.7\n3,0.8\n")
    assert main(argv + ["--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and named in err and "Traceback" not in err
    assert not Path("g.csv").exists()


@pytest.mark.parametrize("argv, code", [
    (["d.csv", "--init-b", "1e300"], 0), (["d.csv", "--init-a", "1e300"], 0),
    (["huge.csv"], 3)], ids=["init-b-1e300", "init-a-1e300", "strains-1e307"])
def test_fit_warns_nowhere_and_a_fit_that_is_not_finite_exits_3(
        tmp_path, monkeypatch, capsys, argv, code):
    # overflow in the optimizer's sums of squares is the law's to ignore
    # (a RuntimeWarning is an error here); an SSE of strains near 1e307
    # overflows to inf, and R^2 is then NaN
    monkeypatch.chdir(tmp_path)
    Path("d.csv").write_text("0 0\n1 0.5\n2 0.7\n3 0.8\n")
    Path("huge.csv").write_text("0 3e307\n2.5 7e307\n5 3e307\n")
    assert main(["fit", *argv, "--out", "o", "--quiet"]) == code
    err = capsys.readouterr().err
    assert err == ("" if code == 0 else
                   "solver failure: fit huge: sse=inf r2=nan is not finite\n")
    assert Path("o/fit.csv").exists() == (code == 0)
