import csv
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from stresswave import cli
from stresswave.cli import main, run_scenario
from stresswave.config import parse_config
from stresswave.constitutive import (HyperbolicityError, MaterialParams,
                                     strain, wave_speed)
from stresswave.fe_space import _LOCAL_NODES, build_space, lagrange_basis
from stresswave.integrator import run_simulation
from stresswave.postprocess import (BLOCK_ROWS, Samples, SnapshotRecord,
                                    _format_g17, reconstruct, sample_solution,
                                    snapshot_filename, write_snapshot)

from state_helpers import state

P12 = MaterialParams(rho=1.0, b=1.0, a=2.0)
P0 = MaterialParams(rho=1.0, b=0.0, a=1.5)


def _analytic_samples(func, func_dot, M):
    x = np.linspace(0.0, 1.0, M + 1)
    return Samples(x=x, sigma=func(x), sigma_dot=func_dot(x))


def test_sample_zero_field():
    space = build_space(1.0, 8, "uniform(2)")
    n = space.n_dofs
    s = sample_solution(space, np.zeros(n), np.zeros(n), 50)
    np.testing.assert_array_equal(s.sigma, 0.0)
    np.testing.assert_array_equal(s.sigma_dot, 0.0)
    assert len(s.x) == 51


def test_sample_interpolant_accuracy():
    space = build_space(1.0, 64, "uniform(1)")
    nodal = np.sin(np.pi * space.dof_coords)
    s = sample_solution(space, nodal, nodal, 100)
    # piecewise-linear interpolation error of sin(pi x) at h = 1/64
    assert np.max(np.abs(s.sigma - np.sin(np.pi * s.x))) < 2.0 * (np.pi / 64)**2


def test_sample_at_cell_boundary_is_nodal_value():
    space = build_space(1.0, 10, "uniform(1)")
    rng = np.random.default_rng(0)
    nodal = rng.normal(size=space.n_dofs)
    s = sample_solution(space, nodal, nodal, 10)  # sample points hit the nodes
    np.testing.assert_array_equal(s.sigma, nodal)


def _per_point(space, fields, x):
    """The fields at x, one point at a time from its cell's nodes."""
    ref = np.empty((len(fields), len(x)))
    for i, xp in enumerate(x):
        k = int(space.cell_containing(xp)[0])
        xl, xr = space.cell_edges[k], space.cell_edges[k + 1]
        p = int(space.degrees[k])
        vals, _ = lagrange_basis(_LOCAL_NODES[p],
                                 [2.0 * (xp - xl) / (xr - xl) - 1.0])
        for j, field in enumerate(fields):
            ref[j, i] = np.sum(vals[0] * field[space.dof_table[k, :p + 1]])
    return ref


@pytest.mark.parametrize("policy", ["center_graded", "uniform(2)", "uniform(3)"])
def test_sample_matches_per_point_loop(policy):
    # 60 samples on 10 cells: every 6th point is a cell edge, both ends included
    space = build_space(2.0, 10, policy)
    rng = np.random.default_rng(5)
    fields = rng.normal(size=(2, space.n_dofs))
    s = sample_solution(space, fields[0], fields[1], 60)
    ref = _per_point(space, fields, s.x)
    np.testing.assert_array_equal(s.sigma, ref[0])
    np.testing.assert_array_equal(s.sigma_dot, ref[1])


def test_sample_cache_keyed_by_space_and_count():
    # the points and their table are cached per space and M: a second M,
    # a return to the first and a second space each get their own
    rng = np.random.default_rng(8)
    spaces = [build_space(2.0, 10, "center_graded"),
              build_space(1.0, 7, "uniform(3)")]
    for space, M in [(spaces[0], 60), (spaces[0], 17), (spaces[0], 60),
                     (spaces[1], 60), (spaces[1], 17), (spaces[0], 17)]:
        fields = rng.normal(size=(2, space.n_dofs))
        s = sample_solution(space, fields[0], fields[1], M)
        x = np.linspace(space.x_left, space.x_right, M + 1)
        np.testing.assert_array_equal(s.x, x)
        ref = _per_point(space, fields, x)
        np.testing.assert_array_equal(s.sigma, ref[0])
        np.testing.assert_array_equal(s.sigma_dot, ref[1])
    assert not s.x.flags.writeable  # shared by every call with this M


def test_sample_rejects_bad_m():
    space = build_space(1.0, 4, "uniform(1)")
    with pytest.raises(ValueError):
        sample_solution(space, np.zeros(space.n_dofs), np.zeros(space.n_dofs), 0)


def test_reconstruct_zero_stress():
    s = _analytic_samples(np.zeros_like, np.zeros_like, 32)
    rec = reconstruct(s, MaterialParams(rho=4.0, b=2.0, a=1.5))
    np.testing.assert_array_equal(rec.u, 0.0)
    np.testing.assert_array_equal(rec.v, 0.0)
    np.testing.assert_array_equal(rec.eps, 0.0)
    np.testing.assert_array_equal(rec.c, 0.5)


def test_reconstruct_anchors():
    s = _analytic_samples(lambda x: 0.1 + 0.5 * x, lambda x: np.cos(x), 17)
    rec = reconstruct(s, P12)
    assert rec.u[0] == 0.0 and rec.v[0] == 0.0


def test_reconstruct_constant_stress_exact():
    val = 0.8
    s = _analytic_samples(lambda x: np.full_like(x, val),
                          lambda x: np.zeros_like(x), 25)
    rec = reconstruct(s, P12)
    np.testing.assert_allclose(rec.u, strain(val, P12) * s.x, rtol=1e-12)


def test_reconstruct_trapezoid_convergence():
    # linear law, sigma = sin(pi x): u(1) -> 2/pi at second order
    errs = []
    for M in (25, 50, 100):
        s = _analytic_samples(lambda x: np.sin(np.pi * x),
                              lambda x: np.sin(np.pi * x), M)
        rec = reconstruct(s, P0)
        errs.append(abs(rec.u[-1] - 2.0 / np.pi))
        # for b=0, eps_dot = sigma_dot, so v follows the same integral
        assert rec.v[-1] == pytest.approx(rec.u[-1], rel=1e-12)
    assert np.log2(errs[0] / errs[1]) == pytest.approx(2.0, abs=0.05)
    assert np.log2(errs[1] / errs[2]) == pytest.approx(2.0, abs=0.05)


def test_reconstruct_nonlinear_u_against_quadrature():
    sig = lambda x: 0.8 * np.sin(np.pi * x)
    s = _analytic_samples(sig, np.zeros_like, 400)
    rec = reconstruct(s, P12)
    exact, _ = quad(lambda x: strain(sig(np.array(x)), P12), 0.0, 1.0,
                    epsabs=1e-13)
    assert rec.u[-1] == pytest.approx(exact, abs=1e-5)


def test_reconstruct_wave_speed_consistent():
    s = _analytic_samples(lambda x: np.sin(2 * np.pi * x),
                          lambda x: np.cos(2 * np.pi * x), 64)
    rec = reconstruct(s, P12)
    np.testing.assert_array_equal(rec.c, wave_speed(s.sigma, P12))


def test_reconstruct_rejects_nonuniform_grid():
    x = np.array([0.0, 0.1, 0.3, 0.6])
    s = Samples(x=x, sigma=np.zeros(4), sigma_dot=np.zeros(4))
    with pytest.raises(ValueError):
        reconstruct(s, P12)


def test_write_snapshot_zero_record(tmp_path):
    s = _analytic_samples(np.zeros_like, np.zeros_like, 12)
    rec = reconstruct(s, P12)
    path = write_snapshot(rec, 0.25, tmp_path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "x,sigma,u,v,eps,c"
    assert len(lines) == 14  # header + M + 1 rows
    assert path.name == "snapshot_t0.250000.csv"


def test_write_snapshot_roundtrip_bit_identical(tmp_path):
    rng = np.random.default_rng(9)
    x = np.linspace(0.0, 1.0, 21)
    s = Samples(x=x, sigma=rng.normal(size=21) * 0.3,
                sigma_dot=rng.normal(size=21))
    rec = reconstruct(s, P12)
    path = write_snapshot(rec, 0.125, tmp_path)
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    for field in ("x", "sigma", "u", "v", "eps", "c"):
        back = np.array([float(row[field]) for row in rows])
        np.testing.assert_array_equal(back, getattr(rec, field))


def test_snapshot_filenames_distinct():
    assert snapshot_filename(0.1) != snapshot_filename(0.2)
    assert snapshot_filename(0.1) == "snapshot_t0.100000.csv"


def _csv_reference(record, t, directory):
    """The csv.writer loops the vectorised writer replaced."""
    rows = list(zip(record.x, record.sigma, record.u, record.v,
                    record.eps, record.c))
    with open(directory / snapshot_filename(t), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "sigma", "u", "v", "eps", "c"])
        for row in rows:
            writer.writerow([f"{v:.17g}" for v in row])
    path = directory / "spacetime.csv"
    new = not path.exists()
    with open(path, "a", newline="") as fh:
        writer = csv.writer(fh)
        if new:
            writer.writerow(["t", "x", "sigma", "u", "v", "eps", "c"])
        for row in rows:
            writer.writerow([f"{t:.17g}"] + [f"{v:.17g}" for v in row])


def test_write_snapshot_new_x_gets_new_text(tmp_path):
    # the x column is formatted once per x: a changed x (even one that
    # differs only in the sign of a zero) is formatted afresh
    rng = np.random.default_rng(4)
    xs = [np.linspace(0.0, 1.0, 9), np.linspace(-0.0, 2.0, 9),
          np.linspace(0.0, 1.0, 12), np.linspace(0.0, 1.0, 9)]
    new, ref = tmp_path / "new", tmp_path / "ref"
    ref.mkdir()
    for i, x in enumerate(xs):
        f = rng.normal(size=(5, len(x)))
        rec = SnapshotRecord(x=x, sigma=f[0], sigma_dot=f[0], u=f[1], v=f[2],
                             eps=f[3], c=f[4])
        write_snapshot(rec, 0.5 * i, new)
        _csv_reference(rec, 0.5 * i, ref)
    for path in ref.iterdir():
        assert (new / path.name).read_bytes() == path.read_bytes()


def test_simulate_outputs_match_uncached_reference(tmp_path):
    # every file of a run equals one written without the cached point
    # table and row text: a per-point sampling loop, reconstruct and the
    # csv.writer reference
    mapping = {"material": {"b": 5.0, "a": 1.5},
               "drive": {"A": 0.3, "omega": 40.0},
               "mesh": {"n_cells": 16, "degree_policy": "center_graded"},
               "time": {"dt": 1.0e-3, "t_final": 0.05},
               "output": {"snapshot_interval": 0.01, "samples": 100}}
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(mapping))
    out, ref = tmp_path / "out", tmp_path / "ref"
    assert main(["simulate", "--config", str(cfg), "--out", str(out),
                 "--quiet"]) == 0
    config = parse_config(mapping)
    snapshots, report = run_simulation(config)
    ref.mkdir()
    x = np.linspace(0.0, config.mesh.L, config.output.samples + 1)
    for state in snapshots:
        sigma, sigma_dot = _per_point(report.space,
                                      [state.Sigma, state.Sigma_dot], x)
        rec = reconstruct(Samples(x=x, sigma=sigma, sigma_dot=sigma_dot),
                          config.material)
        _csv_reference(rec, state.t, ref)
    names = sorted(p.name for p in ref.iterdir())
    assert len(names) == 7  # six snapshots and spacetime.csv
    assert names == sorted(p.name for p in out.glob("*.csv"))
    for name in names:
        assert (out / name).read_bytes() == (ref / name).read_bytes()


def test_write_snapshot_matches_csv_writer_bytes(tmp_path):
    # 2,049 rows, as a 2,048-sample run writes, over 50 decades
    rng = np.random.default_rng(3)
    special = [np.nan, np.inf, -np.inf, -0.0, 5e-324, 1e300, 0.0]
    fields = rng.normal(size=(5, 2049)) * 10.0**rng.integers(-25, 25, (5, 2049))
    fields[:, :len(special)] = special
    fields[2] = np.roll(fields[2], 5)
    records = [SnapshotRecord(x=np.linspace(0.0, 1.0, 2049), sigma=f[0],
                              sigma_dot=f[1], u=f[2], v=f[3], eps=f[4],
                              c=f[0] * 1e-7)
               for f in (fields, fields[::-1] * 3.7)]
    new, ref = tmp_path / "new", tmp_path / "ref"
    ref.mkdir()
    times = (0.1 + 0.2, 1.0 / 3.0)  # both need 17 significant digits
    for rec, t in zip(records, times):
        write_snapshot(rec, t, new)
        _csv_reference(rec, t, ref)
    for name in [snapshot_filename(t) for t in times] + ["spacetime.csv"]:
        assert (new / name).read_bytes() == (ref / name).read_bytes()
    assert (new / "spacetime.csv").read_bytes().count(b"t,x") == 1


@pytest.mark.parametrize("policy", ["uniform(1)", "uniform(2)", "uniform(3)",
                                    "center_graded"])
def test_stacked_sample_and_reconstruct_equal_single_calls(policy):
    # a (k, n_dofs) stack gives, row by row, the bits of k single calls
    p = MaterialParams(rho=2.0, b=5.0, a=1.5)
    space = build_space(1.0, 12, policy)
    rng = np.random.default_rng(11)
    Sigma, Sigma_dot = rng.normal(size=(2, 5, space.n_dofs)) * 0.3
    Sigma[2] = Sigma_dot[2] = 0.0
    stack = sample_solution(space, Sigma, Sigma_dot, 40)
    rec = reconstruct(stack, p)
    assert rec.sigma.shape == rec.c.shape == (5, 41)
    for j in range(5):
        one = sample_solution(space, Sigma[j], Sigma_dot[j], 40)
        np.testing.assert_array_equal(stack.sigma[j], one.sigma)
        np.testing.assert_array_equal(stack.sigma_dot[j], one.sigma_dot)
        single = reconstruct(one, p)
        for field in ("u", "v", "eps", "c"):
            np.testing.assert_array_equal(getattr(rec, field)[j],
                                          getattr(single, field))


def _block_records(k, M, seed):
    """k reconstructed snapshots of M+1 rows as one (k, M+1) record and
    their times: stresses over 40 decades, so column widths differ between
    snapshots, and one zero state, whose u, v and eps print as 0 and c as 1."""
    rng = np.random.default_rng(seed)
    x = np.linspace(0.0, 1.0, M + 1)
    scale = 10.0 ** rng.integers(-20, 20, size=(k, 1))
    sigma = rng.normal(size=(k, M + 1)) * scale
    sigma[k // 2] = 0.0
    rec = reconstruct(Samples(x=x, sigma=sigma, sigma_dot=sigma * 0.7),
                      MaterialParams(rho=1.0, b=5.0, a=1.5))
    assert np.all(rec.c[k // 2] == 1.0)
    return rec, [j / 3.0 for j in range(k)]


def _rows(rec, rows):
    return SnapshotRecord(x=rec.x, **{f: getattr(rec, f)[rows] for f in (
        "sigma", "sigma_dot", "u", "v", "eps", "c")})


@pytest.mark.parametrize("per_block", [1, 2, 7, 9])
def test_block_output_equals_one_snapshot_at_a_time(tmp_path, per_block):
    # blocks of 1, 2, 7 and all 9 snapshots write the bytes that one
    # write_snapshot call per snapshot and the csv.writer reference write
    rec, times = _block_records(9, 30, seed=12)
    new, one, ref = tmp_path / "new", tmp_path / "one", tmp_path / "ref"
    ref.mkdir()
    for i in range(0, 9, per_block):
        last = write_snapshot(_rows(rec, slice(i, i + per_block)),
                              times[i:i + per_block], new)
        assert last.name == snapshot_filename(times[min(i + per_block, 9) - 1])
    for j, t in enumerate(times):
        write_snapshot(_rows(rec, j), t, one)
        _csv_reference(_rows(rec, j), t, ref)
    names = sorted(path.name for path in ref.iterdir())
    assert len(names) == 10
    assert sorted(path.name for path in new.iterdir()) == names
    for name in names:
        assert (new / name).read_bytes() == (one / name).read_bytes()
        assert (new / name).read_bytes() == (ref / name).read_bytes()


def test_failure_inside_a_block_writes_the_snapshots_before_it(tmp_path,
                                                                monkeypatch):
    # 21 snapshots of 257 rows go out in blocks of 7.  Snapshot 10, the
    # fourth of the second block, has a boundary stress where rho eps'
    # underflows to 0 (a sample point, not a quadrature point): the run
    # raises its HyperbolicityError after snapshots 0-9 are on disk
    config = parse_config({"material": {"rho": 1.0e-300, "b": 1.0e20},
                           "drive": {"A": 0.0},
                           "time": {"t_final": 0.2},
                           "output": {"snapshot_interval": 0.01}})
    assert BLOCK_ROWS // (config.output.samples + 1) == 7
    run = cli.run_simulation

    def one_bad_snapshot(config, on_keep=None, **kwargs):
        kept = []

        def keep(s):
            if len(kept) == 10:
                Sigma = s.Sigma.copy()
                Sigma[0] = 1.0e-5  # the node at x = 0, sampled exactly
                s = state(s.t, Sigma, s.Sigma_dot, s.Sigma_ddot)
            kept.append(s)
            if on_keep is not None:
                on_keep(s)

        _, report = run(config, on_keep=keep, **kwargs)
        return kept, report

    monkeypatch.setattr(cli, "run_simulation", one_bad_snapshot)
    with pytest.raises(HyperbolicityError) as err:
        run_scenario(config, tmp_path)
    snapshots, report = one_bad_snapshot(config)
    bad = snapshots[10]
    with pytest.raises(HyperbolicityError) as alone:
        reconstruct(sample_solution(report.space, bad.Sigma, bad.Sigma_dot,
                                    256), config.material)
    assert str(err.value) == str(alone.value)
    assert "times rho=1.000e-300 underflows to 0 at sigma=1e-05" in str(err.value)
    times = [s.t for s in snapshots[:10]]
    assert sorted(p.name for p in tmp_path.glob("snapshot_*.csv")) == \
        [snapshot_filename(t) for t in times]
    rows = (tmp_path / "spacetime.csv").read_bytes().split(b"\r\n")[1:-1]
    assert [row.split(b",", 1)[0] for row in rows] == \
        [b"%.17g" % t for t in times for _ in range(257)]


def _assert_g17(values):
    """_format_g17 gives '%.17g' % v for every v in values."""
    values = np.asarray(values, dtype=float).ravel()
    text = _format_g17(values)
    lines = np.column_stack([text, np.full(len(values), 10, np.uint8)])
    got = lines.tobytes().translate(None, b"\0")
    want = (b"%.17g\n" * len(values)) % tuple(values.tolist())
    if got != want:
        bad = [(v, g, w) for v, g, w in zip(values.tolist(), got.split(b"\n"),
                                            want.split(b"\n")) if g != w]
        pytest.fail(f"{len(bad)} values differ from %.17g, first {bad[:3]}")


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(allow_nan=True, allow_infinity=True,
                          allow_subnormal=True), min_size=1, max_size=40))
def test_format_g17_matches_percent_property(values):
    _assert_g17(values)


def test_format_g17_special_values():
    values = [0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, -5e-324,
              2.2250738585072014e-308, 1.7976931348623157e308, 1e-280,
              1e280, 0.1, 1 / 3, -2 / 3, 1.5, 100.0, 12345678901234567.0]
    _assert_g17(values)
    text = _format_g17(np.array([-np.nan, -0.0, 131073 / 131072]))
    assert [r.tobytes().strip(b"\0").replace(b"\0", b"") for r in text] == \
        [b"nan", b"-0", b"1.0000076293945312"]


def test_format_g17_random_bit_patterns():
    # 10^6 float64 bit patterns, every exponent, sign, nan payload and
    # subnormal; formatted in blocks of 10^5 to keep memory small
    rng = np.random.default_rng(20)
    for _ in range(10):
        _assert_g17(rng.integers(0, 2**64, size=10**5, dtype=np.uint64)
                    .view(np.float64))


def test_format_g17_exact_ties():
    # q / 2**17 with q odd above 2**17 lies exactly halfway between two
    # 17-digit decimals (131073/131072 = 1.00000762939453125), which %
    # rounds to even; one ulp either side is no tie
    ties = np.arange(2**17 + 1, 2**18, 2) / 2**17
    _assert_g17(np.concatenate([ties, np.nextafter(ties, 0.0),
                                np.nextafter(ties, 4.0), -ties]))


def test_format_g17_powers_of_ten_two_ulps_either_side():
    p = np.array([float(f"1e{k}") for k in range(-323, 309)])
    near = [p]
    for toward in (0.0, np.inf):
        q = p
        for _ in range(2):
            q = np.nextafter(q, toward)
            near.append(q)
    _assert_g17(np.concatenate(near))


@pytest.mark.parametrize("value, text", [
    (1e-5, "1.0000000000000001e-05"), (9.9999999999999991e-06, "9.9999999999999991e-06"),
    (1e-4, "0.0001"), (9.9999999999999991e-05, "9.9999999999999991e-05"),
    (0.00010000000000000002, "0.00010000000000000002"),
    (1e16, "10000000000000000"), (9999999999999998.0, "9999999999999998"),
    (1e17, "1e+17"), (99999999999999984.0, "99999999999999984"),
    (1.0000000000000002e17, "1.0000000000000002e+17"), (-1e100, "-1e+100"),
])
def test_format_g17_notation_switches(value, text):
    # %g is fixed for -4 <= E < 17 and scientific outside
    assert "%.17g" % value == text
    _assert_g17([value, -value])
    row = _format_g17(np.array([value]))[0]
    assert row.tobytes().replace(b"\0", b"").decode() == text
