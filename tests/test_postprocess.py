import csv

import numpy as np
import pytest
from scipy.integrate import quad

from stresswave.constitutive import MaterialParams, strain, wave_speed
from stresswave.fe_space import _LOCAL_NODES, build_space, lagrange_basis
from stresswave.postprocess import (Samples, SnapshotRecord, reconstruct,
                                    sample_solution, snapshot_filename,
                                    write_snapshot)

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


@pytest.mark.parametrize("policy", ["center_graded", "uniform(2)", "uniform(3)"])
def test_sample_matches_per_point_loop(policy):
    # 60 samples on 10 cells: every 6th point is a cell edge, both ends included
    space = build_space(2.0, 10, policy)
    rng = np.random.default_rng(5)
    fields = rng.normal(size=(2, space.n_dofs))
    s = sample_solution(space, fields[0], fields[1], 60)
    ref = np.empty((2, len(s.x)))
    for i, xp in enumerate(s.x):
        k = int(space.cell_containing(xp)[0])
        xl, xr = space.cell_edges[k], space.cell_edges[k + 1]
        p = int(space.degrees[k])
        vals, _ = lagrange_basis(_LOCAL_NODES[p],
                                 [2.0 * (xp - xl) / (xr - xl) - 1.0])
        for j in range(2):
            ref[j, i] = np.sum(vals[0] * fields[j][space.dof_table[k, :p + 1]])
    np.testing.assert_array_equal(s.sigma, ref[0])
    np.testing.assert_array_equal(s.sigma_dot, ref[1])


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


def test_write_snapshot_matches_csv_writer_bytes(tmp_path):
    rng = np.random.default_rng(3)
    special = [np.nan, np.inf, -np.inf, -0.0, 5e-324, 1e300, 0.0]
    fields = rng.normal(size=(5, 20))
    fields[:, :len(special)] = special
    fields[2] = np.roll(fields[2], 5)
    records = [SnapshotRecord(x=np.linspace(0.0, 1.0, 20), sigma=f[0],
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
