import dataclasses

import numpy as np
import pytest

from stresswave.config import parse_config
from stresswave.assembly import assemble_load_at
from stresswave.constitutive import MaterialParams
from stresswave.fe_space import build_space
from stresswave.verification import (_mms_run_error, convergence_study,
                                     l2_error, mms_fields, mms_forcing,
                                     observed_rate)

from stage_helpers import inertia

P12 = MaterialParams(rho=1.0, b=1.0, a=2.0)


def test_mms_fields_boundary_values():
    for x in (0.0, 1.0):
        f = mms_fields(x, 0.77)
        assert abs(float(f.sigma)) < 1e-15
        assert abs(float(f.sigma_t)) < 1e-15
        assert abs(float(f.sigma_tt)) < 1e-15
        assert abs(float(f.sigma_xx)) < 1e-15


def test_mms_fields_known_values():
    f0 = mms_fields(0.3, 0.0)
    assert float(f0.sigma) == 0.0
    assert float(f0.sigma_t) == pytest.approx(np.sin(0.3 * np.pi))
    f = mms_fields(0.5, np.pi / 2.0)
    assert float(f.sigma) == pytest.approx(1.0)
    assert float(f.sigma_xx) == pytest.approx(-np.pi**2)


def test_mms_forcing_linear_closed_form():
    p = MaterialParams(rho=1.0, b=0.0, a=1.5)
    x = np.linspace(0.0, 1.0, 33)
    t = 0.9
    expected = (np.pi**2 - 1.0) * np.sin(np.pi * x) * np.sin(t)
    np.testing.assert_allclose(mms_forcing(x, t, p), expected, atol=1e-13)


@pytest.mark.parametrize("policy", ["uniform(1)", "uniform(3)",
                                    "center_graded"])
@pytest.mark.parametrize("p", [P12, MaterialParams(rho=1.3, b=5.0, a=1.5)])
def test_mms_forcing_matches_field_expression(policy, p):
    def full(x, t):
        # f = rho [eps' sigma_tt + eps'' sigma_t^2] - sigma_xx from all fields
        f = mms_fields(x, t)
        return inertia(f.sigma, f.sigma_t, f.sigma_tt, p) - f.sigma_xx

    space = build_space(1.0, 24, policy)
    times = [0.0, 0.37, 1.9, 4.0]
    ref = assemble_load_at(space, full, times)
    got = assemble_load_at(space, lambda x, tt: mms_forcing(x, tt, p), times)
    for r, g in zip(ref, got):
        np.testing.assert_allclose(g, r, rtol=1e-13,
                                   atol=1e-13 * np.max(np.abs(r)))


def test_mms_forcing_vanishes_on_boundary():
    assert abs(float(mms_forcing(0.0, 1.3, P12))) < 1e-15
    assert abs(float(mms_forcing(1.0, 0.4, P12))) < 1e-15


def test_mms_forcing_spot_value_against_mpmath():
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 40
    x, t = mp.mpf("0.5"), mp.mpf("1.0")

    def eps_of(s):
        return s / (1 + (1 * abs(s))**2)**(mp.mpf(1) / 2)

    sigma = mp.sin(mp.pi * x) * mp.sin(t)
    sigma_t = mp.sin(mp.pi * x) * mp.cos(t)
    sigma_tt = -sigma
    sigma_xx = -mp.pi**2 * sigma
    def law(s, p):
        return mp.diff(eps_of, s), mp.diff(eps_of, s, 2)

    expected = float(inertia(sigma, sigma_t, sigma_tt, P12, law) - sigma_xx)
    got = float(mms_forcing(0.5, 1.0, P12))
    assert got == pytest.approx(expected, abs=1e-12)


def test_l2_error_exact_interpolant_at_t0():
    space = build_space(1.0, 16, "uniform(1)")
    Sigma = mms_fields(space.dof_coords, 0.0).sigma  # all zeros
    assert l2_error(space, Sigma, 0.0) == 0.0


def test_l2_error_zero_field_at_quarter_period():
    space = build_space(1.0, 64, "uniform(2)")
    err = l2_error(space, np.zeros(space.n_dofs), np.pi / 2.0)
    assert err == pytest.approx(np.sqrt(0.5), rel=1e-10)


def test_l2_error_constant_offset():
    space = build_space(1.0, 64, "uniform(3)")
    c = 0.37
    Sigma = mms_fields(space.dof_coords, 0.7).sigma + c
    assert l2_error(space, Sigma, 0.7) == pytest.approx(c, rel=1e-6)


def test_rate_formula_reproduces_published_style_table():
    errors = [1.246e-4, 3.117e-5, 7.793e-6, 1.948e-6]
    rates = [observed_rate(a, b) for a, b in zip(errors, errors[1:])]
    for r in rates:
        assert round(r, 2) == 2.00


def _base_config(t_final):
    return parse_config({"material": {"rho": 1.0, "b": 1.0, "a": 2.0},
                         "drive": {"A": 0.0},
                         "time": {"alpha": -0.05, "t_final": t_final},
                         "output": {"snapshot_interval": 0.0}})


def test_spatial_study_smoke(tmp_path):
    table = convergence_study("spatial", _base_config(0.02), cells=(8, 16))
    assert table.rows[0].dofs == 9 and table.rows[1].dofs == 17
    assert table.rows[0].rate is None
    assert table.rows[1].rate == pytest.approx(2.0, abs=0.3)
    path = table.write_csv(tmp_path / "spatial.csv")
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "resolution,dofs,l2_error,rate"
    assert len(lines) == 3


def test_temporal_study_smoke():
    table = convergence_study("temporal", _base_config(0.5), dts=(8e-3, 4e-3))
    assert table.rows[0].dofs is None
    assert table.rows[1].rate == pytest.approx(2.0, abs=0.3)


@pytest.mark.parametrize("policy, min_rate", [("uniform(2)", 2.9),
                                              ("uniform(3)", 3.9),
                                              ("center_graded", 1.95)])
def test_spatial_rate_is_degree_plus_one(policy, min_rate):
    # dt 1e-4 keeps the time error below the spatial one on every rung.
    # center_graded's band edges (0.1, 0.3, 0.7 and 0.9 L) are cell edges
    # when n_cells is a multiple of 10, so each rung of 10-80 cells has the
    # same mix (1/5 linear, 2/5 quadratic, 2/5 cubic) and the linear cells
    # set the rate, 2 (1.86, 1.97, 1.99); on 4-32 cells the linear share
    # goes 0, 2/8, 4/16, 6/32 and the rates are erratic (0.38, 1.86, 2.59)
    graded = policy == "center_graded"
    errors = []
    for n in (10, 20, 40, 80) if graded else (4, 8, 16, 32):
        cfg = _base_config(0.1)
        err, _ = _mms_run_error(dataclasses.replace(
            cfg, mesh=dataclasses.replace(cfg.mesh, n_cells=n,
                                          degree_policy=policy),
            time=dataclasses.replace(cfg.time, dt=1e-4)))
        errors.append(err)
    rates = [observed_rate(a, b) for a, b in zip(errors, errors[1:])]
    assert min(rates[-1:] if graded else rates) >= min_rate, rates


def test_convergence_study_rejects_unknown_kind():
    with pytest.raises(ValueError):
        convergence_study("spacetime", _base_config(0.1))
