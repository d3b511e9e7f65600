import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stresswave import integrator
from stresswave.assembly import assemble_load_at, assemble_stiffness
from stresswave.config import parse_config
from stresswave.constitutive import HyperbolicityError, MaterialParams
from stresswave.fe_space import build_space
from stresswave.integrator import (BoundaryDrive, HhtParams,
                                   NewtonDivergedError, NewtonSettings,
                                   advance_step, initial_acceleration,
                                   run_simulation)
from stresswave.verification import mms_fields, mms_forcing

from stage_helpers import (band_product, reference_residual,
                           singular_tangent, stage_weights, step_system)
from state_helpers import (boundary_acceleration, linear_modal_oracle,
                           newmark_update, state, zero_state)

P12 = MaterialParams(rho=1.0, b=1.0, a=2.0)
LINEAR = MaterialParams(rho=1.0, b=0.0, a=1.5)
NEWTON = NewtonSettings(tol=1.0e-10, k_max=20)


def _inline_stage(space, state_n, sdd, hht, p, load):
    """The reference residual of the trial acceleration sdd at the stage
    blended explicitly: (S*, Sd*, sdd) with S* = (1+alpha) S_{n+1} - alpha
    S_n (and the same for the rate), S_{n+1}, Sd_{n+1} the Newmark update
    of sdd."""
    a = hht.alpha
    Sigma, Sigma_dot = newmark_update(state_n, sdd, hht)
    stage = ((1 + a) * Sigma - a * state_n.Sigma,
             (1 + a) * Sigma_dot - a * state_n.Sigma_dot, sdd)
    elastic = band_product(assemble_stiffness(space), stage[0]) - load
    return reference_residual(space, *stage, p, elastic)


def _mms_config(overrides=None):
    mapping = {"material": {"rho": 1.0, "b": 1.0, "a": 2.0},
               "drive": {"A": 0.0},
               "mesh": {"n_cells": 16},
               "time": {"alpha": -0.05, "dt": 1e-3, "t_final": 0.1},
               "output": {"snapshot_interval": 0.0}}
    for section, kv in (overrides or {}).items():
        mapping.setdefault(section, {}).update(kv)
    return parse_config(mapping)


def _run_mms(cfg):
    p = cfg.material
    return run_simulation(cfg,
                          forcing=lambda x, t: mms_forcing(x, t, p),
                          initial_sigma=lambda x: mms_fields(x, 0.0).sigma,
                          initial_rate=lambda x: mms_fields(x, 0.0).sigma_t)


def test_hht_params_derived():
    hht = HhtParams(alpha=-0.05, dt=0.1)
    assert hht.beta_nm == pytest.approx(0.275625)
    assert hht.gamma_nm == pytest.approx(0.55)
    hht0 = HhtParams(alpha=0.0, dt=0.1)
    assert (hht0.beta_nm, hht0.gamma_nm) == (0.25, 0.5)


def test_hht_params_validation():
    with pytest.raises(ValueError):
        HhtParams(alpha=0.1, dt=0.1)
    with pytest.raises(ValueError):
        HhtParams(alpha=-0.5, dt=0.1)
    with pytest.raises(ValueError):
        HhtParams(alpha=-0.05, dt=0.0)


def test_newton_settings_validation():
    with pytest.raises(ValueError):
        NewtonSettings(tol=0.0, k_max=20)
    with pytest.raises(ValueError):
        NewtonSettings(tol=1.0e-10, k_max=0)


def test_newmark_zero():
    hht = HhtParams(alpha=-0.1, dt=0.2)
    s, sd = newmark_update(zero_state(4), np.zeros(4), hht)
    np.testing.assert_array_equal(s, 0.0)
    np.testing.assert_array_equal(sd, 0.0)


def test_newmark_constant_acceleration():
    a0 = 2.5
    for alpha in (0.0, -0.05, -1.0 / 3.0):
        hht = HhtParams(alpha=alpha, dt=0.3)
        state_n = state(0.0, np.zeros(3), np.zeros(3), np.full(3, a0))
        s, sd = newmark_update(state_n, np.full(3, a0), hht)
        np.testing.assert_allclose(s, a0 * 0.3**2 / 2.0, rtol=1e-14)
        np.testing.assert_allclose(sd, a0 * 0.3, rtol=1e-14)


def test_newmark_scalar_spot_value():
    # independent arithmetic: alpha=-0.05 -> beta=0.275625, gamma=0.55
    hht = HhtParams(alpha=-0.05, dt=0.1)
    state_n = state(0.0, np.array([1.0]), np.array([2.0]), np.array([3.0]))
    s, sd = newmark_update(state_n, np.array([4.0]), hht)
    sigma_expected = 1.0 + 0.1 * 2.0 + 0.1**2 * ((1 - 2 * 0.275625) / 2 * 3.0
                                                 + 0.275625 * 4.0)
    rate_expected = 2.0 + 0.1 * ((1 - 0.55) * 3.0 + 0.55 * 4.0)
    assert s[0] == pytest.approx(sigma_expected, rel=1e-15)
    assert sd[0] == pytest.approx(rate_expected, rel=1e-15)
    assert sigma_expected == pytest.approx(1.21775625)
    assert rate_expected == pytest.approx(2.355)


def test_newmark_stage_rows():
    # the stage bases are (1+alpha) pred - alpha (S, Sd), and the stage
    # moves with the acceleration by (1+alpha) times the correctors: the
    # first residual of advance_step is that of the stage blended inline,
    # at the acceleration it starts from (the old one, with the boundary
    # accelerations that hit the boundary data)
    rng = np.random.default_rng(3)
    space = build_space(1.0, 6, "uniform(2)")
    n, p = space.n_dofs, MaterialParams(rho=1.3, b=1.0, a=1.5)
    for alpha in (0.0, -0.05, -1.0 / 3.0):
        hht = HhtParams(alpha=alpha, dt=0.01)
        state_n = state(0.2, 0.2 * rng.normal(size=n), rng.normal(size=n),
                        rng.normal(size=n))
        load, bc = rng.normal(size=n), 0.1
        _, report = advance_step(state_n, 0.21, hht.kernel(space, p), NEWTON,
                                 bc, load)
        sdd = state_n.Sigma_ddot.copy()
        sdd[0] = boundary_acceleration(0.0, 0, state_n, hht)
        sdd[-1] = boundary_acceleration(bc, -1, state_n, hht)
        R = _inline_stage(space, state_n, sdd, hht, p, load)
        assert report.history[0] == pytest.approx(np.linalg.norm(R[1:-1]),
                                                  rel=1e-12)


def test_boundary_acceleration_zero_cases():
    hht = HhtParams(alpha=-0.05, dt=0.01)
    space = build_space(1.0, 4, "uniform(1)")
    stepper = hht.kernel(space, LINEAR)
    got, _ = advance_step(zero_state(5), 0.01, stepper, NEWTON)
    assert got.Sigma_ddot[0] == got.Sigma_ddot[-1] == 0.0
    # a boundary value equal to the predictor needs no correction
    rng = np.random.default_rng(1)
    state_n = state(0.0, rng.normal(size=5), rng.normal(size=5),
                    rng.normal(size=5))
    pred = newmark_update(state_n, 0.0, hht)[0]
    got, _ = advance_step(state_n, 0.01, stepper, NEWTON, pred[-1])
    assert got.Sigma_ddot[-1] == pytest.approx(0.0, abs=1e-12)


def test_boundary_acceleration_roundtrip():
    drive = BoundaryDrive(A=0.5, omega=3.0)
    hht = HhtParams(alpha=-0.05, dt=0.02)
    rng = np.random.default_rng(2)
    space = build_space(1.0, 3, "uniform(1)")
    state_n = state(0.3, rng.normal(size=4), rng.normal(size=4),
                    rng.normal(size=4))
    got, _ = advance_step(state_n, 0.32, hht.kernel(space, LINEAR), NEWTON,
                          drive.value(0.32))
    assert got.t == 0.32
    assert got.Sigma[-1] == pytest.approx(drive.value(0.32), abs=1e-14)
    assert got.Sigma[0] == pytest.approx(0.0, abs=1e-14)


def _assert_newmark_step(state_n, got, hht, bc):
    """got is the Newmark step of state_n to its own acceleration, to
    1e-13 relative, with boundary accelerations that hit 0 and bc."""
    S, Sd = newmark_update(state_n, got.Sigma_ddot, hht)
    for mine, ref in ((got.Sigma, S), (got.Sigma_dot, Sd)):
        assert np.max(np.abs(mine - ref)) <= 1e-13 * np.max(np.abs(ref))
    dt, beta = hht.dt, hht.beta_nm
    scale = np.abs(state_n.X[:, [0, -1]]).sum(axis=0).max() + abs(bc)
    for node, value in ((0, 0.0), (-1, bc)):
        ref = boundary_acceleration(value, node, state_n, hht)
        assert abs(got.Sigma_ddot[node] - ref) <= 1e-13 * scale / (beta * dt**2)
        assert abs(got.Sigma[node] - value) <= 1e-13 * scale


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       alpha=st.sampled_from([0.0, -0.05, -1.0 / 3.0]),
       dt=st.floats(1e-4, 5e-2))
def test_step_algebra_matches_newmark_formulas(seed, alpha, dt):
    # advance_step's coefficient-matrix step against the Newmark update
    # and boundary accelerations written out term by term
    space = build_space(1.0, 5, "uniform(2)")
    n = space.n_dofs
    rng = np.random.default_rng(seed)
    hht = HhtParams(alpha=alpha, dt=dt)
    drive = BoundaryDrive(A=0.5, omega=3.0)
    state_n = state(0.3, 0.2 * rng.normal(size=n), rng.normal(size=n),
                    rng.normal(size=n))
    bc = drive.value(0.3 + dt)
    p = MaterialParams(rho=1.3, b=1.0, a=1.5)
    got, _ = advance_step(state_n, 0.3 + dt, hht.kernel(space, p), NEWTON, bc,
                          rng.normal(size=n))
    _assert_newmark_step(state_n, got, hht, bc)


@pytest.mark.parametrize("alpha", [0.0, -0.05, -1.0 / 3.0])
def test_shortened_last_step_matches_newmark_formulas(alpha):
    # t_final = 2.5 dt: the last step is half a step
    cfg = parse_config({"material": {"b": 5.0, "a": 1.5},
                        "drive": {"A": 0.3},
                        "mesh": {"n_cells": 8},
                        "time": {"dt": 1e-2, "t_final": 0.025,
                                 "alpha": alpha},
                        "output": {"snapshot_interval": 0.01}})
    snaps, report = run_simulation(cfg)
    assert [s.t for s in snaps] == [0.0, 0.01, 0.02, 0.025]
    prev, last = snaps[-2:]
    hht = HhtParams(alpha=alpha, dt=last.t - prev.t)
    assert hht.dt < 0.6e-2
    _assert_newmark_step(prev, last, hht, cfg.drive.value(last.t))


def test_advance_step_zero_data_one_iteration():
    space = build_space(1.0, 8, "uniform(1)")
    hht = HhtParams(alpha=-0.05, dt=1e-3)
    state, report = advance_step(zero_state(space.n_dofs), 1e-3,
                                 hht.kernel(space, P12), NEWTON)
    assert report.iters == 1
    np.testing.assert_array_equal(state.Sigma, 0.0)
    np.testing.assert_array_equal(state.Sigma_dot, 0.0)
    np.testing.assert_array_equal(state.Sigma_ddot, 0.0)
    assert state.t == 1e-3


def test_advance_step_nan_load_diverges_at_once():
    space = build_space(1.0, 8, "uniform(1)")
    nan = np.full(space.n_dofs, np.nan)
    with pytest.raises(NewtonDivergedError) as err:
        advance_step(zero_state(space.n_dofs), 1e-3,
                     HhtParams(alpha=-0.05, dt=1e-3).kernel(space, P12),
                     NEWTON, load=nan)
    assert err.value.iters == 0
    assert err.value.t == 1e-3


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_advance_step_large_residual_with_a_bad_entry_diverges(bad):
    # a load of 1e300 makes the squares of the residual overflow, which
    # the norm scales away; one inf or NaN entry among them is still not
    # finite (in a run's error state)
    space = build_space(1.0, 8, "uniform(1)")
    load = np.full(space.n_dofs, 1e300)
    load[4] = bad
    with pytest.raises(NewtonDivergedError, match="not finite") as err, \
            np.errstate(over="ignore", invalid="ignore"):
        advance_step(zero_state(space.n_dofs), 1e-3,
                     HhtParams(alpha=-0.05, dt=1e-3).kernel(space, P12),
                     NEWTON, load=load)
    assert err.value.iters == 0


def test_interior_norm_scales_only_a_finite_residual_that_overflows():
    norm = integrator._interior_norm
    assert norm(np.array([np.nan, 3.0, 4.0, np.inf])) == 5.0  # ends dropped
    with np.errstate(over="ignore", invalid="ignore"):  # a run's
        assert norm(np.array([0.0, 3e300, -4e300, 0.0])) == pytest.approx(
            5e300, rel=1e-15)
        assert norm(np.array([0.0, 1e300, np.inf, 0.0])) == np.inf
        assert np.isnan(norm(np.array([0.0, 1e300, np.nan, 0.0])))
        assert norm(np.full(4, 1.5e308)) == np.inf  # beyond the float range


def test_advance_step_singular_tangent_diverges(monkeypatch):
    # a tangent whose column 5 is zero meets a zero pivot there, at the
    # interior node 5 (gtsv at bandwidth 1, gbsv above), which the error
    # names
    singular_tangent(monkeypatch, 5)
    for policy in ("uniform(1)", "uniform(3)"):
        space = build_space(1.0, 8, policy)
        with pytest.raises(NewtonDivergedError, match="singular") as err:
            advance_step(zero_state(space.n_dofs), 1e-3,
                         HhtParams(alpha=-0.05, dt=1e-3).kernel(space, P12),
                         NEWTON,
                         BoundaryDrive(A=0.02, omega=2.0 * np.pi).value(1e-3))
        x = space.dof_coords[5]
        assert err.value.iters == 0
        assert err.value.t == 1e-3
        assert err.value.x == x
        assert str(err.value) == (
            f"Newton tangent is singular at t=0.001, x={x:.6g}: "
            f"singular matrix (zero pivot 5)")


def test_solver_errors_pickle_with_their_fields():
    # a process pool hands a sweep member's failure back by pickle
    import pickle
    errors = [NewtonDivergedError("m", t=0.5, iters=3, history=[1.0, 0.5],
                                  x=0.25),
              NewtonDivergedError("m", t=0.0, iters=0, history=[]),
              HyperbolicityError("h", sigma=2.0, x=0.75, t=0.125)]
    for exc in errors:
        back = pickle.loads(pickle.dumps(exc))
        assert type(back) is type(exc) and str(back) == str(exc)
        assert vars(back) == vars(exc)


def _run_or_failure(cfg, sign, mu, amp, rate):
    """(snapshots, report) of cfg, on [0, L] = [0, mu], with its drive and
    its initial stress amp sin(pi x / mu) and rate rate sin(2 pi x / mu)
    / mu times sign, or the solver failure it ends in."""
    cfg = dataclasses.replace(
        cfg, drive=dataclasses.replace(cfg.drive, A=sign * cfg.drive.A))
    try:
        return run_simulation(
            cfg, initial_sigma=lambda x: sign * amp * np.sin(np.pi * x / mu),
            initial_rate=lambda x: (sign * rate / mu
                                    * np.sin(2.0 * np.pi * x / mu)))
    except (NewtonDivergedError, HyperbolicityError) as exc:
        return exc


@settings(max_examples=40, deadline=None, derandomize=True)
@given(policy=st.sampled_from(["uniform(1)", "uniform(2)", "uniform(3)",
                               "center_graded"]),
       b=st.floats(0.0, 10.0), a=st.floats(0.5, 10.0),
       n_cells=st.integers(16, 32), A=st.floats(0.0, 0.05),
       amp=st.floats(-1.0, 1.0), rate=st.floats(-1.0, 1.0),
       mu=st.sampled_from([1.0, 2.0, 0.25]))
# Newton stalls at t = 0.035 (a = 0.5, a stress near 0)
@example(policy="uniform(1)", b=9.122578539660545, a=0.5, n_cells=29, A=0.0,
         amp=-3.4649221734554626e-34, rate=0.5, mu=1.0)
@example(policy="uniform(1)", b=9.122578539660545, a=0.5, n_cells=29, A=0.0,
         amp=-3.4649221734554626e-34, rate=0.5, mu=2.0)
def test_negated_data_give_negated_states(policy, b, a, n_cells, A, amp,
                                           rate, mu):
    # the law is odd in sigma and every other operation of a step is
    # linear or even in the state, so negated initial stress, rate and
    # drive give negated states with equal floats (the sign of an exact
    # zero aside) and the same Newton histories, 200 steps long; a run
    # that fails fails the same way, at the same step and node.  Lengths
    # and times scaled by mu, a power of 2, and omega by 1 / mu scale
    # every operation by a power of 2, so they give the same stresses at
    # the scaled times, rates / mu and accelerations / mu^2, bit for bit,
    # and fail at the scaled time and node; the Newton counts are not
    # compared then, since the residual scales by 1 / mu and the absolute
    # floor NEWTON_ABS_FLOOR does not
    def config(mu):
        return parse_config({
            "material": {"b": b, "a": a}, "drive": {"A": A,
                                                    "omega": 2.0 * np.pi / mu},
            "mesh": {"L": mu, "n_cells": n_cells, "degree_policy": policy},
            "time": {"dt": 1e-3 * mu, "t_final": 0.2 * mu},
            "output": {"snapshot_interval": 0.05 * mu}})

    pos = _run_or_failure(config(1.0), 1.0, 1.0, amp, rate)
    neg = _run_or_failure(config(mu), -1.0, mu, amp, rate)
    if isinstance(pos, Exception):
        assert type(neg) is type(pos)
        assert (neg.t, neg.x) == (mu * pos.t, mu * pos.x)
        if isinstance(pos, NewtonDivergedError):
            if mu == 1.0:
                assert (neg.iters, neg.history) == (pos.iters, pos.history)
        else:
            assert neg.sigma == -pos.sigma
        return
    (snaps, report), (neg_snaps, neg_report) = pos, neg
    if mu == 1.0:
        assert neg_report.newton_iters == report.newton_iters
        assert neg_report.residual_histories == report.residual_histories
    assert [s.t for s in neg_snaps] == [mu * s.t for s in snaps]
    scale = np.array([[1.0], [1.0 / mu], [1.0 / mu**2]])
    for mine, ref in zip(neg_snaps, snaps):
        assert np.array_equal(mine.X, -scale * ref.X)


def test_hyperbolicity_failure_names_its_time():
    # the stage guard's error carries the step's time, and 0 for the t = 0
    # balance; saturated stresses (w = inf) give eps' = 0 everywhere
    space = build_space(1.0, 8, "uniform(1)")
    n = space.n_dofs
    p = MaterialParams(rho=1.0, b=1e200, a=2.0)
    ones = np.ones(n)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        with pytest.raises(HyperbolicityError) as at0:
            initial_acceleration(space, ones, ones, p)
        with pytest.raises(HyperbolicityError) as step:
            advance_step(state(0.0, ones, ones, ones), 1e-3,
                         HhtParams(alpha=-0.05, dt=1e-3).kernel(space, p),
                         NEWTON)
    assert at0.value.t == 0.0 and str(at0.value).endswith(" at t=0")
    assert step.value.t == 1e-3 and str(step.value).endswith(" at t=0.001")
    assert str(step.value).startswith("tangent compliance 0.000e+00 <= 0")


def test_advance_step_solves_its_discrete_equations():
    # the converged step is the Newmark update of its own acceleration
    # with the boundary data met, its stage residual (the weak form
    # blended inline) is below Newton's threshold, and Newton got there
    # quadratically, which a tangent that is not dR/dSdd does not
    space = build_space(1.0, 12, "center_graded")
    n = space.n_dofs
    p = MaterialParams(rho=1.0, b=5.0, a=1.5)
    hht = HhtParams(alpha=-0.05, dt=1e-2)
    bc = BoundaryDrive(A=0.3, omega=3.0).value(0.21)
    rng = np.random.default_rng(11)
    state_n = state(0.2, 0.2 * rng.normal(size=n), rng.normal(size=n),
                    rng.normal(size=n))
    load = rng.normal(size=n)
    got, report = advance_step(state_n, 0.21, hht.kernel(space, p), NEWTON,
                               bc, load)
    _assert_newmark_step(state_n, got, hht, bc)
    R = _inline_stage(space, state_n, got.Sigma_ddot, hht, p, load)
    history = report.history
    assert report.iters == len(history) - 1 >= 3
    assert np.linalg.norm(R[1:-1]) <= NEWTON.tol * history[0]
    assert all(r1 <= 2.0 * r0**2 / history[0] for r0, r1 in
               zip(history, history[1:]) if r0 >= 1e-6 * history[0])


@pytest.mark.parametrize("alpha", [0.0, -0.05, -1.0 / 3.0])
def test_step_system_residual_matches_inline_stage(alpha):
    space = build_space(1.0, 12, "center_graded")
    n = space.n_dofs
    p = MaterialParams(rho=1.0, b=5.0, a=1.5)
    hht = HhtParams(alpha=alpha, dt=1e-2)
    rng = np.random.default_rng(5)
    state_n = state(0.2, 0.2 * rng.normal(size=n), rng.normal(size=n),
                    rng.normal(size=n))
    load = rng.normal(size=n)
    residual, _ = step_system(state_n, space, hht, p, load)
    for _ in range(3):
        sdd = rng.normal(size=n)
        R = residual(sdd)
        R_ref = _inline_stage(space, state_n, sdd, hht, p, load)
        assert np.linalg.norm(R - R_ref) <= 1e-13 * np.linalg.norm(R_ref)


def test_float_load_is_a_constant_vector():
    # a float load enters the step like the vector of its value
    space = build_space(1.0, 6, "uniform(2)")
    n = space.n_dofs
    hht = HhtParams(alpha=-0.05, dt=1e-2)
    rng = np.random.default_rng(7)
    state_n = state(0.1, 0.2 * rng.normal(size=n), rng.normal(size=n),
                    rng.normal(size=n))
    stepper = hht.kernel(space, P12)
    got, _ = advance_step(state_n, 0.11, stepper, NEWTON, 0.0, 0.7)
    ref, _ = advance_step(state_n, 0.11, stepper, NEWTON, 0.0,
                          np.full(n, 0.7))
    np.testing.assert_array_equal(got.X, ref.X)
    nil, _ = advance_step(state_n, 0.11, stepper, NEWTON)
    assert not np.array_equal(got.Sigma_ddot, nil.Sigma_ddot)


def test_linear_material_single_newton_iteration():
    cfg = parse_config({"material": {"b": 0.0},
                        "mesh": {"n_cells": 32},
                        "time": {"dt": 2e-3, "t_final": 0.1},
                        "output": {"snapshot_interval": 0.0}})
    snaps, report = run_simulation(cfg)
    assert len(report.newton_iters) == 50
    assert set(report.newton_iters) == {1}
    assert np.max(np.abs(snaps[-1].Sigma)) > 0.0  # drive actually did something


@pytest.mark.parametrize("alpha", [0.0, -0.05, -1.0 / 3.0])
def test_linear_energy_kept_at_alpha_zero_lost_below(alpha):
    # b = 0 and no drive: the trapezoidal rule (alpha = 0) keeps
    # E = (Sd.M.Sd + S.K.S)/2 to roundoff; alpha < 0 dissipates it, though
    # not monotonically in this norm, so only the end is compared
    cfg = parse_config({"material": {"b": 0.0}, "drive": {"A": 0.0},
                        "mesh": {"n_cells": 64},
                        "time": {"dt": 1e-2, "t_final": 2.0, "alpha": alpha},
                        "output": {"snapshot_interval": 1e-2}})
    snaps, report = run_simulation(cfg,
                                   initial_sigma=lambda x: np.sin(np.pi * x)**8)
    space, p = report.space, cfg.material
    zero = np.zeros(space.n_dofs)
    K = assemble_stiffness(space)
    # M Sd is the inertial residual of the rate at rest (b = 0)
    E = np.array([0.5 * (s.Sigma_dot @ reference_residual(
        space, zero, zero, s.Sigma_dot, p) + s.Sigma @ band_product(K, s.Sigma))
        for s in snaps])
    assert len(E) == 201
    if alpha == 0.0:
        assert np.max(np.abs(E - E[0])) <= 1e-13 * E[0]
    else:
        assert E[-1] < E[0]


def test_newton_divergence_reported():
    cfg = _mms_config({"time": {"dt": 0.05},
                       "newton": {"tol": 1e-14, "k_max": 1}})
    with pytest.raises(NewtonDivergedError) as err:
        _run_mms(cfg)
    assert err.value.iters == 1
    assert len(err.value.history) >= 2


def test_zero_input_invariance():
    cfg = parse_config({"material": {"b": 5.0, "a": 1.5},
                        "drive": {"A": 0.0},
                        "mesh": {"n_cells": 16},
                        "time": {"dt": 1e-2, "t_final": 0.2},
                        "output": {"snapshot_interval": 0.05}})
    snaps, report = run_simulation(cfg)
    for st in snaps:
        np.testing.assert_array_equal(st.Sigma, 0.0)
        np.testing.assert_array_equal(st.Sigma_dot, 0.0)
        np.testing.assert_array_equal(st.Sigma_ddot, 0.0)


def test_boundary_conditions_exact_at_snapshots():
    cfg = parse_config({"material": {"b": 1.0, "a": 1.5},
                        "mesh": {"n_cells": 32},
                        "time": {"dt": 1e-3, "t_final": 0.3},
                        "output": {"snapshot_interval": 0.05}})
    snaps, _ = run_simulation(cfg)
    for st in snaps:
        assert abs(st.Sigma[0]) <= 1e-12
        bc = cfg.drive.A * np.sin(cfg.drive.omega * st.t)
        assert abs(st.Sigma[-1] - bc) <= 1e-12


@pytest.mark.parametrize("t_final, n_steps, forcing", [
    # two block boundaries and a partial last block
    ((2 * integrator.LOAD_BLOCK + 5) * 1e-3, 2 * integrator.LOAD_BLOCK + 5,
     "mms"),
    # t_final not a multiple of dt: the last step is shortened to t_final
    (0.0405, 41, "mms"),
    # a result without the time axis is broadcast over the block
    (0.04, 40, "static"),
])
def test_blocked_loads_equal_single_time_loads(monkeypatch, t_final, n_steps,
                                               forcing):
    cfg = _mms_config({"mesh": {"n_cells": 6, "degree_policy": "center_graded"},
                       "time": {"t_final": t_final}})
    p = cfg.material
    if forcing == "mms":
        def forcing(x, t):
            return mms_forcing(x, t, p)
    else:
        def forcing(x, t):
            return np.sin(np.pi * x)
    used = []
    step = integrator.advance_step
    init = integrator.initial_acceleration

    def recording_step(*args):
        used.append(args[-1])
        return step(*args)

    def recording_init(space, Sigma0, Sigma_dot0, p, load):
        used.append(load)
        return init(space, Sigma0, Sigma_dot0, p, load)

    monkeypatch.setattr(integrator, "advance_step", recording_step)
    monkeypatch.setattr(integrator, "initial_acceleration", recording_init)
    snaps, report = run_simulation(cfg, forcing=forcing)
    assert len(report.newton_iters) == n_steps and len(used) == n_steps + 1
    times = [min(i * cfg.time.dt, t_final) for i in range(n_steps + 1)]
    assert snaps[-1].t == times[-1] == t_final
    L = [assemble_load_at(report.space, forcing, [t])[0] for t in times]
    np.testing.assert_array_equal(used[0], L[0])
    # each step gets the stage load (1+alpha) L_{k+1} - alpha L_k
    a = cfg.time.alpha
    for k in range(n_steps):
        np.testing.assert_array_equal(used[k + 1],
                                      (1 + a) * L[k + 1] - a * L[k])


def test_drive_and_states_read_one_clock(monkeypatch):
    # every time the drive is asked for, and every state's time, is
    # t_k = min(k dt, t_final); summing dt step by step drifts off it
    cfg = parse_config({"material": {"b": 0.0}, "mesh": {"n_cells": 4},
                        "time": {"dt": 1e-3, "t_final": 1.0},
                        "output": {"snapshot_interval": 1e-3}})
    asked = []
    value = BoundaryDrive.value

    def recording_value(self, t):
        asked.extend(np.ravel(t).tolist())
        return value(self, t)

    monkeypatch.setattr(BoundaryDrive, "value", recording_value)
    snaps, _ = run_simulation(cfg)
    times = [min(k * 1e-3, 1.0) for k in range(1001)]
    assert asked == times[1:]
    assert [s.t for s in snaps] == times


def test_initial_acceleration_solves_t0_balance():
    space = build_space(1.0, 12, "uniform(2)")
    x = space.dof_coords
    Sigma0 = 0.3 * np.sin(np.pi * x)
    Sigma_dot0 = 0.1 * np.sin(2 * np.pi * x)
    sdd0 = initial_acceleration(space, Sigma0, Sigma_dot0, P12)
    R = reference_residual(space, Sigma0, Sigma_dot0, sdd0, P12,
                           band_product(assemble_stiffness(space), Sigma0))
    np.testing.assert_allclose(R[1:-1], 0.0, atol=1e-12)
    # MMS initial data has zero exact acceleration
    f0 = mms_fields(x, 0.0)
    p = P12
    load, = assemble_load_at(space, lambda xx, t: mms_forcing(xx, t, p), [0.0])
    sdd_mms = initial_acceleration(space, f0.sigma, f0.sigma_t, p, load=load)
    np.testing.assert_allclose(sdd_mms, 0.0, atol=1e-10)


def test_initial_acceleration_of_driven_run():
    cfg = parse_config({"material": {"b": 1.0, "a": 2.0},
                        "drive": {"A": 0.5, "omega": 3.0},
                        "mesh": {"n_cells": 6,
                                 "degree_policy": "center_graded"},
                        "time": {"dt": 1e-3, "t_final": 1e-3},
                        "output": {"snapshot_interval": 0.0}})
    snaps, report = run_simulation(
        cfg, initial_sigma=lambda x: 0.3 * np.sin(np.pi * x),
        initial_rate=lambda x: 0.1 * np.sin(2 * np.pi * x))
    space, p, s0 = report.space, cfg.material, snaps[0]
    assert s0.t == 0.0
    assert s0.Sigma_ddot[0] == s0.Sigma_ddot[-1] == 0.0
    assert np.max(np.abs(s0.Sigma_ddot)) > 0.1
    R = reference_residual(space, s0.Sigma, s0.Sigma_dot, s0.Sigma_ddot, p,
                           band_product(assemble_stiffness(space), s0.Sigma))
    np.testing.assert_allclose(R[1:-1], 0.0, atol=1e-12)


def test_run_simulation_snapshot_schedule():
    cfg = parse_config({"material": {"b": 0.0},
                        "mesh": {"n_cells": 8},
                        "time": {"dt": 1e-2, "t_final": 0.5},
                        "output": {"snapshot_interval": 0.1}})
    snaps, report = run_simulation(cfg)
    times = [st.t for st in snaps]
    np.testing.assert_allclose(times, [0.0, 0.1, 0.2, 0.3, 0.4, 0.5], atol=1e-12)
    assert len(report.newton_iters) == 50
    assert report.space.n_dofs == len(snaps[0].Sigma) == 9


def _step_loop_schedule(dt, t_final, interval):
    """(step, t) of the kept states, decided step by step as the solver
    loop decided them before the schedule was a function of its own."""
    n_steps = int(round(t_final / dt))
    if abs(n_steps * dt - t_final) > 1e-9 * max(t_final, 1.0):
        n_steps = int(np.ceil(t_final / dt))
    times = np.minimum(np.arange(n_steps + 1) * dt, t_final)
    kept, next_snap = [(0, 0.0)], interval if interval else np.inf
    for step in range(n_steps):
        t = float(times[step + 1])
        if t >= next_snap - 0.5 * dt and step < n_steps - 1:
            kept.append((step + 1, t))
            next_snap = (np.floor((t + 0.5 * dt) / interval) + 1.0) * interval
    return kept + [(n_steps, float(times[-1]))]


@pytest.mark.parametrize("dt, t_final, interval", [
    (1e-2, 0.5, 0.1), (1e-3, 1.0, 0.01), (3e-3, 0.01, 0.0),
    (3e-3, 0.01, 4e-3), (1e-7, 5e-6, 1e-7), (0.3, 1.0, 0.25),
    (1e-3, 0.0405, 0.007), (2e-3, 0.1, 0.05), (1e-5, 0.02, 0.0),
])
def test_snapshot_schedule_matches_step_loop(dt, t_final, interval):
    assert integrator.snapshot_schedule(dt, t_final, interval) == \
        _step_loop_schedule(dt, t_final, interval)


def test_run_below_half_a_step_takes_one_step_to_t_final():
    assert integrator.snapshot_schedule(1e-3, 1e-10, 0.05) == \
        [(0, 0.0), (1, 1e-10)]
    cfg = parse_config({"material": {"b": 1.0}, "mesh": {"n_cells": 4},
                        "time": {"dt": 1e-3, "t_final": 1e-10}})
    snaps, report = run_simulation(cfg)
    assert report.newton_iters == [1] and [s.t for s in snaps] == [0.0, 1e-10]
    bc = cfg.drive.A * np.sin(cfg.drive.omega * 1e-10)
    assert snaps[-1].Sigma[-1] == pytest.approx(bc, rel=1e-12)


def test_run_simulation_keeps_scheduled_states():
    cfg = parse_config({"material": {"b": 0.0}, "mesh": {"n_cells": 4},
                        "time": {"dt": 3e-3, "t_final": 0.0405},
                        "output": {"snapshot_interval": 0.007}})
    snaps, report = run_simulation(cfg)
    schedule = integrator.snapshot_schedule(3e-3, 0.0405, 0.007)
    assert [s.t for s in snaps] == [t for _, t in schedule]
    assert len(report.newton_iters) == schedule[-1][0] == 14


def test_run_simulation_short_final_step():
    # t_final not an integer multiple of dt: last step is shortened
    cfg = parse_config({"material": {"b": 0.0},
                        "mesh": {"n_cells": 8},
                        "time": {"dt": 3e-3, "t_final": 0.01},
                        "output": {"snapshot_interval": 0.0}})
    snaps, report = run_simulation(cfg)
    assert len(report.newton_iters) == 4
    assert snaps[-1].t == pytest.approx(0.01, abs=1e-15)
    bc = cfg.drive.A * np.sin(cfg.drive.omega * snaps[-1].t)
    assert abs(snaps[-1].Sigma[-1] - bc) <= 1e-12


def test_run_simulation_steps_through_module_advance_step(monkeypatch):
    # perfbench rebinds integrator.advance_step to time each step and sum
    # its Newton iterations, so the loop must look the name up every step
    cfg = parse_config({"material": {"b": 5.0, "a": 1.5},
                        "drive": {"A": 0.3, "omega": 40.0},
                        "mesh": {"n_cells": 16, "degree_policy": "center_graded"},
                        "time": {"dt": 1e-3, "t_final": 0.0205},
                        "output": {"snapshot_interval": 0.0}})
    seen = []
    step = integrator.advance_step

    def counting_step(*args, **kwargs):
        state, report = step(*args, **kwargs)
        seen.append(report.iters)
        return state, report

    monkeypatch.setattr(integrator, "advance_step", counting_step)
    _, report = run_simulation(cfg)
    assert len(seen) == len(report.newton_iters) == 21
    assert seen == report.newton_iters and max(seen) >= 2


def test_run_builds_one_stage_kernel_per_step_size(monkeypatch):
    # t_final = 2.5 dt: the run builds the kernels of the t = 0 balance, of
    # dt before the first step and of the short last step, and no step
    # builds one
    from stresswave import assembly
    built, per_step = [], []
    init, step = assembly.StageKernel.__init__, integrator.advance_step

    def counting_init(kernel, space, p, c=0.0, c_dot=0.0):
        built.append(c)
        init(kernel, space, p, c, c_dot)

    def counting_step(*args):
        before = len(built)
        out = step(*args)
        per_step.append(len(built) - before)
        return out

    monkeypatch.setattr(assembly.StageKernel, "__init__", counting_init)
    monkeypatch.setattr(integrator, "advance_step", counting_step)
    run_simulation(parse_config({"material": {"b": 5.0, "a": 1.5},
                                 "mesh": {"n_cells": 8},
                                 "time": {"dt": 1e-2, "t_final": 0.025},
                                 "output": {"snapshot_interval": 0.0}}))
    c = [stage_weights(HhtParams(alpha=-0.05, dt=dt))[0]
         for dt in (1e-2, 5e-3)]
    assert built == pytest.approx([0.0] + c, rel=1e-12)
    assert per_step == [0, 0, 0]


def test_temporal_accuracy_pair():
    # one refinement pair of the temporal ladder: rate close to 2
    from stresswave.verification import l2_error
    errs = []
    for dt in (8e-3, 4e-3):
        cfg = _mms_config({"mesh": {"n_cells": 24, "degree_policy": "uniform(3)"},
                           "time": {"dt": dt, "t_final": 0.5}})
        snaps, report = _run_mms(cfg)
        errs.append(l2_error(report.space, snaps[-1].Sigma, snaps[-1].t))
    rate = np.log2(errs[0] / errs[1])
    assert rate == pytest.approx(2.0, abs=0.15)


def test_mms_newton_count_and_superlinear_tail():
    cfg = _mms_config({"mesh": {"n_cells": 16},
                       "time": {"dt": 8e-3, "t_final": 0.3},
                       "newton": {"tol": 1e-13}})
    snaps, report = _run_mms(cfg)
    assert max(report.newton_iters) <= 5
    # quadratic decay: r_{k+1} <= C r_k^2 on every pair whose starting
    # residual is resolvable above assembly roundoff
    qs = []
    for hist in report.residual_histories:
        for rk, rk1 in zip(hist, hist[1:]):
            if rk >= 1e-6:
                qs.append(rk1 / rk**2)
    assert qs, "no measurable Newton tails"
    assert max(qs) < 1.0


@pytest.mark.parametrize("dt", [0.02, 0.15])  # Courant number 0.23 and 1.70
@pytest.mark.parametrize("alpha", [0.0, -0.05, -1.0 / 3.0])
@pytest.mark.parametrize("policy", ["uniform(1)", "uniform(2)", "uniform(3)",
                                    "center_graded"])
def test_linear_run_matches_modal_oracle(policy, alpha, dt):
    # b = 0, no drive: the fully discrete solution is known exactly, one
    # scalar HHT recursion per mode of the space (state_helpers)
    n_steps = 60
    cfg = parse_config({"material": {"rho": 2.0, "b": 0.0},
                        "drive": {"A": 0.0},
                        "mesh": {"n_cells": 16, "degree_policy": policy},
                        "time": {"dt": dt, "t_final": n_steps * dt,
                                 "alpha": alpha},
                        "output": {"snapshot_interval": 0.0}})

    def shape(x):
        return x * (1.0 - x) * np.exp(-30.0 * (x - 0.3) ** 2)

    snaps, report = run_simulation(cfg, initial_sigma=shape)
    space = report.space
    assert len(report.newton_iters) == n_steps
    Sigma0 = shape(space.dof_coords)
    exact = linear_modal_oracle(space, cfg.material,
                                HhtParams(alpha=alpha, dt=dt), Sigma0, n_steps)
    err = np.max(np.abs(snaps[-1].Sigma - exact))
    assert err <= 1e-12 * np.max(np.abs(Sigma0))
    assert np.max(np.abs(exact)) > 1e-3 * np.max(np.abs(Sigma0))


def test_third_derivative_formed_once_per_tangent(monkeypatch):
    # eps''' is a tangent's alone (Law.derivatives, which a residual calls,
    # forms none: test_constitutive): a run forms one tangent, through
    # StageKernel.band, per Newton iteration, and one for the t = 0 mass
    from stresswave.assembly import StageKernel
    band, formed = StageKernel.band, []
    monkeypatch.setattr(StageKernel, "band", lambda kernel, pts: (
        formed.append(1), band(kernel, pts))[1])
    _, report = _run_mms(_mms_config({"material": {"a": 1.5},
                                      "time": {"dt": 1e-5, "t_final": 5e-5}}))
    assert report.newton_iters == [1] * 5 and len(formed) == 6
    _, report = run_simulation(parse_config({
        "material": {"b": 5.0, "a": 1.5}, "drive": {"A": 0.02},
        "mesh": {"n_cells": 16}, "time": {"dt": 1e-3, "t_final": 0.02},
        "output": {"snapshot_interval": 0.0}}))
    assert report.newton_iters == [2] * 20 and len(formed) == 6 + 41
