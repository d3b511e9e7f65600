import numpy as np
import pytest

from stresswave import integrator
from stresswave.assembly import (assemble_load_at, assemble_stiffness,
                                 stage_residual, stage_tangent)
from stresswave.config import parse_config
from stresswave.constitutive import MaterialParams
from stresswave.fe_space import build_space
from stresswave.integrator import (BoundaryDrive, HhtParams,
                                   NewtonDivergedError, NewtonSettings,
                                   SystemState, advance_step,
                                   boundary_acceleration, initial_acceleration,
                                   newmark_update, run_simulation, step_system)
from stresswave.verification import mms_fields, mms_forcing

from stage_helpers import nodal_stage_points
from state_helpers import zero_state

P12 = MaterialParams(rho=1.0, b=1.0, a=2.0)
NEWTON = NewtonSettings(tol=1.0e-10, k_max=20)


def _inline_stage(space, state_n, sdd, hht, p, load_prev, load_next):
    """Stage of the trial acceleration sdd, blended explicitly.

    Returns (pts, R, (Sigma, Sigma_dot)): the stage values and residual
    at S* = (1+alpha) S_{n+1} - alpha S_n (and the same for the rate),
    with S_{n+1}, Sd_{n+1} the Newmark update of sdd.
    """
    a = hht.alpha
    Sigma, Sigma_dot = newmark_update(state_n, sdd, hht)
    stage = (1 + a) * Sigma - a * state_n.Sigma
    stage_dot = (1 + a) * Sigma_dot - a * state_n.Sigma_dot
    pts = nodal_stage_points(space, stage, stage_dot, sdd, p)
    load = (1 + a) * load_next - a * load_prev
    elastic = assemble_stiffness(space).matvec(stage) - load
    return pts, stage_residual(space, elastic, pts, p), (Sigma, Sigma_dot)


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
    state = zero_state(4)
    s, sd = newmark_update(state, np.zeros(4), hht)
    np.testing.assert_array_equal(s, 0.0)
    np.testing.assert_array_equal(sd, 0.0)


def test_newmark_constant_acceleration():
    a0 = 2.5
    for alpha in (0.0, -0.05, -1.0 / 3.0):
        hht = HhtParams(alpha=alpha, dt=0.3)
        state = SystemState(0.0, np.zeros(3), np.zeros(3), np.full(3, a0))
        s, sd = newmark_update(state, np.full(3, a0), hht)
        np.testing.assert_allclose(s, a0 * 0.3**2 / 2.0, rtol=1e-14)
        np.testing.assert_allclose(sd, a0 * 0.3, rtol=1e-14)


def test_newmark_scalar_spot_value():
    # independent arithmetic: alpha=-0.05 -> beta=0.275625, gamma=0.55
    hht = HhtParams(alpha=-0.05, dt=0.1)
    state = SystemState(0.0, np.array([1.0]), np.array([2.0]), np.array([3.0]))
    s, sd = newmark_update(state, np.array([4.0]), hht)
    sigma_expected = 1.0 + 0.1 * 2.0 + 0.1**2 * ((1 - 2 * 0.275625) / 2 * 3.0
                                                 + 0.275625 * 4.0)
    rate_expected = 2.0 + 0.1 * ((1 - 0.55) * 3.0 + 0.55 * 4.0)
    assert s[0] == pytest.approx(sigma_expected, rel=1e-15)
    assert sd[0] == pytest.approx(rate_expected, rel=1e-15)
    assert sigma_expected == pytest.approx(1.21775625)
    assert rate_expected == pytest.approx(2.355)


def test_boundary_acceleration_zero_cases():
    hht = HhtParams(alpha=-0.05, dt=0.01)
    state = zero_state(5)
    assert boundary_acceleration(0.0, 0, state, hht) == 0.0
    # bc equal to the free Newmark prediction needs no correction
    rng = np.random.default_rng(1)
    state = SystemState(0.0, rng.normal(size=5), rng.normal(size=5),
                        rng.normal(size=5))
    free = (state.Sigma[2] + hht.dt * state.Sigma_dot[2]
            + hht.dt**2 * 0.5 * (1 - 2 * hht.beta_nm) * state.Sigma_ddot[2])
    assert boundary_acceleration(free, 2, state, hht) == pytest.approx(0.0, abs=1e-12)


def test_boundary_acceleration_roundtrip():
    drive = BoundaryDrive(A=0.5, omega=3.0)
    hht = HhtParams(alpha=-0.05, dt=0.02)
    rng = np.random.default_rng(2)
    state = SystemState(0.3, rng.normal(size=4), rng.normal(size=4),
                        rng.normal(size=4))
    bc = drive.value(0.3 + hht.dt)
    sdd = state.Sigma_ddot.copy()
    sdd[-1] = boundary_acceleration(bc, 3, state, hht)
    s, _ = newmark_update(state, sdd, hht)
    assert s[-1] == pytest.approx(bc, abs=1e-14)


def test_advance_step_zero_data_one_iteration():
    space = build_space(1.0, 8, "uniform(1)")
    hht = HhtParams(alpha=-0.05, dt=1e-3)
    state, report = advance_step(zero_state(space.n_dofs), space, hht,
                                 P12, NEWTON)
    assert report.iters == 1
    np.testing.assert_array_equal(state.Sigma, 0.0)
    np.testing.assert_array_equal(state.Sigma_dot, 0.0)
    np.testing.assert_array_equal(state.Sigma_ddot, 0.0)
    assert state.t == pytest.approx(1e-3)


def test_advance_step_nan_load_diverges_at_once():
    space = build_space(1.0, 8, "uniform(1)")
    nan = np.full(space.n_dofs, np.nan)
    with pytest.raises(NewtonDivergedError) as err:
        advance_step(zero_state(space.n_dofs), space,
                     HhtParams(alpha=-0.05, dt=1e-3), P12, NEWTON,
                     load_prev=np.zeros(space.n_dofs), load_next=nan)
    assert err.value.iters == 0
    assert err.value.t == pytest.approx(1e-3)


def test_advance_step_singular_tangent_diverges(monkeypatch):
    from stresswave import assembly
    space = build_space(1.0, 8, "uniform(1)")

    def zero_tangent(space, pts, c_dot, c, p):
        ab = np.zeros((2 * space.bandwidth + 1, space.n_dofs))
        return assembly.BandedMatrix(space.n_dofs, space.bandwidth, ab)

    monkeypatch.setattr(assembly, "stage_tangent", zero_tangent)
    with pytest.raises(NewtonDivergedError, match="singular") as err:
        advance_step(zero_state(space.n_dofs), space,
                     HhtParams(alpha=-0.05, dt=1e-3), P12, NEWTON,
                     BoundaryDrive(A=0.02, omega=2.0 * np.pi))
    assert err.value.iters == 0
    assert err.value.t == pytest.approx(1e-3)


def test_advance_step_matches_public_newton_loop():
    # Reference: the stage blended inline from the Newmark update, the
    # assembly kernels and a dense solve, iterated to the same stopping
    # rule as advance_step.
    space = build_space(1.0, 12, "center_graded")
    n = space.n_dofs
    p = MaterialParams(rho=1.0, b=5.0, a=1.5)
    hht = HhtParams(alpha=-0.05, dt=1e-2)
    newton = NEWTON
    drive = BoundaryDrive(A=0.3, omega=3.0)
    rng = np.random.default_rng(11)
    state_n = SystemState(0.2, 0.2 * rng.normal(size=n), rng.normal(size=n),
                          rng.normal(size=n))
    load_prev, load_next = rng.normal(size=n), rng.normal(size=n)
    got, report = advance_step(state_n, space, hht, p, newton, drive,
                               load_prev, load_next)

    t_next = state_n.t + hht.dt
    sdd = state_n.Sigma_ddot.copy()
    sdd[0] = boundary_acceleration(0.0, 0, state_n, hht)
    sdd[-1] = boundary_acceleration(drive.value(t_next), -1, state_n, hht)
    w = 1 + hht.alpha
    c_dot, c = w * hht.gamma_nm * hht.dt, w * hht.beta_nm * hht.dt**2
    history = []
    while True:
        pts, R, (Sigma, Sigma_dot) = _inline_stage(space, state_n, sdd, hht, p,
                                                   load_prev, load_next)
        history.append(np.linalg.norm(R[1:-1]))
        threshold = max(newton.tol * history[0], integrator.NEWTON_ABS_FLOOR)
        if len(history) > 1 and history[-1] <= threshold:
            break
        S = stage_tangent(space, pts, c_dot, c, p).to_dense()
        sdd = sdd.copy()
        sdd[1:-1] -= np.linalg.solve(S[1:-1, 1:-1], R[1:-1])

    assert report.iters == len(history) - 1 >= 3
    np.testing.assert_allclose(report.history, history, rtol=1e-9,
                               atol=1e-12 * history[0])
    for mine, ref in ((got.Sigma, Sigma), (got.Sigma_dot, Sigma_dot),
                      (got.Sigma_ddot, sdd)):
        assert np.linalg.norm(mine - ref) <= 1e-12 * np.linalg.norm(ref)


@pytest.mark.parametrize("alpha", [0.0, -0.05, -1.0 / 3.0])
def test_step_system_residual_matches_inline_stage(alpha):
    space = build_space(1.0, 12, "center_graded")
    n = space.n_dofs
    p = MaterialParams(rho=1.0, b=5.0, a=1.5)
    hht = HhtParams(alpha=alpha, dt=1e-2)
    rng = np.random.default_rng(5)
    state_n = SystemState(0.2, 0.2 * rng.normal(size=n), rng.normal(size=n),
                          rng.normal(size=n))
    load_prev, load_next = rng.normal(size=n), rng.normal(size=n)
    residual, _ = step_system(state_n, space, hht, p, load_prev, load_next)
    for _ in range(3):
        sdd = rng.normal(size=n)
        _, R = residual(sdd)
        _, R_ref, _ = _inline_stage(space, state_n, sdd, hht, p, load_prev,
                                    load_next)
        assert np.linalg.norm(R - R_ref) <= 1e-13 * np.linalg.norm(R_ref)


def test_linear_material_single_newton_iteration():
    cfg = parse_config({"material": {"b": 0.0},
                        "mesh": {"n_cells": 32},
                        "time": {"dt": 2e-3, "t_final": 0.1},
                        "output": {"snapshot_interval": 0.0}})
    snaps, report = run_simulation(cfg)
    assert len(report.newton_iters) == 50
    assert set(report.newton_iters) == {1}
    assert np.max(np.abs(snaps[-1].Sigma)) > 0.0  # drive actually did something


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
        used.append((args[-2], args[-1]))
        return step(*args)

    def recording_init(space, Sigma0, Sigma_dot0, p, load):
        used.append((None, load))
        return init(space, Sigma0, Sigma_dot0, p, load)

    monkeypatch.setattr(integrator, "advance_step", recording_step)
    monkeypatch.setattr(integrator, "initial_acceleration", recording_init)
    snaps, report = run_simulation(cfg, forcing=forcing)
    assert len(report.newton_iters) == n_steps and len(used) == n_steps + 1
    times = [min(i * cfg.time.dt, t_final) for i in range(n_steps + 1)]
    assert snaps[-1].t == times[-1] == t_final
    for i, t in enumerate(times):
        single, = assemble_load_at(report.space, forcing, [t])
        np.testing.assert_array_equal(used[i][1], single)
        if i < n_steps:  # the next step starts from the same vector
            assert used[i + 1][0] is used[i][1]


def test_initial_acceleration_solves_t0_balance():
    space = build_space(1.0, 12, "uniform(2)")
    x = space.dof_coords
    Sigma0 = 0.3 * np.sin(np.pi * x)
    Sigma_dot0 = 0.1 * np.sin(2 * np.pi * x)
    sdd0 = initial_acceleration(space, Sigma0, Sigma_dot0, P12)
    pts = nodal_stage_points(space, Sigma0, Sigma_dot0, sdd0, P12)
    R = stage_residual(space, assemble_stiffness(space).matvec(Sigma0),
                       pts, P12)
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
    pts = nodal_stage_points(space, s0.Sigma, s0.Sigma_dot, s0.Sigma_ddot, p)
    R = stage_residual(space, assemble_stiffness(space).matvec(s0.Sigma),
                       pts, p)
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
