"""Acceptance suite.

One test per release criterion, each asserting at its stated tolerance
and printing a single PASS/FAIL line (visible with pytest -s).
"""
import numpy as np
from scipy.integrate import quad

from stresswave.calibration import fit_material, generate_synthetic
from stresswave.config import parse_config
from stresswave.constitutive import MaterialParams, strain
from stresswave.fe_space import build_space
from stresswave.integrator import HhtParams, run_simulation
from stresswave.postprocess import Samples, reconstruct, sample_solution
from stresswave.verification import convergence_study, mms_fields, mms_forcing

from derivative_helpers import strain_derivative
from stage_helpers import step_system
from state_helpers import state

TABLE_SPATIAL_ERRORS = (1.246e-4, 3.117e-5, 7.793e-6, 1.948e-6)


def _report(num, description, ok, detail=""):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {description}"
          f"{' | ' + detail if detail else ''}")
    assert ok, f"criterion {num} failed: {description} {detail}"


def _mms_base(t_final):
    return parse_config({"material": {"rho": 1.0, "b": 1.0, "a": 2.0},
                         "drive": {"A": 0.0},
                         "time": {"alpha": -0.05, "t_final": t_final},
                         "output": {"snapshot_interval": 0.0}})


def _driven_run(b, a, snapshot_interval=0.02):
    cfg = parse_config({"material": {"b": b, "a": a},
                        "mesh": {"n_cells": 128},
                        "time": {"dt": 1e-3, "t_final": 1.0, "alpha": -0.05},
                        "output": {"snapshot_interval": snapshot_interval,
                                   "samples": 256}})
    snaps, report = run_simulation(cfg)
    space = build_space(cfg.mesh.L, cfg.mesh.n_cells, cfg.mesh.degree_policy)
    records = [(st.t, reconstruct(
        sample_solution(space, st.Sigma, st.Sigma_dot, cfg.output.samples),
        cfg.material)) for st in snaps]
    return cfg, records, report


def test_criterion_01_spatial_mms_convergence():
    table = convergence_study("spatial", _mms_base(t_final=0.1))
    rates = table.rates()
    dofs = [row.dofs for row in table.rows]
    errors = [row.l2_error for row in table.rows]
    rates_ok = all(abs(r - 2.0) <= 0.05 for r in rates)
    dofs_ok = dofs == [17, 33, 65, 129]
    band_ok = all(ref / 10.0 <= e <= ref * 10.0
                  for e, ref in zip(errors, TABLE_SPATIAL_ERRORS))
    _report(1, "spatial MMS rates 2.00 +/- 0.05, DoFs (17,33,65,129), "
               "errors within one decade of the reference table",
            rates_ok and dofs_ok and band_ok,
            f"rates={[f'{r:.3f}' for r in rates]} dofs={dofs} "
            f"errors={[f'{e:.3e}' for e in errors]}")


def test_criterion_02_temporal_mms_convergence():
    table = convergence_study("temporal", _mms_base(t_final=1.0))
    rates = table.rates()
    # rates sit at the asymptotic 2.00 immediately; monotonicity is
    # judged at the two decimals convergence tables quote
    rounded = [round(r, 2) for r in rates]
    monotone_ok = all(r2 >= r1 for r1, r2 in zip(rounded, rounded[1:]))
    finest_ok = rates[-1] >= 1.85
    _report(2, "temporal MMS rates non-decreasing (table precision) with "
               "finest pair >= 1.85",
            monotone_ok and finest_ok,
            f"rates={[f'{r:.4f}' for r in rates]}")


def test_criterion_03_linear_baseline():
    cfg, records, _ = _driven_run(b=0.0, a=1.5)
    A = cfg.drive.A

    c_dev = max(float(np.max(np.abs(rec.c - 1.0))) for _, rec in records)

    fronts = []
    for t, rec in records:
        idx = np.flatnonzero(np.abs(rec.sigma) > 0.1 * A)
        if len(idx) and 0.1 < rec.x[idx[0]] < 0.9:
            fronts.append((t, rec.x[idx[0]]))
    ts = np.array([t for t, _ in fronts])
    xs = np.array([x for _, x in fronts])
    speed = -np.polyfit(ts, xs, 1)[0]

    peaks = np.array([np.max(np.abs(rec.sigma))
                      for t, rec in records if 0.3 <= t <= 0.9])
    amp_spread = (np.max(peaks) - np.min(peaks)) / A

    ok = c_dev <= 1e-12 and abs(speed - 1.0) <= 0.02 and amp_spread <= 0.02
    _report(3, "linear baseline: c == 1 to 1e-12, front speed 1 +/- 2%, "
               "peak amplitude preserved within 2%",
            ok, f"max|c-1|={c_dev:.1e} speed={speed:.4f} "
                f"amp spread={amp_spread:.2%}")


def test_criterion_04_nonlinearity_ordering_in_b():
    results = {}
    for b in (1.0, 5.0, 10.0):
        _, records, _ = _driven_run(b=b, a=1.5)
        max_c = max(float(np.max(np.abs(rec.c - 1.0))) for _, rec in records)
        t_f, rec_f = records[-1]
        grad = float(np.max(np.abs(np.gradient(rec_f.sigma, rec_f.x))))
        results[b] = (max_c, grad)
    cs = [results[b][0] for b in (1.0, 5.0, 10.0)]
    ordering_ok = cs[0] < cs[1] < cs[2]
    steepening_ok = results[10.0][1] > results[1.0][1]
    _report(4, "max|c-1| strictly increasing in b; b=10 final stress "
               "gradient exceeds b=1",
            ordering_ok and steepening_ok,
            f"max|c-1|={[f'{c:.3e}' for c in cs]} "
            f"grads: b=1 {results[1.0][1]:.4f}, b=10 {results[10.0][1]:.4f}")


def test_criterion_05_nonlinearity_suppression_in_a():
    max_cs = []
    for a in (1.5, 3.0, 5.0, 10.0):
        _, records, _ = _driven_run(b=1.0, a=a)
        max_cs.append(max(float(np.max(np.abs(rec.c - 1.0)))
                          for _, rec in records))
    decreasing_ok = all(c1 > c2 for c1, c2 in zip(max_cs, max_cs[1:]))
    suppression_ok = max_cs[-1] <= 1e-4 * max_cs[0]
    _report(5, "max|c-1| strictly decreasing in a; a=10 value <= 1e-4 of "
               "a=1.5 value",
            decreasing_ok and suppression_ok,
            f"max|c-1|={[f'{c:.3e}' for c in max_cs]}")


def test_criterion_06_derivative_oracle_suite():
    def central_diff5(f, x, h=1e-5):
        return (-f(x + 2 * h) + 8 * f(x + h) - 8 * f(x - h)
                + f(x - 2 * h)) / (12 * h)

    grid = np.concatenate([-np.logspace(-1, 1, 20), np.logspace(-1, 1, 20)])
    worst = 0.0
    ok = True
    for b in (0.5, 1.0, 5.0):
        for a in (1.2, 1.5, 2.0, 3.0):
            p = MaterialParams(rho=1.0, b=b, a=a)
            chain = [lambda s: strain(s, p)] + \
                [lambda s, k=k: strain_derivative(s, k, p) for k in (1, 2, 3)]
            for order in (1, 2, 3):
                fd = central_diff5(chain[order - 1], grid)
                an = np.asarray(chain[order](grid))
                scale = np.max(np.abs(an))
                err = np.abs(an - fd) / np.maximum(np.abs(an), 1e-3 * scale)
                worst = max(worst, float(np.max(err)))
                ok = ok and np.all(err <= 1e-6)
    _report(6, "analytic derivatives match central differences to 1e-6 "
               "over |sigma| in [0.1, 10]", ok, f"worst rel err={worst:.2e}")


def test_criterion_07_tangent_consistency_and_newton():
    rng = np.random.default_rng(2024)
    space = build_space(1.0, 10, "uniform(2)")
    n = space.n_dofs
    p = MaterialParams(rho=1.0, b=1.0, a=2.0)
    hht = HhtParams(alpha=-0.05, dt=1e-2)
    worst = 0.0
    for _ in range(20):
        state_n = state(0.0, 0.5 + 0.5 * rng.random(n),
                        rng.normal(size=n), rng.normal(size=n))
        sdd = rng.normal(size=n)
        d = rng.normal(size=n)
        residual, tangent = step_system(state_n, space, hht, p)

        eps = 1e-6
        fd = (residual(sdd + eps * d) - residual(sdd - eps * d)) / (2 * eps)
        Sd = tangent(sdd) @ d
        worst = max(worst, float(np.linalg.norm(fd - Sd)
                                 / np.linalg.norm(Sd)))
    fd_ok = worst <= 1e-5

    cfg = parse_config({"material": {"rho": 1.0, "b": 1.0, "a": 2.0},
                        "drive": {"A": 0.0},
                        "mesh": {"n_cells": 32},
                        "time": {"dt": 1e-3, "t_final": 0.5, "alpha": -0.05},
                        "newton": {"tol": 1e-13},
                        "output": {"snapshot_interval": 0.0}})
    pm = cfg.material
    _, report = run_simulation(
        cfg, forcing=lambda x, t: mms_forcing(x, t, pm),
        initial_sigma=lambda x: mms_fields(x, 0.0).sigma,
        initial_rate=lambda x: mms_fields(x, 0.0).sigma_t)
    iters_ok = max(report.newton_iters) <= 5
    # quadratic decay |R_{k+1}| <= C |R_k|^2 on pairs whose starting
    # residual is resolvable above assembly roundoff
    qs = [rk1 / rk**2 for hist in report.residual_histories
          for rk, rk1 in zip(hist, hist[1:]) if rk >= 1e-6]
    tail_ok = len(qs) > 0 and max(qs) < 1.0
    detail = f"worst FD err={worst:.2e} max iters={max(report.newton_iters)}"
    if qs:
        detail += f" max q={max(qs):.2e}"
    _report(7, "tangent matches FD Jacobian to 1e-5 on 20 states; MMS "
               "Newton <= 5 iters with superlinear tail",
            fd_ok and iters_ok and tail_ok, detail)


def test_criterion_08_linear_single_iteration_over_1000_steps():
    cfg = parse_config({"material": {"b": 0.0},
                        "mesh": {"n_cells": 64},
                        "time": {"dt": 1e-3, "t_final": 1.0},
                        "output": {"snapshot_interval": 0.0}})
    _, report = run_simulation(cfg)
    counts = set(report.newton_iters)
    ok = len(report.newton_iters) == 1000 and counts == {1}
    _report(8, "b=0 run: every one of 1000 steps converges in exactly one "
               "Newton iteration", ok,
            f"steps={len(report.newton_iters)} iteration counts={sorted(counts)}")


def test_criterion_09_calibration_roundtrip():
    worst_noiseless = 0.0
    worst_r2 = 1.0
    ok = True
    for b in (0.5, 2.0, 5.0):
        for a in (1.0, 2.0, 3.0):
            data = generate_synthetic(b=b, a=a, n_points=50, sigma_max=5.0)
            fit = fit_material(data, init=(1.0, 1.5))
            rel = max(abs(fit.b - b) / b, abs(fit.a - a) / a)
            worst_noiseless = max(worst_noiseless, rel)
            worst_r2 = min(worst_r2, fit.r2)
            ok = ok and rel <= 0.01 and fit.r2 >= 0.999
    worst_noisy = 0.0
    for seed, (b, a) in enumerate([(0.5, 1.0), (2.0, 2.0), (5.0, 3.0),
                                   (1.0, 1.5)]):
        data = generate_synthetic(b=b, a=a, n_points=50, sigma_max=5.0,
                                  noise=0.01, seed=100 + seed)
        fit = fit_material(data, init=(1.0, 1.5))
        rel = max(abs(fit.b - b) / b, abs(fit.a - a) / a)
        worst_noisy = max(worst_noisy, rel)
        ok = ok and rel <= 0.10
    _report(9, "calibration recovers (b, a) within 1% noiseless "
               "(r2 >= 0.999) and 10% with 1% strain noise", ok,
            f"worst noiseless={worst_noiseless:.2%} r2={worst_r2:.5f} "
            f"worst noisy={worst_noisy:.2%}")


def test_criterion_10_postprocess_trapezoid_order():
    p = MaterialParams(rho=1.0, b=1.0, a=2.0)
    sig = lambda x: 0.8 * np.sin(np.pi * x)
    exact, _ = quad(lambda x: strain(sig(np.array(x)), p), 0.0, 1.0,
                    epsabs=1e-14, epsrel=1e-13)
    errs = []
    for M in (32, 64, 128, 256):
        x = np.linspace(0.0, 1.0, M + 1)
        rec = reconstruct(Samples(x=x, sigma=sig(x),
                                  sigma_dot=np.zeros(M + 1)), p)
        errs.append(abs(rec.u[-1] - exact))
    rates = [float(np.log2(e1 / e2)) for e1, e2 in zip(errs, errs[1:])]
    ok = all(abs(r - 2.0) <= 0.1 for r in rates)
    _report(10, "reconstructed displacement converges to the analytic "
                "strain integral at order 2.0 +/- 0.1", ok,
            f"rates={[f'{r:.3f}' for r in rates]}")
