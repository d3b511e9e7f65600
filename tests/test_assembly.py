import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scipy.linalg import solve_banded

from stresswave.assembly import (SingularMatrixError, StageKernel,
                                 _scipy_linalg_extension, assemble_load_at,
                                 assemble_stiffness)
from stresswave.constitutive import HyperbolicityError, Law, MaterialParams
from stresswave.fe_space import build_space
from stresswave.integrator import HhtParams
from stresswave.verification import mms_fields, mms_forcing

from stage_helpers import (band_product, dense_tangent, difference_jacobian,
                           kernel_functions, per_cell_stage, singular_tangent,
                           stage_weights, step_system, to_dense)
from state_helpers import newmark_update, state, zero_state

P12 = MaterialParams(rho=1.0, b=1.0, a=2.0)
P0 = MaterialParams(rho=1.0, b=0.0, a=1.5)


def _run_scope():
    """The error state of a run, in which the stage kernel runs."""
    return np.errstate(over="ignore", invalid="ignore", divide="ignore")


def _two_cells(h):
    """Two linear cells of width h: a cell's hand value, and the sum of
    two at the middle node."""
    return build_space(2.0 * h, 2, "uniform(1)")


def _inertial(space, Sigma, Sigma_dot, Sigma_ddot, p):
    """Inertial force rho [eps' s_ddot + eps'' s_dot^2] tested against N_I:
    the residual of the stage kernel at c = c_dot = 0, whose load K S
    cancels the elastic term exactly."""
    kernel = StageKernel(space, p)
    stage = kernel.stage(Sigma, Sigma_dot,
                         band_product(assemble_stiffness(space), Sigma))
    return kernel.residual(stage, Sigma_ddot)[1]


def _mass(space, Sigma, p):
    """Mass M_IJ = integral rho eps'(sigma_h) N_I N_J dx, the dense
    tangent of the stage kernel at c = c_dot = 0."""
    zero = np.zeros_like(Sigma)
    kernel = StageKernel(space, p)
    return dense_tangent(kernel, kernel.residual(
        kernel.stage(Sigma, zero, 0.0), zero)[0])


def _random_state(rng, n, t=0.0):
    return state(t, rng.normal(size=n), rng.normal(size=n), rng.normal(size=n))


_STEP = stage_weights(HhtParams(alpha=-0.05, dt=5e-2))  # (c, c_dot) of a step


def _stage_data(space, seed, big=None):
    """Random bases, acceleration and load; `big` = (node, stress) sets
    one node's base stress."""
    data = 0.3 * np.random.default_rng(seed).normal(size=(4, space.n_dofs))
    if big is not None:
        data[0, big[0]] = big[1]
    return data


def _random_band(n, bw, seed):
    """A random band and its dense matrix."""
    rng = np.random.default_rng(seed)
    dense = np.zeros((n, n))
    for d in range(-bw, bw + 1):
        dense += np.diag(rng.uniform(-1.0, 1.0, size=n - abs(d)), d)
    ab = np.zeros((2 * bw + 1, n))
    for i in range(n):
        for j in range(max(0, i - bw), min(n, i + bw + 1)):
            ab[bw + i - j, j] = dense[i, j]
    return ab, dense


@settings(max_examples=40, deadline=None)
@given(bw=st.integers(1, 3), n=st.integers(5, 40), seed=st.integers(0, 2**32 - 1))
def test_band_roundtrip(bw, n, seed):
    ab, dense = _random_band(n, bw, seed)
    np.testing.assert_array_equal(to_dense(ab), dense)


def _kernel_iterate(space, seed, c_pair=None):
    """(kernel, pts, R) of one iterate of a random stage, in a run's error
    state; the step's (c, c_dot) unless `c_pair` is given."""
    base, base_dot, sdd, load = _stage_data(space, seed)
    kernel = StageKernel(space, MaterialParams(rho=1.3, b=5.0, a=1.5),
                         *(c_pair or _STEP))
    with _run_scope():
        pts, R = kernel.residual(kernel.stage(base, base_dot, load), sdd)
    return kernel, pts, R


@settings(max_examples=40, deadline=None)
@given(policy=st.sampled_from(["uniform(1)", "uniform(2)", "uniform(3)",
                               "center_graded"]),
       n_cells=st.integers(2, 20), t0=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_banded_interior_solve_matches_dense(policy, n_cells, t0, seed):
    # the kernel's solve (gtsv, or gbsv above bandwidth 1 and for the 1x1
    # interior of two linear cells) of the tangent's interior block, at a
    # step's (c, c_dot) and at the t = 0 balance's (0, 0), against numpy
    space = build_space(1.0, n_cells, policy)
    kernel, pts, R = _kernel_iterate(space, seed, (0.0, 0.0) if t0 else None)
    with _run_scope():
        T = dense_tangent(kernel, pts)[1:-1, 1:-1]
        want = np.linalg.solve(T, R[1:-1])
        got = kernel.solve(pts, R[1:-1])
    np.testing.assert_allclose(got, want, rtol=1e-10,
                               atol=1e-12 * np.max(np.abs(want)))


@pytest.mark.parametrize("policy", ["uniform(1)", "uniform(3)",
                                    "center_graded"])
def test_kernel_tangent_is_spent_by_its_solve_to_the_bits_of_a_copy(policy):
    # the kernel's solve factors its band in place (gtsv's three rows at
    # bandwidth 1, gbsv's storage above) and writes the update into the
    # residual's interior: the bits of scipy's solve_banded (the same gtsv
    # and gbsv) of a copy of the tangent's interior, whose band the kernel
    # then no longer holds
    space = build_space(1.0, 10, policy)
    kernel, pts, R = _kernel_iterate(space, 7)
    bw = space.bandwidth
    with _run_scope():
        tangent = kernel.band(pts)[kernel.fill:, 1:-1].copy()
        want = solve_banded((bw, bw), tangent, R[1:-1])
        r = R[1:-1]
        got = kernel.solve(pts, r)
    assert got.view(np.int64).tolist() == want.view(np.int64).tolist()
    assert np.shares_memory(got, r)
    band = kernel.ab[kernel.fill:, 1:-1]
    assert band.tobytes() != tangent.tobytes()  # it holds the factors


def test_missing_scipy_linalg_extension_names_its_directory():
    with pytest.raises(ImportError, match=r"_nonexistent in .*scipy.linalg"):
        _scipy_linalg_extension("_nonexistent")


@pytest.mark.parametrize("bw", [1, 3])
def test_banded_solve_singular_raises(bw, monkeypatch):
    # a tangent whose first or last interior column is zero meets an
    # exactly zero pivot there (gtsv at bandwidth 1, gbsv above), and the
    # error names that column's node: pivot k of the interior is node k
    space = build_space(1.0, 4, f"uniform({bw})")
    last = space.n_dofs - 2
    for node in (1, last):
        with monkeypatch.context() as m:
            singular_tangent(m, node)
            kernel, pts, R = _kernel_iterate(space, node)
            with pytest.raises(SingularMatrixError) as err, _run_scope():
                kernel.solve(pts, R[1:-1])
        assert str(err.value) == f"singular matrix (zero pivot {node})"
        assert err.value.x == space.dof_coords[node]


def test_stiffness_two_cell_hand_value():
    space = build_space(1.0, 2, "uniform(1)")
    K = to_dense(assemble_stiffness(space))
    np.testing.assert_allclose(
        K, [[2.0, -2.0, 0.0], [-2.0, 4.0, -2.0], [0.0, -2.0, 2.0]], atol=1e-13)


def test_stiffness_symmetric_zero_rowsum_psd():
    for policy in ("uniform(1)", "uniform(3)", "center_graded"):
        space = build_space(1.5, 6, policy)
        K = to_dense(assemble_stiffness(space))
        np.testing.assert_allclose(K, K.T, atol=1e-14)
        np.testing.assert_allclose(K @ np.ones(space.n_dofs), 0.0, atol=1e-13)
        assert np.min(np.linalg.eigvalsh(K)) > -1e-12


def test_mass_linear_material_hand_value():
    h = 0.4
    space = _two_cells(h)
    M = _mass(space, np.zeros(3), MaterialParams(rho=2.0, b=0.0, a=1.5))
    np.testing.assert_allclose(
        M,
        2.0 * h / 6.0 * np.array([[2.0, 1.0, 0.0], [1.0, 4.0, 1.0],
                                  [0.0, 1.0, 2.0]]), atol=1e-15)


def test_inertial_zero_rates():
    space = build_space(1.0, 4, "uniform(2)")
    n = space.n_dofs
    F = _inertial(space, np.full(n, 0.7), np.zeros(n), np.zeros(n), P12)
    np.testing.assert_array_equal(F, np.zeros(n))


def test_inertial_linear_single_cell_hand_value():
    h = 0.3
    rho = 1.7
    space = _two_cells(h)
    F = _inertial(space, np.zeros(3), np.zeros(3), np.ones(3),
                  MaterialParams(rho=rho, b=0.0, a=1.5))
    np.testing.assert_allclose(F, [rho * h / 2.0, rho * h, rho * h / 2.0],
                               atol=1e-15)


def test_inertial_constant_state_scales_by_tangent_compliance():
    h = 0.3
    space = _two_cells(h)
    ones = np.ones(3)
    F_lin = _inertial(space, np.zeros(3), np.zeros(3), ones, P0)
    F_nl = _inertial(space, ones, np.zeros(3), ones, P12)
    np.testing.assert_allclose(F_nl, 2.0**-1.5 * F_lin, rtol=1e-14)


def test_inertial_hyperbolicity_error_carries_location():
    space = build_space(1.0, 4, "uniform(1)")
    n = space.n_dofs
    p = MaterialParams(rho=1.0, b=1e200, a=2.0)
    with pytest.raises(HyperbolicityError) as err, _run_scope():
        _inertial(space, np.full(n, 1e200), np.zeros(n), np.ones(n), p)
    assert err.value.x is not None


def test_hyperbolicity_error_location_skips_padded_points():
    # the first cell of a graded mesh has degree 1 and padded points
    space = build_space(1.0, 16, "center_graded")
    t, n = space.table, space.n_dofs
    assert space.degrees[0] == 1 and np.any(t.weights[0] == 0.0)
    Sigma = np.zeros(n)
    Sigma[0] = 1e200  # saturates the first cell only
    p = MaterialParams(rho=1.0, b=1e200, a=2.0)
    with pytest.raises(HyperbolicityError) as err, _run_scope():
        _inertial(space, Sigma, np.zeros(n), np.ones(n), p)
    assert err.value.x in t.x_q[0][t.weights[0] > 0.0]


def test_load_zero_forcing():
    space = build_space(1.0, 4, "uniform(2)")
    for t in (0.1, 0.0):
        L = assemble_load_at(space, lambda x, t: np.zeros_like(x), [t])
        np.testing.assert_array_equal(L, 0.0)


def test_load_constant_forcing_partition_of_unity():
    for policy in ("uniform(1)", "center_graded"):
        space = build_space(1.0, 8, policy)
        L, = assemble_load_at(space, lambda x, t: np.ones_like(x), [0.0])
        assert np.sum(L) == pytest.approx(1.0, abs=1e-14)


def test_load_sine_matches_analytic_hat_integrals():
    # analytic integral of sin(pi x) against a hat of width h at node x_I
    def analytic(x_i, h):
        return np.sin(np.pi * x_i) * 2.0 * (1.0 - np.cos(np.pi * h)) / (np.pi**2 * h)

    errs = []
    for n in (16, 64):
        space = build_space(1.0, n, "uniform(1)")
        L, = assemble_load_at(space, lambda x, t: np.sin(np.pi * x), [0.0])
        h = 1.0 / n
        exact = analytic(space.dof_coords[1:-1], h)
        errs.append(np.max(np.abs(L[1:-1] - exact)))
    assert errs[1] < errs[0] / 10.0
    assert errs[1] < 1e-9


def test_residual_zero_states():
    space = build_space(1.0, 4, "uniform(1)")
    n = space.n_dofs
    hht = HhtParams(alpha=-0.05, dt=1e-2)
    residual, _ = step_system(zero_state(n), space, hht, P12)
    R = residual(np.zeros(n))
    np.testing.assert_array_equal(R, np.zeros(n))


def test_residual_alpha_zero_is_plain_newmark_form():
    rng = np.random.default_rng(5)
    space = build_space(1.0, 6, "uniform(2)")
    n = space.n_dofs
    hht = HhtParams(alpha=0.0, dt=1e-2)
    sn = _random_state(rng, n)
    sdd = rng.normal(size=n)
    load = rng.normal(size=n)
    residual, _ = step_system(sn, space, hht, P12, load)
    R = residual(sdd)
    Sigma, Sigma_dot = newmark_update(sn, sdd, hht)
    K = assemble_stiffness(space)
    expected = _inertial(space, Sigma, Sigma_dot, sdd, P12) \
        + band_product(K, Sigma) - load
    np.testing.assert_allclose(R, expected, atol=1e-14)


def test_residual_linear_material_exact_form():
    # b = 0: residual equals the constant-coefficient form
    # rho M0 sdd + (1+a) K S_{n+1} - a K S_n - blended load, exactly
    rng = np.random.default_rng(12)
    space = build_space(1.0, 7, "uniform(2)")
    n = space.n_dofs
    p = MaterialParams(rho=1.8, b=0.0, a=1.5)
    hht = HhtParams(alpha=-0.1, dt=3e-2)
    sn = _random_state(rng, n)
    sdd = rng.normal(size=n)
    ln, lp = rng.normal(size=n), rng.normal(size=n)
    a = hht.alpha
    residual, _ = step_system(sn, space, hht, p, (1 + a) * ln - a * lp)
    R = residual(sdd)
    Sigma, _ = newmark_update(sn, sdd, hht)
    M0 = _mass(space, np.zeros(n), p)
    K = assemble_stiffness(space)
    expected = (M0 @ sdd + (1 + a) * band_product(K, Sigma)
                - a * band_product(K, sn.Sigma) - (1 + a) * ln + a * lp)
    np.testing.assert_allclose(R, expected, atol=1e-14)


def test_residual_mms_consistency_linear():
    # exact-solution samples at fixed small dt: residual shrinks ~4x per
    # mesh halving (spatial consistency of the discrete operator).  The
    # step starts from the exact state at t and is evaluated at the exact
    # acceleration at t + dt; its Newmark stress is O(dt^3) from exact.
    hht = HhtParams(alpha=-0.05, dt=1e-5)
    t = 0.4
    norms = []
    for n in (16, 32, 64):
        space = build_space(1.0, n, "uniform(1)")
        x = space.dof_coords

        f = mms_fields(x, t)
        ln, lp = assemble_load_at(space, lambda xx, tt: mms_forcing(xx, tt, P0),
                                  [t + hht.dt, t])
        a = hht.alpha
        residual, _ = step_system(state(t, f.sigma, f.sigma_t, f.sigma_tt),
                                  space, hht, P0, (1 + a) * ln - a * lp)
        R = residual(mms_fields(x, t + hht.dt).sigma_tt)
        norms.append(np.max(np.abs(R[1:-1])))
    assert norms[1] < norms[0] / 3.0
    assert norms[2] < norms[1] / 3.0


def test_tangent_linear_material_exact():
    space = build_space(1.0, 5, "uniform(2)")
    n = space.n_dofs
    rho = 2.3
    p = MaterialParams(rho=rho, b=0.0, a=1.5)
    hht = HhtParams(alpha=-0.05, dt=2e-2)
    state_n = state(0.0, np.random.default_rng(2).normal(size=n),
                    np.zeros(n), np.zeros(n))
    residual, tangent = step_system(state_n, space, hht, p)
    S = tangent(np.zeros(n))
    M0 = _mass(space, np.zeros(n), p)
    K = to_dense(assemble_stiffness(space))
    expected = M0 + hht.beta_nm * hht.dt**2 * (1.0 + hht.alpha) * K
    np.testing.assert_allclose(S, expected, atol=1e-14)


def test_tangent_structure_matches_stiffness():
    space = build_space(1.0, 6, "center_graded")
    n = space.n_dofs
    rng = np.random.default_rng(8)
    state_n = state(0.0, 0.5 + rng.random(n), rng.normal(size=n),
                    rng.normal(size=n))
    residual, tangent = step_system(state_n, space,
                                    HhtParams(alpha=-0.05, dt=1e-2), P12)
    S = tangent(rng.normal(size=n))
    K = to_dense(assemble_stiffness(space))
    np.testing.assert_array_equal(np.abs(S) > 0, np.abs(K) > 0)


@pytest.mark.parametrize("h", [1, 2])
def test_one_by_one_solve_and_its_zero_pivot(h, monkeypatch):
    # two linear cells of width h have a 1x1 interior, the mass 2 rho h / 3
    # at t = 0: gtsv rejects its empty off-diagonals, so gbsv solves it,
    # and a zero pivot names the middle node, x = h
    space = _two_cells(h)
    kernel = StageKernel(space, MaterialParams(rho=1.3, b=0.0, a=1.5))
    zero = np.zeros(3)
    pts, _ = kernel.residual(kernel.stage(zero, zero, 0.0), zero)
    m = kernel.band(pts)[kernel.fill + kernel.bw, 1]  # the diagonal
    assert m == pytest.approx(2.0 * 1.3 * h / 3.0, rel=1e-15)
    assert kernel.solve(pts, np.array([2.0])).tolist() == [2.0 / m]
    singular_tangent(monkeypatch, 1)
    kernel, pts, R = _kernel_iterate(space, 0)
    with pytest.raises(SingularMatrixError) as err, _run_scope():
        kernel.solve(pts, R[1:-1])
    assert str(err.value) == "singular matrix (zero pivot 1)"
    assert err.value.x == h


def _kernel_stage(space, p, c, c_dot, base, base_dot, sdd, load):
    """kernel_functions of the stage kernel at (c, c_dot) and the bases."""
    kernel = StageKernel(space, p, c, c_dot)
    return kernel_functions(kernel, kernel.stage(base, base_dot, load))


@pytest.mark.parametrize("policy", ["uniform(1)", "uniform(2)", "uniform(3)",
                                    "center_graded"])
@pytest.mark.parametrize("b", [0.0, 1.0, 5.0])
def test_stage_kernel_matches_per_cell_loop(policy, b):
    # the kernel's residual against a loop over cells that takes the law
    # at each cell's points, to 1e-13 of its largest entry, and its
    # tangent against the central-difference Jacobian of that residual,
    # for the (c, c_dot) of a step and of the t = 0 balance
    space = build_space(1.0, 10, policy)
    for seed, a in enumerate((0.5, 1.0, 1.5, 2.0, 3.0)):
        p = MaterialParams(rho=1.3, b=b, a=a)
        data = _stage_data(space, seed)
        for c, c_dot in (_STEP, (0.0, 0.0)):
            residual, tangent = _kernel_stage(space, p, c, c_dot, *data)
            sdd, want = data[2], per_cell_stage(space, *data, p, c, c_dot)
            with _run_scope():
                R, T = residual(sdd), tangent(sdd)
                fd = difference_jacobian(residual, sdd)
            assert np.max(np.abs(R - want)) <= 1e-13 * np.max(np.abs(want))
            assert np.linalg.norm(fd - T) <= 1e-5 * np.linalg.norm(T), (a, c)


@pytest.mark.parametrize("policy", ["uniform(1)", "uniform(2)", "uniform(3)",
                                    "center_graded"])
def test_stage_kernel_evaluates_the_law_at_real_points_only(policy,
                                                            monkeypatch):
    # a mixed-degree table pads each cell to the largest point count; the
    # kernel takes the law at each cell's p + 2 points and no padded slot,
    # once for an iterate's residual and tangent
    space = build_space(1.0, 10, policy)
    seen = []
    derivatives = Law.derivatives
    monkeypatch.setattr(Law, "derivatives", lambda law, s, *out: (
        seen.append(s.size), derivatives(law, s, *out))[1])
    data = _stage_data(space, 0)
    with _run_scope():
        _kernel_stage(space, P12, *_STEP, *data)[1](data[2])
    assert seen == [int(np.sum(space.degrees + 2))]


@pytest.mark.parametrize("policy", ["uniform(2)", "center_graded"])
@pytest.mark.parametrize("p, stress, why", [
    # a saturated stage: w = inf at the big node's points, so eps' = 0
    (MaterialParams(rho=1.0, b=5.0, a=1.5), 1e300, "<= 0 at"),
    # eps' > 0 everywhere, but rho eps' underflows to 0
    (MaterialParams(rho=1e-300, b=1e20, a=2.0), 0.3, "underflows to 0 at")])
@pytest.mark.parametrize("c, c_dot", [_STEP, (0.0, 0.0)])
def test_stage_kernel_guard_names_the_loops_point(policy, p, stress, why, c,
                                                   c_dot):
    # the guard trips where the per-cell loop finds eps' <= 0 or rho eps'
    # = 0, and names the same first point of least eps'
    space = build_space(1.0, 10, policy)
    data = _stage_data(space, 3, big=(space.n_dofs // 2, stress))
    with pytest.raises(HyperbolicityError) as err, _run_scope():
        _kernel_stage(space, p, c, c_dot, *data)[0](data[2])
    with pytest.raises(HyperbolicityError) as ref, _run_scope():
        per_cell_stage(space, *data, p, c, c_dot)
    assert why in str(err.value)
    assert str(err.value) == str(ref.value)


def test_warm_iterate_allocates_no_point_sized_array():
    # the kernel owns an array for every value at the points and per
    # cell, and its band: one residual and Newton update of the 128-cell
    # uniform(1) MMS rung allocate R (and gbmv's result, freed before the
    # update) and the tangent's bincount, which it adds into its band,
    # less than one array of the 384 point values beyond them
    space = build_space(1.0, 128, "uniform(1)")
    kernel = StageKernel(space, P12,
                         *stage_weights(HhtParams(alpha=-0.05, dt=1e-5)))
    f = mms_fields(space.dof_coords, 0.0)
    base, base_dot, sdd = f.sigma, f.sigma_t, -f.sigma
    with _run_scope():
        stage = kernel.stage(base, base_dot, 0.0)
        pts, R = kernel.residual(stage, sdd)
        kernel.solve(pts, R[1:-1])  # warm
        tracemalloc.start()
        try:
            pts, R = kernel.residual(stage, sdd)
            kernel.solve(pts, R[1:-1])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    results = R.nbytes + kernel.ab.nbytes
    assert peak < results + space.table.x_q.nbytes, (peak, results)
