import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stresswave.assembly import (BandedMatrix, StageKernel,
                                 _scipy_linalg_extension, assemble_load_at,
                                 assemble_stiffness)
from stresswave.constitutive import HyperbolicityError, Law, MaterialParams
from stresswave.fe_space import build_space, gauss_rule, lagrange_basis
from stresswave.integrator import HhtParams
from stresswave.verification import mms_fields, mms_forcing

from derivative_helpers import strain_derivative
from stage_helpers import (per_cell_stage, stage_weights, step_system,
                           to_dense)
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
                         assemble_stiffness(space).matvec(Sigma))
    return kernel.residual(stage, Sigma_ddot)[1]


def _mass(space, Sigma, p):
    """Mass M_IJ = integral rho eps'(sigma_h) N_I N_J dx, the tangent of
    the stage kernel at c = c_dot = 0."""
    zero = np.zeros_like(Sigma)
    kernel = StageKernel(space, p)
    return kernel.tangent(kernel.residual(kernel.stage(Sigma, zero, 0.0),
                                          zero)[0])


def _random_state(rng, n, t=0.0):
    return state(t, rng.normal(size=n), rng.normal(size=n), rng.normal(size=n))


def _random_banded(n, bw, seed):
    """Random diagonally dominant banded matrix and its dense copy."""
    rng = np.random.default_rng(seed)
    dense = np.zeros((n, n))
    for d in range(-bw, bw + 1):
        dense += np.diag(rng.uniform(-1.0, 1.0, size=n - abs(d)), d)
    dense += np.diag(2.0 * bw + 1.0 + rng.random(n))
    ab = np.zeros((2 * bw + 1, n))
    for i in range(n):
        for j in range(max(0, i - bw), min(n, i + bw + 1)):
            ab[bw + i - j, j] = dense[i, j]
    return BandedMatrix(n, bw, ab), dense, rng


@settings(max_examples=40, deadline=None)
@given(bw=st.integers(1, 3), n=st.integers(5, 40), seed=st.integers(0, 2**32 - 1))
def test_banded_matrix_roundtrip_and_matvec(bw, n, seed):
    B, dense, rng = _random_banded(n, bw, seed)
    np.testing.assert_array_equal(to_dense(B), dense)
    if n >= 2 * bw + 1:  # the least size of gbmv's wrapper, and of a space
        x = rng.normal(size=n)
        np.testing.assert_allclose(B.matvec(x), dense @ x, rtol=1e-12,
                                   atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(bw=st.integers(1, 3), n=st.integers(5, 40), seed=st.integers(0, 2**32 - 1))
def test_banded_interior_solve_matches_dense(bw, n, seed):
    B, dense, rng = _random_banded(n, bw, seed)
    rhs = rng.normal(size=n - 2)
    np.testing.assert_allclose(B.solve(rhs, interior=True),
                               np.linalg.solve(dense[1:-1, 1:-1], rhs),
                               rtol=1e-10)


def test_banded_solve_matches_dense():
    rng = np.random.default_rng(1)
    space = build_space(1.0, 5, "uniform(2)")
    K = assemble_stiffness(space)
    A = BandedMatrix(K.n, K.bandwidth, K.ab.copy())
    A.ab[A.bandwidth] += 1.0  # shift to make it definite
    rhs = rng.normal(size=space.n_dofs)
    x = A.solve(rhs)
    np.testing.assert_allclose(to_dense(A) @ x, rhs, atol=1e-12)


@pytest.mark.parametrize("bw", [1, 3])
def test_solve_leaves_the_band_it_is_given_unchanged(bw):
    # a BandedMatrix solve factors a copy: K's band, a band built by hand
    # and the right-hand side keep every bit, solved whole or by interior
    B, _, rng = _random_banded(12, bw, seed=bw)
    K = assemble_stiffness(build_space(1.0, 6, f"uniform({bw})"))
    for A, whole in ((B, True), (B, False), (K, False)):
        before = A.ab.copy()
        rhs = rng.normal(size=A.n if whole else A.n - 2)
        rhs_before = rhs.copy()
        A.solve(rhs, interior=not whole)
        assert A.ab.tobytes() == before.tobytes()
        assert rhs.tobytes() == rhs_before.tobytes()


@pytest.mark.parametrize("policy", ["uniform(1)", "uniform(3)",
                                    "center_graded"])
def test_kernel_tangent_is_spent_by_its_solve_to_the_bits_of_a_copy(policy):
    # the kernel's solve factors its band in place (gtsv's three rows at
    # bandwidth 1, gbsv's storage above) and writes the update into the
    # residual's interior: the bits of a BandedMatrix solve of a copy of
    # the tangent, whose band the kernel then no longer holds
    space = build_space(1.0, 10, policy)
    base, base_dot, sdd, load = _stage_data(space, 7)
    kernel = StageKernel(space, MaterialParams(rho=1.3, b=5.0, a=1.5), *_STEP)
    with _run_scope():
        pts, R = kernel.residual(kernel.stage(base, base_dot, load), sdd)
        tangent = kernel.tangent(pts)
        want = tangent.solve(R[1:-1], interior=True)
        r = R[1:-1]
        got = kernel.solve(pts, r)
    assert got.view(np.int64).tolist() == want.view(np.int64).tolist()
    assert np.shares_memory(got, r)
    band = kernel.ab[kernel.ab.shape[0] - tangent.ab.shape[0]:]
    assert band.tobytes() != tangent.ab.tobytes()  # it holds the factors


def test_missing_scipy_linalg_extension_names_its_directory():
    with pytest.raises(ImportError, match=r"_nonexistent in .*scipy.linalg"):
        _scipy_linalg_extension("_nonexistent")


@pytest.mark.parametrize("bw", [1, 3])
def test_banded_solve_singular_raises(bw):
    B, _, rng = _random_banded(9, bw, seed=bw)
    B.ab[:, 4] = 0.0  # column 4 is zero, so a pivot is exactly zero
    with pytest.raises(np.linalg.LinAlgError):
        B.solve(rng.normal(size=9))


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
        to_dense(M),
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
    _, R = residual(np.zeros(n))
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
    _, R = residual(sdd)
    Sigma, Sigma_dot = newmark_update(sn, sdd, hht)
    K = assemble_stiffness(space)
    expected = _inertial(space, Sigma, Sigma_dot, sdd, P12) \
        + K.matvec(Sigma) - load
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
    _, R = residual(sdd)
    Sigma, _ = newmark_update(sn, sdd, hht)
    M0 = _mass(space, np.zeros(n), p)
    K = assemble_stiffness(space)
    expected = (M0.matvec(sdd) + (1 + a) * K.matvec(Sigma)
                - a * K.matvec(sn.Sigma) - (1 + a) * ln + a * lp)
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
        _, R = residual(mms_fields(x, t + hht.dt).sigma_tt)
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
    S = to_dense(tangent(residual(np.zeros(n))[0]))
    M0 = to_dense(_mass(space, np.zeros(n), p))
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
    S = tangent(residual(rng.normal(size=n))[0])
    K = assemble_stiffness(space)
    assert S.bandwidth == K.bandwidth
    np.testing.assert_array_equal(np.abs(to_dense(S)) > 0,
                                  np.abs(to_dense(K)) > 0)


def _fd_directional(residual, sdd, d, eps=1e-6):
    return (residual(sdd + eps * d)[1] - residual(sdd - eps * d)[1]) / (2.0 * eps)


def test_tangent_matches_fd_jacobian():
    rng = np.random.default_rng(17)
    space = build_space(1.0, 8, "uniform(2)")
    n = space.n_dofs
    hht = HhtParams(alpha=-0.05, dt=1e-2)
    for _ in range(5):
        # states bounded away from sigma = 0 so the regularization is inactive
        state_n = state(0.0, 0.5 + 0.5 * rng.random(n),
                        rng.normal(size=n), rng.normal(size=n))
        sdd = rng.normal(size=n)
        d = rng.normal(size=n)
        residual, tangent = step_system(state_n, space, hht, P12)
        S = tangent(residual(sdd)[0])
        fd = _fd_directional(residual, sdd, d)
        Sd = S.matvec(d)
        assert np.linalg.norm(fd - Sd) <= 1e-5 * np.linalg.norm(Sd)


def test_graded_assembly_matches_per_cell_loop():
    # reference: each cell integrated with its own (degree + 2)-point rule
    space = build_space(1.0, 10, "center_graded")
    n = space.n_dofs
    rng = np.random.default_rng(21)
    Sigma, Sigma_dot, Sigma_ddot = 0.3 * rng.normal(size=(3, n))
    M_ref = np.zeros((n, n))
    F_ref = np.zeros(n)
    for k, p in enumerate(space.degrees):
        dofs = space.dof_table[k, :p + 1]
        xl, xr = space.cell_edges[k], space.cell_edges[k + 1]
        rule = gauss_rule(len(dofs) + 1)
        shp, _ = lagrange_basis(2.0 * (space.dof_coords[dofs] - xl) / (xr - xl)
                                - 1.0, rule.points)
        wj = rule.weights * 0.5 * (xr - xl)
        s, sd, sdd = shp @ Sigma[dofs], shp @ Sigma_dot[dofs], shp @ Sigma_ddot[dofs]
        fp, fpp = strain_derivative(s, 1, P12), strain_derivative(s, 2, P12)
        M_ref[np.ix_(dofs, dofs)] += (shp * (P12.rho * fp * wj)[:, None]).T @ shp
        F_ref[dofs] += shp.T @ (P12.rho * (fp * sdd + fpp * sd**2) * wj)
    np.testing.assert_allclose(to_dense(_mass(space, Sigma, P12)),
                               M_ref, rtol=1e-14, atol=1e-15)
    np.testing.assert_allclose(
        _inertial(space, Sigma, Sigma_dot, Sigma_ddot, P12), F_ref,
        rtol=1e-13, atol=1e-15)


@pytest.mark.parametrize("bw", [1, 2])
def test_one_by_one_solve_and_its_zero_pivot(bw):
    # the interior of a 2-cell uniform(1) mesh: gtsv rejects its empty
    # off-diagonals, so gbsv solves it and reports a zero pivot
    ab = np.zeros((2 * bw + 1, 1))
    ab[bw] = 4.0
    assert BandedMatrix(1, bw, ab).solve(np.array([2.0])).tolist() == [0.5]
    ab[bw] = 0.0
    with pytest.raises(np.linalg.LinAlgError):
        BandedMatrix(1, bw, ab).solve(np.array([2.0]))



_STEP = stage_weights(HhtParams(alpha=-0.05, dt=5e-2))  # (c, c_dot) of a step


def _stage_data(space, seed, big=None):
    """Random bases, acceleration and load; `big` = (node, stress) sets
    one node's base stress."""
    data = 0.3 * np.random.default_rng(seed).normal(size=(4, space.n_dofs))
    if big is not None:
        data[0, big[0]] = big[1]
    return data


def _kernel_stage(space, p, c, c_dot, base, base_dot, sdd, load):
    """(R, dense tangent) of the stage kernel, in a run's error state."""
    kernel = StageKernel(space, p, c, c_dot)
    with _run_scope():
        pts, R = kernel.residual(kernel.stage(base, base_dot, load), sdd)
        return R, to_dense(kernel.tangent(pts))


@pytest.mark.parametrize("policy", ["uniform(1)", "uniform(2)", "uniform(3)",
                                    "center_graded"])
@pytest.mark.parametrize("b", [0.0, 1.0, 5.0])
def test_stage_kernel_matches_per_cell_loop(policy, b):
    # residual and tangent of the kernel against a loop over cells that
    # takes the law at each cell's points, for the (c, c_dot) of a step
    # and of the t = 0 balance, to 1e-13 of their largest entry
    space = build_space(1.0, 10, policy)
    for seed, a in enumerate((0.5, 1.0, 1.5, 2.0, 3.0)):
        p = MaterialParams(rho=1.3, b=b, a=a)
        data = _stage_data(space, seed)
        for c, c_dot in (_STEP, (0.0, 0.0)):
            got = _kernel_stage(space, p, c, c_dot, *data)
            ref = per_cell_stage(space, *data, p, c, c_dot)
            for mine, want in zip(got, ref):
                assert (np.max(np.abs(mine - want))
                        <= 1e-13 * np.max(np.abs(want))), (a, c)


@pytest.mark.parametrize("policy", ["uniform(1)", "uniform(2)", "uniform(3)",
                                    "center_graded"])
def test_stage_kernel_evaluates_the_law_at_real_points_only(policy,
                                                            monkeypatch):
    # a mixed-degree table pads each cell to the largest point count; the
    # kernel takes the law at each cell's p + 2 points and no padded slot
    space = build_space(1.0, 10, policy)
    seen = []
    derivatives, third = Law.derivatives, Law.third
    monkeypatch.setattr(Law, "derivatives", lambda law, s, *out: (
        seen.append(s.size), derivatives(law, s, *out))[1])
    monkeypatch.setattr(Law, "third", lambda law, late, *out: (
        seen.append(late[0].size), third(law, late, *out))[1])
    _kernel_stage(space, P12, *_STEP, *_stage_data(space, 0))
    assert seen == [int(np.sum(space.degrees + 2))] * 2


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
    with pytest.raises(HyperbolicityError) as err:
        _kernel_stage(space, p, c, c_dot, *data)
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
    assert peak < results + pts[0].nbytes, (peak, results)
