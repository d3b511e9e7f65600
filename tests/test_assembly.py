import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stresswave.assembly import (BandedMatrix, _scipy_linalg_extension,
                                 assemble_load_at, assemble_stiffness,
                                 stage_points, stage_residual, stage_tangent)
from stresswave.constitutive import HyperbolicityError, MaterialParams
from stresswave.fe_space import FeSpace, build_space, gauss_rule, lagrange_basis
from stresswave.integrator import (HhtParams, SystemState, newmark_update,
                                   step_system)
from stresswave.verification import mms_fields, mms_forcing

from derivative_helpers import strain_derivative
from state_helpers import zero_state

P12 = MaterialParams(rho=1.0, b=1.0, a=2.0)
P0 = MaterialParams(rho=1.0, b=0.0, a=1.5)


def _single_cell(h):
    return FeSpace(np.array([0.0, h]), np.array([1]))


def _stage_points(space, Sigma, Sigma_dot, Sigma_ddot, p):
    """stage_points of nodal vectors, interpolated to the points first."""
    return stage_points(
        space, *space.table.at_points(Sigma, Sigma_dot, Sigma_ddot), p)


def _inertial(space, Sigma, Sigma_dot, Sigma_ddot, p):
    """Inertial force rho [eps' s_ddot + eps'' s_dot^2] tested against N_I."""
    pts = _stage_points(space, Sigma, Sigma_dot, Sigma_ddot, p)
    return stage_residual(space, np.zeros_like(Sigma), pts, p)


def _mass(space, Sigma, p):
    """Mass M_IJ = integral rho eps'(sigma_h) N_I N_J dx."""
    zero = np.zeros_like(Sigma)
    return stage_tangent(space, _stage_points(space, Sigma, zero, zero, p),
                         0.0, 0.0, p)


def _random_state(rng, n, t=0.0):
    return SystemState(t, rng.normal(size=n), rng.normal(size=n),
                       rng.normal(size=n))


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
    np.testing.assert_array_equal(B.to_dense(), dense)
    x = rng.normal(size=n)
    np.testing.assert_allclose(B.matvec(x), dense @ x, rtol=1e-12, atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(bw=st.integers(1, 3), n=st.integers(5, 40), seed=st.integers(0, 2**32 - 1))
def test_banded_interior_solve_matches_dense(bw, n, seed):
    B, dense, rng = _random_banded(n, bw, seed)
    rhs = rng.normal(size=n - 2)
    np.testing.assert_allclose(B.interior().solve(rhs),
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
    np.testing.assert_allclose(A.to_dense() @ x, rhs, atol=1e-12)


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
    K = assemble_stiffness(space).to_dense()
    np.testing.assert_allclose(
        K, [[2.0, -2.0, 0.0], [-2.0, 4.0, -2.0], [0.0, -2.0, 2.0]], atol=1e-13)


def test_stiffness_symmetric_zero_rowsum_psd():
    for policy in ("uniform(1)", "uniform(3)", "center_graded"):
        space = build_space(1.5, 6, policy)
        K = assemble_stiffness(space).to_dense()
        np.testing.assert_allclose(K, K.T, atol=1e-14)
        np.testing.assert_allclose(K @ np.ones(space.n_dofs), 0.0, atol=1e-13)
        assert np.min(np.linalg.eigvalsh(K)) > -1e-12


def test_stiffness_cached_per_space():
    space = build_space(1.0, 4, "uniform(2)")
    assert assemble_stiffness(space) is assemble_stiffness(space)


def test_mass_linear_material_hand_value():
    h = 0.4
    space = _single_cell(h)
    M = _mass(space, np.zeros(2), MaterialParams(rho=2.0, b=0.0, a=1.5))
    np.testing.assert_allclose(
        M.to_dense(), 2.0 * h / 6.0 * np.array([[2.0, 1.0], [1.0, 2.0]]),
        atol=1e-15)


def test_inertial_zero_rates():
    space = build_space(1.0, 4, "uniform(2)")
    n = space.n_dofs
    F = _inertial(space, np.full(n, 0.7), np.zeros(n), np.zeros(n), P12)
    np.testing.assert_array_equal(F, np.zeros(n))


def test_inertial_linear_single_cell_hand_value():
    h = 0.3
    rho = 1.7
    space = _single_cell(h)
    F = _inertial(space, np.zeros(2), np.zeros(2), np.ones(2),
                  MaterialParams(rho=rho, b=0.0, a=1.5))
    np.testing.assert_allclose(F, [rho * h / 2.0, rho * h / 2.0], atol=1e-15)


def test_inertial_constant_state_scales_by_tangent_compliance():
    h = 0.3
    space = _single_cell(h)
    ones = np.ones(2)
    F_lin = _inertial(space, np.zeros(2), np.zeros(2), ones, P0)
    F_nl = _inertial(space, ones, np.zeros(2), ones, P12)
    np.testing.assert_allclose(F_nl, 2.0**-1.5 * F_lin, rtol=1e-14)


def test_inertial_hyperbolicity_error_carries_location():
    space = build_space(1.0, 4, "uniform(1)")
    n = space.n_dofs
    p = MaterialParams(rho=1.0, b=1e200, a=2.0)
    with pytest.raises(HyperbolicityError) as err:
        _inertial(space, np.full(n, 1e200), np.zeros(n), np.ones(n), p)
    assert err.value.x is not None


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
    residual, _ = step_system(sn, space, hht, P12, np.zeros(n), load)
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
    residual, _ = step_system(sn, space, hht, p, lp, ln)
    _, R = residual(sdd)
    Sigma, _ = newmark_update(sn, sdd, hht)
    M0 = _mass(space, np.zeros(n), p)
    K = assemble_stiffness(space)
    a = hht.alpha
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
        loads = assemble_load_at(space, lambda xx, tt: mms_forcing(xx, tt, P0),
                                 [t + hht.dt, t])
        residual, _ = step_system(SystemState(t, f.sigma, f.sigma_t, f.sigma_tt),
                                  space, hht, P0, loads[1], loads[0])
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
    state = SystemState(0.0, np.random.default_rng(2).normal(size=n),
                        np.zeros(n), np.zeros(n))
    residual, tangent = step_system(state, space, hht, p)
    S = tangent(residual(np.zeros(n))[0]).to_dense()
    M0 = _mass(space, np.zeros(n), p).to_dense()
    K = assemble_stiffness(space).to_dense()
    expected = M0 + hht.beta_nm * hht.dt**2 * (1.0 + hht.alpha) * K
    np.testing.assert_allclose(S, expected, atol=1e-14)


def test_tangent_structure_matches_stiffness():
    space = build_space(1.0, 6, "center_graded")
    n = space.n_dofs
    rng = np.random.default_rng(8)
    state = SystemState(0.0, 0.5 + rng.random(n), rng.normal(size=n),
                        rng.normal(size=n))
    residual, tangent = step_system(state, space,
                                    HhtParams(alpha=-0.05, dt=1e-2), P12)
    S = tangent(residual(rng.normal(size=n))[0])
    K = assemble_stiffness(space)
    assert S.bandwidth == K.bandwidth
    np.testing.assert_array_equal(np.abs(S.to_dense()) > 0,
                                  np.abs(K.to_dense()) > 0)


def _fd_directional(residual, sdd, d, eps=1e-6):
    return (residual(sdd + eps * d)[1] - residual(sdd - eps * d)[1]) / (2.0 * eps)


def test_tangent_matches_fd_jacobian():
    rng = np.random.default_rng(17)
    space = build_space(1.0, 8, "uniform(2)")
    n = space.n_dofs
    hht = HhtParams(alpha=-0.05, dt=1e-2)
    for _ in range(5):
        # states bounded away from sigma = 0 so the regularization is inactive
        state_n = SystemState(0.0, 0.5 + 0.5 * rng.random(n),
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
    np.testing.assert_allclose(_mass(space, Sigma, P12).to_dense(),
                               M_ref, rtol=1e-14, atol=1e-15)
    np.testing.assert_allclose(
        _inertial(space, Sigma, Sigma_dot, Sigma_ddot, P12), F_ref,
        rtol=1e-13, atol=1e-15)
