"""Assembly of the semi-discrete stress wave system.

The weak form produces, on nodal vectors (Sigma, Sigma_dot, Sigma_ddot),

    F_inrt_I = integral rho [eps'(s) s_ddot + eps''(s) s_dot^2] N_I dx
    K_IJ     = integral N_I' N_J' dx              (constant)

and the time-discrete residual weights the elastic and load terms with
the dissipation parameter alpha (in [-1/3, 0]):

    R = F_inrt(S*, Sd*, Sdd_{n+1}) + (1+alpha) K S_{n+1} - alpha K S_n
        - [(1+alpha) L_{n+1} - alpha L_n]

where the starred quantities are the alpha-weighted stage states

    S*  = (1+alpha) S_{n+1}  - alpha S_n
    Sd* = (1+alpha) Sd_{n+1} - alpha Sd_n.

This is the pairing that keeps second-order accuracy with beta =
(1-alpha)^2/4 and gamma = 1/2 - alpha: the converged acceleration is
effectively a sample of the true acceleration at t_{n+1} + alpha dt,
and the gamma excess over 1/2 cancels exactly that shift in the
kinematic updates.  The cancellation requires the inertial operator's
state-dependent coefficients to be sampled at the same shifted time,
hence the stage states; evaluating them at t_{n+1} instead degrades the
scheme to first order whenever the mass depends on the solution.  For a
linear material (b = 0) the stage states drop out of the (constant)
coefficients and the method reduces to the classical form exactly.

The Newton unknown is the acceleration vector, so the consistent
tangent chains through the Newmark updates and the stage weighting:

    S = M(S*) + (1+alpha) { gamma dt C_nl + beta dt^2 [K + K_sig] }
    C_nl  = integral 2 rho eps''(s*) sd* N_I N_J dx
    K_sig = integral rho (eps''(s*) sdd + eps'''(s*) sd*^2) N_I N_J dx.

Every integral is one vectorized pass over the space's cell table
(FeSpace.batches), whose padded nodes and points contribute zero.  All
matrices are stored in LAPACK banded form (half-bandwidth = max cell
degree); element matrices reach it through the table's precomputed
scatter index.  The two boundary DoFs always carry prescribed values,
so the integrator solves only the interior block (BandedMatrix.interior)
by direct banded factorization.
"""
from __future__ import annotations

import dataclasses

import numpy as np
from scipy.linalg import solve_banded

from .constitutive import HyperbolicityError, MaterialParams, strain_derivative
from .fe_space import CellTable, FeSpace


class BandedMatrix:
    """Square matrix in diagonal-ordered banded storage.

    Entry (i, j) with |i - j| <= bandwidth lives at ab[bandwidth + i - j, j],
    the layout scipy.linalg.solve_banded expects.
    """

    def __init__(self, n: int, bandwidth: int, ab: np.ndarray):
        self.n = n
        self.bandwidth = bandwidth
        self.ab = ab

    def matvec(self, x: np.ndarray) -> np.ndarray:
        y = self.ab[self.bandwidth] * x
        for d in range(1, self.bandwidth + 1):
            # superdiagonal d: entries (i, i+d); subdiagonal d: (i+d, i)
            y[:-d] += self.ab[self.bandwidth - d, d:] * x[d:]
            y[d:] += self.ab[self.bandwidth + d, :-d] * x[:-d]
        return y

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        return solve_banded((self.bandwidth, self.bandwidth), self.ab, rhs)

    def interior(self) -> "BandedMatrix":
        """View of the block without the first and last rows and columns.

        Dropping the end columns of the storage leaves the couplings to
        the end rows in slots that the banded solver never reads.
        """
        return BandedMatrix(self.n - 2, self.bandwidth, self.ab[:, 1:-1])

    def to_dense(self) -> np.ndarray:
        out = np.zeros((self.n, self.n))
        for i in range(self.n):
            lo, hi = max(0, i - self.bandwidth), min(self.n, i + self.bandwidth + 1)
            for j in range(lo, hi):
                out[i, j] = self.ab[self.bandwidth + i - j, j]
        return out


def _check_hyperbolic(fp: np.ndarray, sig_q: np.ndarray, t: CellTable):
    if np.any(fp <= 0.0):
        fp = np.where(t.weights > 0.0, fp, np.inf)  # skip padded points
        i = np.unravel_index(np.argmin(fp), fp.shape)
        if fp[i] <= 0.0:
            raise HyperbolicityError(
                f"tangent compliance {fp[i]:.3e} <= 0 at quadrature point "
                f"x={t.x_q[i]:.6g} (sigma={sig_q[i]:.6g})",
                sigma=float(sig_q[i]), x=float(t.x_q[i]))


def _vector(space: FeSpace, t: CellTable, integrand: np.ndarray) -> np.ndarray:
    """F_I = integral integrand N_I dx from integrand values at the points."""
    fe = np.einsum("mq,mqi->mi", integrand * t.weights * t.jac[:, None],
                   t.shape)
    return np.bincount(t.dofs.ravel(), weights=fe.ravel(),
                       minlength=space.n_dofs)


def _banded(space: FeSpace, t: CellTable, me: np.ndarray) -> BandedMatrix:
    """Sum of the element matrices `me`, one per cell, in banded storage."""
    n, bw = space.n_dofs, space.bandwidth
    ab = np.bincount(t.scatter, weights=me.ravel(), minlength=(2 * bw + 1) * n)
    return BandedMatrix(n, bw, ab.reshape(2 * bw + 1, n))


def _matrix(space: FeSpace, t: CellTable, coef: np.ndarray) -> BandedMatrix:
    """M_IJ = integral coef N_I N_J dx from coef values at the points."""
    return _banded(space, t, np.einsum(
        "mq,mqk->mk", coef * t.weights * t.jac[:, None], t.outer))


def assemble_stiffness(space: FeSpace) -> BandedMatrix:
    """Constant stiffness K_IJ = integral N_I' N_J' dx (cached per space)."""
    cached = space._aux_cache.get("stiffness")
    if cached is not None:
        return cached
    t = space.batches()
    K = _banded(space, t, np.einsum("mq,mqi,mqj->mij",
                                    t.weights / t.jac[:, None],
                                    t.dshape, t.dshape))
    space._aux_cache["stiffness"] = K
    return K


def assemble_mass(space: FeSpace, Sigma: np.ndarray, p: MaterialParams) -> BandedMatrix:
    """State-dependent mass M_IJ = integral rho eps'(sigma_h) N_I N_J dx."""
    t = space.batches()
    sig_q, = t.at_points(Sigma)
    fp = strain_derivative(sig_q, 1, p)
    _check_hyperbolic(fp, sig_q, t)
    return _matrix(space, t, p.rho * fp)


def assemble_inertial(space: FeSpace, Sigma: np.ndarray, Sigma_dot: np.ndarray,
                      Sigma_ddot: np.ndarray, p: MaterialParams) -> np.ndarray:
    """Inertial force rho [eps' s_ddot + eps'' s_dot^2] tested against N_I."""
    t = space.batches()
    sig_q, sigd_q, sigdd_q = t.at_points(Sigma, Sigma_dot, Sigma_ddot)
    fp = strain_derivative(sig_q, 1, p)
    _check_hyperbolic(fp, sig_q, t)
    fpp = strain_derivative(sig_q, 2, p)
    return _vector(space, t, p.rho * (fp * sigdd_q + fpp * sigd_q**2))


def assemble_load_at(space: FeSpace, forcing, t: float) -> np.ndarray:
    """L_I(t) = integral forcing(x, t) N_I dx by cellwise quadrature."""
    table = space.batches()
    return _vector(space, table,
                   np.asarray(forcing(table.x_q, t), dtype=float))


def stage_state(state_next, state_prev, alpha: float):
    """Alpha-weighted stage state whose coefficients the inertia sees.

    Stress and rate are blended to the sampling time t_{n+1} + alpha dt;
    the acceleration stays the n+1 unknown.
    """
    if alpha == 0.0:
        return state_next
    w = 1.0 + alpha
    return dataclasses.replace(
        state_next,
        Sigma=w * state_next.Sigma - alpha * state_prev.Sigma,
        Sigma_dot=w * state_next.Sigma_dot - alpha * state_prev.Sigma_dot)


def assemble_residual(space: FeSpace, state_next, state_prev, hht,
                      p: MaterialParams, load_next: np.ndarray | None = None,
                      load_prev: np.ndarray | None = None) -> np.ndarray:
    """Time-discrete residual at the n+1 iterate (zero when balanced)."""
    K = assemble_stiffness(space)
    alpha = hht.alpha
    stage = stage_state(state_next, state_prev, alpha)
    R = assemble_inertial(space, stage.Sigma, stage.Sigma_dot,
                          state_next.Sigma_ddot, p)
    R += (1.0 + alpha) * K.matvec(state_next.Sigma)
    R -= alpha * K.matvec(state_prev.Sigma)
    if load_next is not None:
        R -= (1.0 + alpha) * load_next
    if load_prev is not None:
        R += alpha * load_prev
    return R


def assemble_tangent(space: FeSpace, stage, hht,
                     p: MaterialParams) -> BandedMatrix:
    """Consistent tangent of the residual w.r.t. the acceleration vector.

    `stage` is the alpha-weighted stage state the residual's inertial
    coefficients were evaluated at (see stage_state); for alpha = 0 it
    is simply the n+1 iterate.
    """
    K = assemble_stiffness(space)
    dt = hht.dt
    w = 1.0 + hht.alpha  # stage sensitivity d(S*)/d(S_{n+1})
    beta, gamma = hht.beta_nm, hht.gamma_nm
    t = space.batches()
    sig_q, sigd_q, sigdd_q = t.at_points(stage.Sigma, stage.Sigma_dot,
                                         stage.Sigma_ddot)
    fp = strain_derivative(sig_q, 1, p)
    fpp = strain_derivative(sig_q, 2, p)
    fppp = strain_derivative(sig_q, 3, p)
    # M + w gamma dt C_nl + w beta dt^2 K_sig, fused in one pass
    S = _matrix(space, t, p.rho * (
        fp + w * gamma * dt * 2.0 * fpp * sigd_q
        + w * beta * dt**2 * (fpp * sigdd_q + fppp * sigd_q**2)))
    S.ab += beta * dt**2 * w * K.ab
    return S
