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

Residual and tangent share one evaluation of the stage at the points
(stage_points, with eps', eps'' and eps''' fused), and the elastic term
is the single product K S* = (1+alpha) K S_{n+1} - alpha K S_n.

Every integral is one vectorized pass over the space's cell table
(FeSpace.batches), whose padded nodes and points contribute zero.  All
matrices are stored in LAPACK banded form (half-bandwidth = max cell
degree); element matrices reach it through the table's precomputed
scatter index.  The two boundary DoFs always carry prescribed values,
so the integrator solves only the interior block (BandedMatrix.interior)
by direct banded factorization (LAPACK gtsv, or gbsv above bandwidth 1).
"""
from __future__ import annotations

import dataclasses

import numpy as np
from scipy.linalg import get_lapack_funcs

from .constitutive import HyperbolicityError, MaterialParams, derivatives
from .fe_space import CellTable, FeSpace

_gtsv, _gbsv = get_lapack_funcs(("gtsv", "gbsv"), dtype=np.float64)


class BandedMatrix:
    """Square matrix in diagonal-ordered banded storage.

    Entry (i, j) with |i - j| <= bandwidth lives at ab[bandwidth + i - j, j],
    LAPACK's band layout with kl = ku = bandwidth (less gbsv's fill-in rows).
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
        """x with A x = rhs; np.linalg.LinAlgError if A is singular."""
        bw, ab = self.bandwidth, self.ab
        if bw == 1:
            *_, x, info = _gtsv(ab[2, :-1], ab[1], ab[0, 1:], rhs)
        else:
            lab = np.vstack((np.zeros((bw, self.n)), ab))  # fill-in rows
            *_, x, info = _gbsv(bw, bw, lab, rhs, overwrite_ab=True)
        if info > 0:
            raise np.linalg.LinAlgError(f"singular matrix (zero pivot {info})")
        return x

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
    zero = np.zeros_like(Sigma)
    _, _, fp, _, _ = stage_points(space, Sigma, zero, zero, p)
    return _matrix(space, space.batches(), p.rho * fp)


def assemble_inertial(space: FeSpace, Sigma: np.ndarray, Sigma_dot: np.ndarray,
                      Sigma_ddot: np.ndarray, p: MaterialParams) -> np.ndarray:
    """Inertial force rho [eps' s_ddot + eps'' s_dot^2] tested against N_I."""
    pts = stage_points(space, Sigma, Sigma_dot, Sigma_ddot, p)
    return stage_residual(space, np.zeros_like(Sigma), pts, 0.0, p)


def assemble_load_at(space: FeSpace, forcing, t: float) -> np.ndarray:
    """L_I(t) = integral forcing(x, t) N_I dx by cellwise quadrature."""
    table = space.batches()
    return _vector(space, table,
                   np.asarray(forcing(table.x_q, t), dtype=float))


def stage_points(space: FeSpace, Sigma: np.ndarray, Sigma_dot: np.ndarray,
                 Sigma_ddot: np.ndarray, p: MaterialParams) -> tuple:
    """A stage at the points of space.batches(), shared by residual and tangent.

    Returns (sigma_dot, sigma_ddot, eps', eps'', eps''') at the points,
    each (n_cells, n_points).  Raises HyperbolicityError where eps' <= 0.
    """
    t = space.batches()
    sig_q, sigd_q, sigdd_q = t.at_points(Sigma, Sigma_dot, Sigma_ddot)
    fp, fpp, fppp = derivatives(sig_q, p)
    if np.any(fp <= 0.0):
        bad = np.where(t.weights > 0.0, fp, np.inf)  # skip padded points
        i = np.unravel_index(np.argmin(bad), bad.shape)
        if bad[i] <= 0.0:
            raise HyperbolicityError(
                f"tangent compliance {bad[i]:.3e} <= 0 at quadrature point "
                f"x={t.x_q[i]:.6g} (sigma={sig_q[i]:.6g})",
                sigma=float(sig_q[i]), x=float(t.x_q[i]))
    return sigd_q, sigdd_q, fp, fpp, fppp


def stage_load(load_next: np.ndarray | None, load_prev: np.ndarray | None,
               alpha: float):
    """Alpha-weighted load (1+alpha) L_{n+1} - alpha L_n; None is no load."""
    return ((0.0 if load_next is None else (1.0 + alpha) * load_next)
            - (0.0 if load_prev is None else alpha * load_prev))


def stage_residual(space: FeSpace, Sigma: np.ndarray, pts: tuple, load,
                   p: MaterialParams) -> np.ndarray:
    """R = F_inrt(pts) + K S* - load, where Sigma is the stage stress S*."""
    sigd_q, sigdd_q, fp, fpp, _ = pts
    R = _vector(space, space.batches(), p.rho * (fp * sigdd_q + fpp * sigd_q**2))
    return R + assemble_stiffness(space).matvec(Sigma) - load


def stage_tangent(space: FeSpace, pts: tuple, hht,
                  p: MaterialParams) -> BandedMatrix:
    """Consistent tangent dR/d(Sdd_{n+1}) at the stage values `pts`."""
    sigd_q, sigdd_q, fp, fpp, fppp = pts
    w = 1.0 + hht.alpha  # stage sensitivity d(S*)/d(S_{n+1})
    c_dot, c = w * hht.gamma_nm * hht.dt, w * hht.beta_nm * hht.dt**2
    # M + w gamma dt C_nl + w beta dt^2 (K + K_sig), fused in one pass
    S = _matrix(space, space.batches(), p.rho * (
        fp + c_dot * 2.0 * fpp * sigd_q
        + c * (fpp * sigdd_q + fppp * sigd_q**2)))
    S.ab += c * assemble_stiffness(space).ab
    return S


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
    stage = stage_state(state_next, state_prev, hht.alpha)
    pts = stage_points(space, stage.Sigma, stage.Sigma_dot, stage.Sigma_ddot, p)
    return stage_residual(space, stage.Sigma, pts,
                          stage_load(load_next, load_prev, hht.alpha), p)


def assemble_tangent(space: FeSpace, stage, hht,
                     p: MaterialParams) -> BandedMatrix:
    """Consistent tangent of the residual w.r.t. the acceleration vector.

    `stage` is the alpha-weighted stage state the residual's inertial
    coefficients were evaluated at (see stage_state); for alpha = 0 it
    is simply the n+1 iterate.
    """
    return stage_tangent(space, stage_points(
        space, stage.Sigma, stage.Sigma_dot, stage.Sigma_ddot, p), hht, p)
