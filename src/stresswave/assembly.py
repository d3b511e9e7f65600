"""Spatial assembly of the semi-discrete stress wave system.

The weak form produces, on nodal vectors (Sigma, Sigma_dot, Sigma_ddot),

    F_inrt_I = integral rho [eps'(s) s_ddot + eps''(s) s_dot^2] N_I dx
    K_IJ     = integral N_I' N_J' dx              (constant)

A stage is one such set of vectors, and its residual and tangent are

    R       = F_inrt(S, Sd, Sdd) + K S - L
    dR/dSdd = M(S) + c_dot C_nl + c [K + K_sig]
    C_nl    = integral 2 rho eps''(s) s_dot N_I N_J dx
    K_sig   = integral rho (eps''(s) s_ddot + eps'''(s) s_dot^2) N_I N_J dx

where M(S) = integral rho eps'(s) N_I N_J dx and the stage stress and
rate move with the acceleration as dS = c dSdd, dSd = c_dot dSdd.  The
time scheme that picks the stage, c and c_dot lives in the integrator;
this module only integrates in space.  Residual and tangent share one
evaluation of the stage at the points (stage_points, with eps', eps''
and eps''' fused); callers interpolate the stage (CellTable.at_points).

Every integral is one matrix product (CellTable.integrate) over the
space's cell table (FeSpace.batches), whose padded nodes and points add
zero.  All matrices are stored in LAPACK banded form (half-bandwidth = max
cell degree); element matrices reach it through the table's precomputed
scatter index.  The two boundary DoFs always carry prescribed values, so
the integrator solves only the interior block (BandedMatrix.interior) by
direct banded factorization (LAPACK gtsv, or gbsv above bandwidth 1).
"""
from __future__ import annotations

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
    fe = t.integrate(integrand, t.ref)
    return np.bincount(t.dofs.ravel(), weights=fe.ravel(),
                       minlength=space.n_dofs)


def _banded(space: FeSpace, t: CellTable, me: np.ndarray) -> BandedMatrix:
    """Sum of the element matrices `me`, one per cell, in banded storage."""
    n, bw = space.n_dofs, space.bandwidth
    ab = np.bincount(t.scatter, weights=me.ravel(), minlength=(2 * bw + 1) * n)
    return BandedMatrix(n, bw, ab.reshape(2 * bw + 1, n))


def _matrix(space: FeSpace, t: CellTable, coef: np.ndarray) -> BandedMatrix:
    """M_IJ = integral coef N_I N_J dx from coef values at the points."""
    return _banded(space, t, t.integrate(coef, t.ref_outer))


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


def assemble_load_at(space: FeSpace, forcing, times) -> np.ndarray:
    """L_I(t) = integral forcing(x, t) N_I dx, one row per time of the 1-D
    `times`, from one forcing call with t of shape (len(times), 1, 1)."""
    t, k = space.batches(), len(times)
    f = forcing(t.x_q, np.asarray(times, dtype=float)[:, None, None])
    fe = t.integrate(np.broadcast_to(f, (k,) + t.x_q.shape), t.ref)
    rows = np.arange(k)[:, None] * space.n_dofs + t.dofs.ravel()
    return np.bincount(rows.ravel(), weights=fe.ravel(),
                       minlength=k * space.n_dofs).reshape(k, -1)


def stage_points(space: FeSpace, sig_q: np.ndarray, sigd_q: np.ndarray,
                 sigdd_q: np.ndarray, p: MaterialParams) -> tuple:
    """A stage at the points of space.batches(), shared by residual and tangent.

    Takes stress, rate and acceleration at the points (CellTable.at_points)
    and returns (sigma_dot, sigma_ddot, eps', eps'', eps''') there, each
    (n_cells, n_points).  Raises HyperbolicityError where eps' <= 0.
    """
    fp, fpp, fppp = derivatives(sig_q, p)
    if (fp <= 0.0).any():
        t = space.batches()
        bad = np.where(t.weights > 0.0, fp, np.inf)  # skip padded points
        i = np.unravel_index(np.argmin(bad), bad.shape)
        if bad[i] <= 0.0:
            raise HyperbolicityError(
                f"tangent compliance {bad[i]:.3e} <= 0 at quadrature point "
                f"x={t.x_q[i]:.6g} (sigma={sig_q[i]:.6g})",
                sigma=float(sig_q[i]), x=float(t.x_q[i]))
    return sigd_q, sigdd_q, fp, fpp, fppp


def stage_residual(space: FeSpace, Sigma: np.ndarray, pts: tuple, load,
                   p: MaterialParams) -> np.ndarray:
    """R = F_inrt(pts) + K Sigma - load, where Sigma is the stage stress."""
    sigd_q, sigdd_q, fp, fpp, _ = pts
    R = _vector(space, space.batches(), p.rho * (fp * sigdd_q + fpp * sigd_q**2))
    return R + assemble_stiffness(space).matvec(Sigma) - load


def stage_tangent(space: FeSpace, pts: tuple, c_dot: float, c: float,
                  p: MaterialParams) -> BandedMatrix:
    """Tangent dR/d(Sdd) at the stage values `pts` for dS = c dSdd and
    dSd = c_dot dSdd; c = c_dot = 0 gives the mass matrix M(S)."""
    sigd_q, sigdd_q, fp, fpp, fppp = pts
    # M + c_dot C_nl + c (K + K_sig), fused in one pass
    S = _matrix(space, space.batches(), p.rho * (
        fp + c_dot * 2.0 * fpp * sigd_q
        + c * (fpp * sigdd_q + fppp * sigd_q**2)))
    S.ab += c * assemble_stiffness(space).ab
    return S
