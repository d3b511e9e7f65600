"""Spatial assembly of the semi-discrete stress wave system.

The weak form produces, on nodal vectors (Sigma, Sigma_dot, Sigma_ddot),

    F_inrt_I = integral rho [eps'(s) s_ddot + eps''(s) s_dot^2] N_I dx
    K_IJ     = integral N_I' N_J' dx              (constant)

A stage is one such set of vectors, and its residual and tangent are

    R       = F_inrt(S, Sd, Sdd) + (K S - L)
    dR/dSdd = M(S) + c_dot C_nl + c [K + K_sig]
    C_nl    = integral 2 rho eps''(s) s_dot N_I N_J dx
    K_sig   = integral rho (eps''(s) s_ddot + eps'''(s) s_dot^2) N_I N_J dx

where M(S) = integral rho eps'(s) N_I N_J dx and the stage stress and
rate move with the acceleration as dS = c dSdd, dSd = c_dot dSdd.  The
time scheme that picks the stage, c and c_dot lives in the integrator;
this module only integrates in space.  Residual and tangent share one
evaluation of the stage at the points (stage_points; eps''' is formed in
the tangent only); callers interpolate the stage (CellTable.at_points)
and form its elastic term K S - L (BandedMatrix.matvec, one BLAS gbmv).

Every integral is one matrix product (CellTable.integrate) over the
space's cell table (FeSpace.table), whose padded nodes and points add
zero.  All matrices are stored in LAPACK banded form (half-bandwidth = max
cell degree); element matrices reach it through the table's precomputed
scatter index.  The two boundary DoFs always carry prescribed values, so
the integrator solves only the interior block (BandedMatrix.interior) by
direct banded factorization (LAPACK gtsv; gbsv above bandwidth 1 or 1x1).

The three Fortran routines (LAPACK dgtsv and dgbsv, BLAS dgbmv) come from
scipy's f2py modules scipy.linalg._flapack and _fblas, loaded on their own:
the scipy.linalg package import would also run scipy's array-API layer,
which loads numpy.f2py, numpy.testing, numpy.random and numpy.ma, about
a quarter second and 20 MB of every start-up.  They are the objects that
scipy.linalg.get_lapack_funcs and get_blas_funcs return.
"""
from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys
from functools import lru_cache

import numpy as np
import scipy

from .constitutive import (HyperbolicityError, MaterialParams, _derivatives,
                           _third_derivative)
from .fe_space import CellTable, FeSpace


def _scipy_linalg_extension(name: str):
    """The compiled module scipy.linalg.<name>, loaded and registered in
    sys.modules without running the scipy.linalg package; the module
    already there if scipy.linalg (or this function) loaded it first."""
    full = f"scipy.linalg.{name}"
    if full in sys.modules:
        return sys.modules[full]
    path = os.path.join(os.path.dirname(scipy.__file__), "linalg")
    spec = importlib.machinery.PathFinder.find_spec(full, [path])
    if spec is None:
        raise ImportError(f"no extension module {name} in {path}",
                          name=full, path=path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.modules[full] = module
    return module


_flapack = _scipy_linalg_extension("_flapack")
_gtsv, _gbsv = _flapack.dgtsv, _flapack.dgbsv
_gbmv = _scipy_linalg_extension("_fblas").dgbmv


class BandedMatrix:
    """Square matrix in diagonal-ordered banded storage.

    Entry (i, j) with |i - j| <= bandwidth lives at ab[bandwidth + i - j, j],
    LAPACK's band layout with kl = ku = bandwidth (less gbsv's fill-in rows);
    assembled matrices store ab column-major, as BLAS reads it.
    """

    def __init__(self, n: int, bandwidth: int, ab: np.ndarray):
        self.n = n
        self.bandwidth = bandwidth
        self.ab = ab

    def matvec(self, x: np.ndarray, scale: float = 1.0,
               add: np.ndarray | None = None) -> np.ndarray:
        """scale A x + add (add itself is left intact), one BLAS gbmv."""
        n, bw = self.n, self.bandwidth
        if n < 2 * bw + 1:  # below the size the gbmv wrapper accepts
            return scale * (self.to_dense() @ x) + (0.0 if add is None else add)
        return _gbmv(n, n, bw, bw, scale, self.ab, x,
                     beta=0.0 if add is None else 1.0, y=add)

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """x with A x = rhs; np.linalg.LinAlgError if A is singular."""
        bw, ab = self.bandwidth, self.ab
        if bw == 1 and self.n > 1:  # gtsv rejects a 1x1 system's empty bands
            *_, x, info = _gtsv(ab[2, :-1], ab[1], ab[0, 1:], rhs)
        else:
            lab = np.zeros((3 * bw + 1, self.n), order="F")  # + fill-in rows
            lab[bw:] = ab
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


def _vector(space: FeSpace, t: CellTable, hw: np.ndarray) -> np.ndarray:
    """F_I = integral h N_I dx from hw = h * wj at the points."""
    fe = t.integrate(hw, t.ref)
    return np.bincount(t.dofs.ravel(), weights=fe.ravel(),
                       minlength=space.n_dofs)


def _banded(space: FeSpace, t: CellTable, me: np.ndarray) -> BandedMatrix:
    """Sum of the element matrices `me`, one per cell, in banded storage."""
    n, bw = space.n_dofs, space.bandwidth
    ab = np.bincount(t.scatter, weights=me.ravel(), minlength=(2 * bw + 1) * n)
    return BandedMatrix(n, bw, ab.reshape(n, 2 * bw + 1).T)


def _matrix(space: FeSpace, t: CellTable, hw: np.ndarray) -> BandedMatrix:
    """M_IJ = integral h N_I N_J dx from hw = h * wj at the points."""
    return _banded(space, t, t.integrate(hw, t.ref_outer))


@lru_cache(maxsize=1)  # a run assembles with one space
def assemble_stiffness(space: FeSpace) -> BandedMatrix:
    """Constant stiffness K_IJ = integral N_I' N_J' dx (cached, read-only)."""
    t = space.table  # dN/dx = dN/d xi / jac
    K = _banded(space, t, t.integrate(t.jac[:, None] ** -2.0 * t.wj,
                                      t.dref_outer))
    K.ab.flags.writeable = False
    return K


@lru_cache(maxsize=2)  # the c of every step, and of t = 0 or a short last step
def _scaled_stiffness(space: FeSpace, c: float) -> np.ndarray:
    """c K in banded storage (read-only), the elastic part of a stage
    tangent."""
    ab = c * assemble_stiffness(space).ab
    ab.flags.writeable = False
    return ab


@lru_cache(maxsize=1)  # a run integrates with one space and one rho
def _rho_wj(space: FeSpace, rho: float) -> np.ndarray:
    """rho * wj of space.table (read-only), the weights of the inertial
    integrals."""
    w = rho * space.table.wj
    w.flags.writeable = False
    return w


def assemble_load_at(space: FeSpace, forcing, times) -> np.ndarray:
    """L_I(t) = integral forcing(x, t) N_I dx, one row per time of the 1-D
    `times`, from one forcing call with t of shape (len(times), 1, 1)."""
    t, k = space.table, len(times)
    f = forcing(t.x_q, np.asarray(times, dtype=float)[:, None, None])
    fe = t.integrate(np.broadcast_to(f, (k,) + t.x_q.shape) * t.wj, t.ref)
    rows = np.arange(k)[:, None] * space.n_dofs + t.dofs.ravel()
    return np.bincount(rows.ravel(), weights=fe.ravel(),
                       minlength=k * space.n_dofs).reshape(k, -1)


def stage_points(space: FeSpace, sig_q: np.ndarray, sigd_q: np.ndarray,
                 sigdd_q: np.ndarray, p: MaterialParams) -> tuple:
    """A stage at the points of space.table, shared by residual and tangent.

    Takes stress, rate and acceleration at the points (CellTable.at_points)
    and returns (sigma_dot, sigma_dot^2, sigma_ddot, eps', eps'', the
    factors of eps''') there.  Raises HyperbolicityError where eps' <= 0.
    Ignores over, invalid and divide, as a run does."""
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        return _stage_points(space, sig_q, sigd_q, sigdd_q, p)


def _stage_points(space: FeSpace, sig_q: np.ndarray, sigd_q: np.ndarray,
                  sigdd_q: np.ndarray, p: MaterialParams) -> tuple:
    """stage_points in the caller's error state (a run's one scope)."""
    fp, fpp, fp_min, late = _derivatives(sig_q, p)
    if p.rho * fp_min <= 0.0:  # eps' <= 0, or rho eps' underflows to 0
        # padded points interpolate to 0, where eps' = 1: argmin is real
        t = space.table
        i = np.unravel_index(np.argmin(fp), fp.shape)
        why = "<= 0" if fp[i] <= 0.0 else f"times rho={p.rho:.3e} underflows to 0"
        raise HyperbolicityError(
            f"tangent compliance {fp[i]:.3e} {why} at sigma={sig_q[i]:.6g} "
            f"(quadrature point x={t.x_q[i]:.6g})",
            sigma=float(sig_q[i]), x=float(t.x_q[i]))
    return sigd_q, sigd_q**2, sigdd_q, fp, fpp, late


def stage_residual(space: FeSpace, elastic: np.ndarray, pts: tuple,
                   p: MaterialParams) -> np.ndarray:
    """R = F_inrt(pts) + elastic, where elastic is K S - L of the stage."""
    _, sigd2, sigdd_q, fp, fpp, _ = pts
    h = fp * sigdd_q
    h += fpp * sigd2
    h *= _rho_wj(space, p.rho)
    R = _vector(space, space.table, h)
    R += elastic
    return R


def stage_tangent(space: FeSpace, pts: tuple, c_dot: float, c: float,
                  p: MaterialParams) -> BandedMatrix:
    """Tangent dR/d(Sdd) at the stage values `pts` for dS = c dSdd and
    dSd = c_dot dSdd; c = c_dot = 0 gives the mass matrix M(S).  Forms
    eps''' from pts, in the caller's error state."""
    sigd_q, sigd2, sigdd_q, fp, fpp, late = pts
    # M + c_dot C_nl + c (K + K_sig), fused in one pass
    h = c_dot * 2.0 * fpp
    h *= sigd_q
    h += fp
    k_sig = fpp * sigdd_q
    k_sig += _third_derivative(late, p) * sigd2
    k_sig *= c
    h += k_sig
    h *= _rho_wj(space, p.rho)
    S = _matrix(space, space.table, h)
    S.ab += _scaled_stiffness(space, c)
    return S
