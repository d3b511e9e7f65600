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
time scheme that picks the stage, c and c_dot lives in the integrator,
which builds one StageKernel per step size; this module only integrates
in space, in a kernel that binds every per-run constant of its space,
material and (c, c_dot) once, its own stiffness K included, and owns
an array for every value an iterate forms at the points or per cell.
Residual and tangent share one evaluation of the stage at the points
(eps''' is formed in the tangent only), and its elastic term K S - L is
one BLAS gbmv.

Every integral is one matrix product over the space's cell table
(FeSpace.table, the kernel's reference blocks), whose padded nodes and
points add zero.  On a space of mixed degrees, where that table pads
each cell to the largest point count, the kernel works on the real
points only: the law and the integrands are evaluated there, and each
integrand is written into the real slots of the kernel's degree-block
array, whose padded slots stay zero.  Matrices are stored in LAPACK's
band layout (half-bandwidth bw = max cell degree, entry (i, j) in row
bw + i - j of column j); element matrices reach it through the table's
precomputed scatter index.  The two boundary DoFs always carry
prescribed values, so a Newton update solves only the interior block,
by direct banded factorization (LAPACK gtsv; gbsv above bandwidth 1 or
1x1).  The kernel writes its tangent into a band of its own, in the
storage of that routine, and StageKernel.solve, the one band solve,
factors it in place.

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

import numpy as np
import scipy

from .constitutive import MaterialParams
from .fe_space import FeSpace


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


class SingularMatrixError(np.linalg.LinAlgError):
    """A band factorization met an exactly zero pivot (LAPACK's 1-based
    `pivot`) in the column of the system solved whose node is at `x`."""

    def __init__(self, pivot: int, x: float):
        super().__init__(f"singular matrix (zero pivot {pivot})")
        self.x = x


def assemble_stiffness(space: FeSpace) -> np.ndarray:
    """Constant stiffness K_IJ = integral N_I' N_J' dx in the band storage
    that BLAS gbmv reads: column-major (2 bw + 1, n), entry (i, j) at
    [bw + i - j, j], bw the space's bandwidth."""
    n, bw = space.n_dofs, space.bandwidth
    t = space.table  # dN/dx = dN/d xi / jac
    me = t.integrate(t.jac[:, None] ** -2.0 * t.wj, t.dref_outer)
    ab = np.bincount(t.scatter, weights=me.ravel(), minlength=(2 * bw + 1) * n)
    return ab.reshape(n, 2 * bw + 1).T


def assemble_load_at(space: FeSpace, forcing, times) -> np.ndarray:
    """L_I(t) = integral forcing(x, t) N_I dx, one row per time of the 1-D
    `times`, from one forcing call with t of shape (len(times), 1, 1)."""
    t, k = space.table, len(times)
    f = forcing(t.x_q, np.asarray(times, dtype=float)[:, None, None])
    fe = t.integrate(np.broadcast_to(f, (k,) + t.x_q.shape) * t.wj, t.ref)
    rows = np.arange(k)[:, None] * space.n_dofs + t.dofs.ravel()
    return np.bincount(rows.ravel(), weights=fe.ravel(),
                       minlength=k * space.n_dofs).reshape(k, -1)


class StageKernel:
    """The residual and tangent of a stage, with every per-run constant of
    one space, material and pair (c, c_dot) bound once.

    A stage is S = base + c Sdd, Sd = base_dot + c_dot Sdd as functions of
    the acceleration Sdd.  `stage` takes a step's bases to the points and
    forms its elastic term K base - load, once per step; it carries the
    step's time, which the guard's HyperbolicityError names.  `residual` then
    evaluates the stage of one Sdd at the points, law included, and
    returns (pts, R); `band(pts)` writes dR/dSdd at those stage values
    into the kernel's band, the only reader of eps''', whose rows from
    `fill` on hold it in K's layout; `solve(pts, r)` factors its interior
    in place to the Newton update.  c = c_dot = 0 is the t = 0 balance,
    whose tangent is the mass matrix M(S).

    The kernel holds the space's flat DoF index, reference blocks and
    scatter index, K's band and c K, rho wj, the material's Law and c,
    c_dot and 2 c_dot as 0-d arrays, and owns an array for every value
    that `residual` and `band` form at the points or per cell, which each
    operation writes into, and the band itself: an iterate allocates only
    R, gbmv's result and the tangent's bincount, and its update
    overwrites r.  So `pts` are the kernel's arrays, valid until its next
    `residual` (a Newton iterate's tangent reads them first); `stage`
    returns new arrays, which last through a step.  The band is in the
    storage of the routine that factors it (gtsv's three C-contiguous
    rows at bandwidth 1, gbsv's column-major rows above), whose operands
    for the interior block are bound once.  `worst_node` names,
    from the node coordinates the kernel holds, where a failing iterate's
    residual is worst, and a zero pivot's SingularMatrixError its node.

    On a space of mixed degrees it works on the real quadrature points
    only (the table's padded points weigh 0): `pick` is their flat index
    into a cell's degree blocks, rho wj and the points x are theirs, and
    it owns a zero degree-block array, into whose real slots each
    integrand is written; the padded slots are never written.  Dropping
    exact zeros keeps every sum's terms in order, so the results are
    those of the padded table bit for bit.  Its methods run in the
    caller's error state (a run's one scope).
    """

    def __init__(self, space: FeSpace, p: MaterialParams, c: float = 0.0,
                 c_dot: float = 0.0):
        t = space.table
        self.law, self.rho = p.law, p.rho
        n, bw = self.n, self.bw = space.n_dofs, space.bandwidth
        self.dofs, self.flat_dofs = t.dofs, t.dofs.ravel()
        self.ref, self.ref_t, self.ref_outer = t.ref, t.ref_t, t.ref_outer
        self.K = assemble_stiffness(space)
        # the band's storage, that of the routine that factors its interior:
        # gtsv's three C-contiguous rows at bandwidth 1, else (and for the
        # 1x1 interior of two linear cells) gbsv's, with bw fill-in rows
        self.fill, order = (0, "C") if bw == 1 and n > 3 else (bw, "F")
        shape = (2 * bw + 1 + self.fill, n)
        col, row = np.divmod(t.scatter, 2 * bw + 1)
        self.scatter = np.ravel_multi_index((row + self.fill, col), shape,
                                            order=order)
        cK = np.zeros(shape, order=order)
        cK[self.fill:] = c * self.K
        # the band (and flat, in its order), and its interior's operands:
        # gtsv's three diagonals, or gbsv's (kl, ku, ab); the end rows'
        # couplings stay in slots that the routine never reads
        self.ab = np.empty_like(cK)
        self.ab_flat, self.cK_flat = (a.reshape(-1, order=order)
                                      for a in (self.ab, cK))
        inner = self.ab[:, 1:-1]
        self.interior = ((bw, bw, inner) if self.fill else
                         (inner[2, :-1], inner[1], inner[0, 1:]))
        self.rho_wj, self.x_q, self.pick = p.rho * t.wj, t.x_q, None
        self.x_inner = space.dof_coords[1:-1]
        shape = t.x_q.shape
        if t.pick is not None:  # mixed degrees: the real points only
            real = np.flatnonzero(t.weights)  # padded points weigh 0
            self.pick = t.pick.ravel()[real]
            self.rho_wj = self.rho_wj.ravel()[real]
            self.x_q, shape = t.x_q.ravel()[real], real.shape
            # each cell's degree blocks: values at all their points, and
            # the integrand, whose padded slots stay 0
            self.at_blocks = np.empty((space.n_cells, len(t.ref)))
            self.block = np.zeros_like(self.at_blocks)
            self.at_flat, self.block_flat = (
                self.at_blocks.reshape(-1), self.block.reshape(-1))
        # the work arrays: the stage at the points (sigma_ddot, sigma,
        # sigma_dot, sigma_dot^2), the integrands h and k_sig, eps''', a
        # scratch, the law's factors; per cell, Sdd at the nodes and the
        # element blocks of the residual and the tangent
        (self.sdd_q, self.sig_q, self.sigd_q, self.sigd2, self.h, self.k_sig,
         fppp, self.tmp, *law) = np.empty((15,) + shape)
        self.law_out, self.third_out = law + [self.tmp], [fppp, self.tmp]
        self.cell_sdd, self.fe = np.empty((2,) + t.dofs.shape)
        self.te = np.empty((len(t.dofs), t.ref_outer.shape[1]))
        self.fe_flat, self.te_flat = self.fe.reshape(-1), self.te.reshape(-1)
        self.c_scale = c  # the gbmv scale
        self.c, self.c_dot, self.c_dot2 = (np.array(v) for v in
                                           (c, c_dot, c_dot * 2.0))

    def stage(self, base: np.ndarray, base_dot: np.ndarray,
              load: np.ndarray | float, t: float | None = None) -> tuple:
        """(base and base_dot at the points, K base - load, t) of the step
        to time t, which the guard's error names (None: no time)."""
        q = [f.take(self.dofs).dot(self.ref_t) for f in (base, base_dot)]
        if self.pick is not None:
            q = [v.ravel()[self.pick] for v in q]
        n, bw = self.n, self.bw
        rest = _gbmv(n, n, bw, bw, 1.0, self.K, base)
        rest -= load
        return q[0], q[1], rest, t

    def residual(self, stage: tuple, sdd: np.ndarray) -> tuple:
        """(pts, R): the stage values at the points, (sigma_dot,
        sigma_dot^2, sigma_ddot, eps', eps'', the factors of eps'''), and
        R = F_inrt(pts) + K (base + c sdd) - load.  Raises
        HyperbolicityError where eps' <= 0 or rho eps' underflows to 0."""
        base_q, base_dot_q, rest, t = stage
        sdd_q, sig_q, sigd_q, sigd2, h, tmp = (
            self.sdd_q, self.sig_q, self.sigd_q, self.sigd2, self.h, self.tmp)
        sdd.take(self.dofs, None, self.cell_sdd, "clip")
        if self.pick is None:
            self.cell_sdd.dot(self.ref_t, sdd_q)
        else:
            self.cell_sdd.dot(self.ref_t, self.at_blocks)
            self.at_flat.take(self.pick, None, sdd_q, "clip")
        np.multiply(self.c, sdd_q, sig_q)
        sig_q += base_q
        np.multiply(self.c_dot, sdd_q, sigd_q)
        sigd_q += base_dot_q
        fp, fpp, fp_min, late = self.law.derivatives(sig_q, self.law_out)
        if self.rho * fp_min <= 0.0:  # eps' <= 0, or rho eps' underflows
            i = np.argmin(fp)  # flat index of the first point of least eps'
            raise self.law.lost(fp.flat[i], float(sig_q.flat[i]),
                                float(self.x_q.flat[i]), t)
        np.square(sigd_q, sigd2)
        np.multiply(fp, sdd_q, h)
        h += np.multiply(fpp, sigd2, tmp)
        h *= self.rho_wj
        if self.pick is not None:  # each cell's values in its degree block
            self.block_flat[self.pick] = h
            h = self.block
        h.dot(self.ref, self.fe)
        n, bw = self.n, self.bw
        R = np.bincount(self.flat_dofs, self.fe_flat, n)
        R += _gbmv(n, n, bw, bw, self.c_scale, self.K, sdd, 1, 0, 1.0, rest)
        return (sigd_q, sigd2, sdd_q, fp, fpp, late), R

    def worst_node(self, R: np.ndarray) -> float:
        """The x of the interior node where the residual R is worst: its
        first entry that is not finite, else its largest |R|.  Formed for
        a failing Newton iterate's message only."""
        r = R[1:-1]
        bad = ~np.isfinite(r)
        i = np.argmax(bad) if bad.any() else np.argmax(np.abs(r))
        return float(self.x_inner[i])

    def band(self, pts: tuple) -> np.ndarray:
        """dR/d(Sdd) = M + c_dot C_nl + c (K + K_sig) at the stage values
        `pts` of `residual`, forming eps''' from them, written into the
        kernel's band `ab` (the storage of the routine that factors it)."""
        sigd_q, sigd2, sigdd_q, fp, fpp, late = pts
        h, k_sig = self.h, self.k_sig
        np.multiply(self.c_dot2, fpp, h)
        h *= sigd_q
        h += fp
        np.multiply(fpp, sigdd_q, k_sig)
        fppp = self.law.third(late, self.third_out)
        fppp *= sigd2
        k_sig += fppp
        k_sig *= self.c
        h += k_sig
        h *= self.rho_wj
        if self.pick is not None:
            self.block_flat[self.pick] = h
            h = self.block
        h.dot(self.ref_outer, self.te)
        np.add(np.bincount(self.scatter, self.te_flat, self.ab_flat.size),
               self.cK_flat, self.ab_flat)
        return self.ab

    def solve(self, pts: tuple, r: np.ndarray) -> np.ndarray:
        """x with T x = r, T the interior block of the tangent at `pts`:
        the Newton update, written into the contiguous r, with the band
        factored in place; SingularMatrixError names a zero pivot's node."""
        self.band(pts)
        if self.fill:
            *_, x, info = _gbsv(*self.interior, r, True, True)
        else:
            *_, x, info = _gtsv(*self.interior, r, True, True, True, True)
        if info > 0:
            raise SingularMatrixError(info, float(self.x_inner[info - 1]))
        return x
