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
array, whose padded slots stay zero.  All matrices are stored in
LAPACK banded form (half-bandwidth = max cell degree); element
matrices reach it through the table's precomputed scatter index.  The
two boundary DoFs always carry prescribed values, so the integrator
solves only the interior block (BandedMatrix.solve with interior=True)
by direct banded factorization (LAPACK gtsv; gbsv above bandwidth 1 or
1x1).  The kernel assembles its tangent in the storage of the routine
that factors it, which factors it in place at every bandwidth.

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


def _dense_gbmv(m, n, kl, ku, alpha, a, x, incx=1, offx=0, beta=0.0,
                y=None):
    """alpha A x + beta y as _gbmv(m, n, kl, ku, alpha, a, x, incx, offx,
    beta, y) gives it for a square A (kl = ku, incx 1, offx 0), through
    the dense matrix."""
    ax = alpha * (BandedMatrix(n, ku, a).to_dense() @ x)
    return ax if y is None else ax + beta * y


def _gbmv_for(n: int, bw: int):
    """_gbmv for n x n band matrices of half-bandwidth bw, or _dense_gbmv
    below the size the gbmv wrapper accepts (n < 2 bw + 1), which only
    hand-built spaces have."""
    return _gbmv if n >= 2 * bw + 1 else _dense_gbmv


class BandedMatrix:
    """Square matrix in diagonal-ordered banded storage.

    Entry (i, j) with |i - j| <= bandwidth lives at ab[bandwidth + i - j, j],
    LAPACK's band layout with kl = ku = bandwidth; K stores ab
    column-major, as BLAS reads it.  The storage given may also be
    gbsv's: bandwidth zero rows more on top, for the fill-in of its
    factorization, with ab the rows below them.

    `solve` changes no matrix but one its maker marks spendable (the
    private `_spendable`): a stage kernel's tangent, at every bandwidth,
    which the kernel assembles in the storage of the routine that factors
    it (three C-contiguous rows for gtsv at bandwidth 1, gbsv's storage
    above).  That routine factors it in place: it is spent by its solve,
    and its storage then holds the factors.
    """

    _spendable = False

    def __init__(self, n: int, bandwidth: int, ab: np.ndarray):
        self.n = n
        self.bandwidth = bandwidth
        self.lab = ab if len(ab) == 3 * bandwidth + 1 else None
        self.ab = ab if self.lab is None else ab[bandwidth:]

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """A x, one BLAS gbmv."""
        n, bw = self.n, self.bandwidth
        return _gbmv_for(n, bw)(n, n, bw, bw, 1.0, self.ab, x)

    def solve(self, rhs: np.ndarray, interior: bool = False) -> np.ndarray:
        """x with A x = rhs, or with the interior block of A (without its
        first and last rows and columns); np.linalg.LinAlgError if that is
        singular.  Dropping the end columns of the storage leaves the
        couplings to the end rows in slots that the solver never reads.  A
        spendable matrix is factored in place (gtsv's diagonals at
        bandwidth 1, gbsv's storage above); otherwise the routine factors
        a copy, one with fill-in rows for gbsv, and A stays intact."""
        n, bw, ab, lab = self.n, self.bandwidth, self.ab, self.lab
        spend = self._spendable
        if interior:
            n, ab = n - 2, ab[:, 1:-1]
            lab = None if lab is None else lab[:, 1:-1]
        if bw == 1 and n > 1:  # gtsv rejects a 1x1 system's empty bands
            *_, x, info = _gtsv(ab[2, :-1], ab[1], ab[0, 1:], rhs, spend,
                                spend, spend)
        else:
            if lab is None or not spend:
                lab = np.zeros((3 * bw + 1, n), order="F")  # + fill-in rows
                lab[bw:] = ab
            *_, x, info = _gbsv(bw, bw, lab, rhs, overwrite_ab=True)
        if info > 0:
            raise np.linalg.LinAlgError(f"singular matrix (zero pivot {info})")
        return x

    def to_dense(self) -> np.ndarray:
        out = np.zeros((self.n, self.n))
        for i in range(self.n):
            lo, hi = max(0, i - self.bandwidth), min(self.n, i + self.bandwidth + 1)
            for j in range(lo, hi):
                out[i, j] = self.ab[self.bandwidth + i - j, j]
        return out


def _banded(space: FeSpace, t: CellTable, me: np.ndarray) -> BandedMatrix:
    """Sum of the element matrices `me`, one per cell, in banded storage."""
    n, bw = space.n_dofs, space.bandwidth
    ab = np.bincount(t.scatter, weights=me.ravel(), minlength=(2 * bw + 1) * n)
    return BandedMatrix(n, bw, ab.reshape(n, 2 * bw + 1).T)


def assemble_stiffness(space: FeSpace) -> BandedMatrix:
    """Constant stiffness K_IJ = integral N_I' N_J' dx."""
    t = space.table  # dN/dx = dN/d xi / jac
    return _banded(space, t, t.integrate(t.jac[:, None] ** -2.0 * t.wj,
                                         t.dref_outer))


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
    returns (pts, R); `tangent(pts)` is the BandedMatrix dR/dSdd at those
    stage values, and the only reader of eps'''.  c = c_dot = 0 is the
    t = 0 balance, whose tangent is the mass matrix M(S).

    The kernel holds the space's flat DoF index, reference blocks and
    scatter index, K's band and c K, rho wj, the material's Law and c,
    c_dot and 2 c_dot as 0-d arrays, and owns an array for every value
    that `residual` and `tangent` form at the points or per cell, which
    each operation writes into: an iterate allocates only R, the
    tangent's band and gbmv's result.  So `pts` are the kernel's arrays,
    valid until its next `residual` (a Newton iterate's tangent reads
    them first); `stage` returns new arrays, which last through a step.
    The tangent is assembled in the storage of the routine that factors
    it and marked spendable (see BandedMatrix), so its interior solve
    factors it in place.  `worst_node` names, from the node coordinates
    the kernel holds, where a failing iterate's residual is worst.

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
        self.K, self.gbmv = assemble_stiffness(space), _gbmv_for(n, bw)
        # the tangent's storage, that of the routine that factors it: at
        # bandwidth 1 gtsv's three diagonals, each a C-contiguous row;
        # above, gbsv's column-major band, whose top bw rows hold the
        # fill-in of its factorization
        fill, self.order = (0, "C") if bw == 1 else (bw, "F")
        self.shape = (2 * bw + 1 + fill, n)
        col, row = np.divmod(t.scatter, 2 * bw + 1)
        self.scatter = np.ravel_multi_index((row + fill, col), self.shape,
                                            order=self.order)
        self.band = self.shape[0] * n
        self.cK = np.zeros(self.shape, order=self.order)
        self.cK[fill:] = c * self.K.ab
        self.rho_wj, self.x_q, self.pick = p.rho * t.wj, t.x_q, None
        self.x_nodes = space.dof_coords
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
        rest = self.gbmv(n, n, bw, bw, 1.0, self.K.ab, base)
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
        R += self.gbmv(n, n, bw, bw, self.c_scale, self.K.ab, sdd, 1, 0, 1.0,
                       rest)
        return (sigd_q, sigd2, sdd_q, fp, fpp, late), R

    def worst_node(self, R: np.ndarray) -> float:
        """The x of the interior node where the residual R is worst: its
        first entry that is not finite, else its largest |R|.  Formed for
        a failing Newton iterate's message only."""
        r = R[1:-1]
        bad = ~np.isfinite(r)
        i = np.argmax(bad) if bad.any() else np.argmax(np.abs(r))
        return float(self.x_nodes[1 + i])

    def tangent(self, pts: tuple) -> BandedMatrix:
        """dR/d(Sdd) = M + c_dot C_nl + c (K + K_sig) at the stage values
        `pts` of `residual`, forming eps''' from them."""
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
        ab = np.bincount(self.scatter, self.te_flat,
                         self.band).reshape(self.shape, order=self.order)
        ab += self.cK
        tangent = BandedMatrix(self.n, self.bw, ab)
        tangent._spendable = True
        return tangent
