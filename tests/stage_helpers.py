"""Stages for tests: a step's stage kernel as functions of the
acceleration, built from the Newmark relations of state_helpers; a
singular tangent for the solver's failure path; a band's dense form and
its BLAS product; and references for a stage's residual and tangent built
from the public law (constitutive.derivatives) and the cell table, one
integral of the weak form at a time.

A band is an array in LAPACK's layout, the storage of assemble_stiffness:
2 bw + 1 rows, entry (i, j) at [bw + i - j, j]."""
import numpy as np
from scipy.linalg.blas import dgbmv

from stresswave.assembly import StageKernel, assemble_stiffness
from stresswave.constitutive import HyperbolicityError, derivatives
from stresswave.fe_space import gauss_rule, lagrange_basis

from state_helpers import newmark_update


def stage_weights(hht):
    """(c, c_dot) = (1+alpha) (beta dt^2, gamma dt): how a step's stage
    stress and rate move with its acceleration."""
    w = 1.0 + hht.alpha
    return w * hht.beta_nm * hht.dt**2, w * hht.gamma_nm * hht.dt


def step_system(state_n, space, hht, p, load=0.0):
    """(residual, tangent) of the step from state_n: residual(sdd) is
    (pts, R) and tangent(pts) the dense dR/dSdd, from a stage
    kernel at the step's stage_weights whose bases are (1+alpha) pred -
    alpha (S_n, Sd_n), pred the Newmark update of a zero acceleration.
    `load` is the stage load (1+alpha) L_{n+1} - alpha L_n."""
    a = hht.alpha
    kernel = StageKernel(space, p, *stage_weights(hht))
    pred = newmark_update(state_n, 0.0, hht)
    stage = kernel.stage((1 + a) * pred[0] - a * state_n.Sigma,
                         (1 + a) * pred[1] - a * state_n.Sigma_dot, load)
    return ((lambda sdd: kernel.residual(stage, sdd)),
            (lambda pts: dense_tangent(kernel, pts)))


def dense_tangent(kernel, pts):
    """The n x n tangent dR/dSdd of the stage kernel at `pts`, read from
    the band it writes (StageKernel.band, the rows from its `fill` on)."""
    return to_dense(kernel.band(pts)[kernel.fill:])


def singular_tangent(monkeypatch, node):
    """Zero column `node` of every step's tangent (not of the t = 0 mass
    matrix, whose c is 0), so that its interior factorization meets an
    exactly zero pivot there: pivot `node` of the interior system."""
    band = StageKernel.band

    def singular_band(kernel, pts):
        ab = band(kernel, pts)
        if kernel.c != 0.0:
            ab[:, node] = 0.0
        return ab

    monkeypatch.setattr(StageKernel, "band", singular_band)


def to_dense(ab: np.ndarray) -> np.ndarray:
    """The n x n matrix of the band ab."""
    bw, n = (len(ab) - 1) // 2, ab.shape[1]
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(max(0, i - bw), min(n, i + bw + 1)):
            out[i, j] = ab[bw + i - j, j]
    return out


def band_product(ab: np.ndarray, x: np.ndarray) -> np.ndarray:
    """ab x by BLAS gbmv, the routine the stage kernel forms K products
    with, so bit for bit its products (n >= 2 bw + 1)."""
    bw, n = (len(ab) - 1) // 2, ab.shape[1]
    return dgbmv(n, n, bw, bw, 1.0, ab, x)


def banded(space, me: np.ndarray) -> np.ndarray:
    """The band of the sum of the element matrices `me`, one per cell of
    `space`, scattered by its cell table."""
    n, bw = space.n_dofs, space.bandwidth
    ab = np.bincount(space.table.scatter, me.ravel(),
                     minlength=(2 * bw + 1) * n)
    return ab.reshape(n, -1).T


def reference_residual(space, Sigma, Sigma_dot, Sigma_ddot, p, elastic=0.0):
    """F_inrt + elastic, with F_inrt_I = integral rho [eps'(s) s_ddot +
    eps''(s) s_dot^2] N_I dx at the nodal stage (Sigma, Sigma_dot,
    Sigma_ddot)."""
    t = space.table
    s, sd, sdd = t.at_points(Sigma, Sigma_dot, Sigma_ddot)
    fp, fpp, _ = derivatives(s, p)
    fe = t.integrate(p.rho * (fp * sdd + fpp * sd**2) * t.wj, t.ref)
    return np.bincount(t.dofs.ravel(), fe.ravel(),
                       minlength=space.n_dofs) + elastic


def reference_tangent(space, Sigma, Sigma_dot, Sigma_ddot, p, c_dot=0.0,
                      c=0.0):
    """M(S) + c_dot C_nl + c (K + K_sig) at the nodal stage, as a band;
    the mass matrix M(S) at c = c_dot = 0."""
    t = space.table
    s, sd, sdd = t.at_points(Sigma, Sigma_dot, Sigma_ddot)
    fp, fpp, fppp = derivatives(s, p)
    h = fp + c_dot * 2.0 * fpp * sd + c * (fpp * sdd + fppp * sd**2)
    me = t.integrate(p.rho * h * t.wj, t.ref_outer)
    return banded(space, me) + c * assemble_stiffness(space)


def per_cell_stage(space, base, base_dot, sdd, load, p, c, c_dot):
    """(R, dense tangent) of the stage S = base + c sdd, Sd = base_dot +
    c_dot sdd by a loop over cells: each cell's (degree + 2)-point rule and
    basis, the law from `derivatives` at its points.  Raises the stage
    guard's HyperbolicityError at the point of least eps'."""
    n = space.n_dofs
    S, Sd = base + c * sdd, base_dot + c_dot * sdd
    R, T, K = np.zeros(n), np.zeros((n, n)), np.zeros((n, n))
    least = (np.inf, None, None)  # eps', sigma and x of the least eps'
    for k, deg in enumerate(space.degrees):
        dofs = space.dof_table[k, :deg + 1]
        xl, xr = space.cell_edges[k], space.cell_edges[k + 1]
        jac = 0.5 * (xr - xl)
        rule = gauss_rule(deg + 2)
        shp, dshp = lagrange_basis((space.dof_coords[dofs] - xl) / jac - 1.0,
                                   rule.points)
        wj = rule.weights * jac
        s, sd, sa = shp @ S[dofs], shp @ Sd[dofs], shp @ sdd[dofs]
        fp, fpp, fppp = derivatives(s, p)
        i = np.argmin(fp)
        if fp[i] < least[0]:
            least = (fp[i], s[i], 0.5 * (xl + xr) + jac * rule.points[i])
        inertial = p.rho * (fp * sa + fpp * sd**2) * wj
        mass = p.rho * (fp + c_dot * 2.0 * fpp * sd
                        + c * (fpp * sa + fppp * sd**2)) * wj
        block = np.ix_(dofs, dofs)
        R[dofs] += shp.T @ inertial
        T[block] += (shp * mass[:, None]).T @ shp
        K[block] += (dshp * (wj / jac**2)[:, None]).T @ dshp
    f = least[0]
    if not p.rho * f > 0.0:
        why = "<= 0" if f <= 0.0 else f"times rho={p.rho:.3e} underflows to 0"
        raise HyperbolicityError(
            f"tangent compliance {f:.3e} {why} at sigma={least[1]:.6g} "
            f"(quadrature point x={least[2]:.6g})")
    return R + K @ S - load, T + c * K
