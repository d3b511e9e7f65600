"""1D continuous Lagrange finite element space with per-cell degree.

The mesh is a uniform partition of [0, L].  Each cell carries degree 1,
2 or 3; adjacent cells share exactly one endpoint node, so the space is
C0 regardless of degree mismatch.  Degrees come from one of two
policies: `uniform(p)` everywhere, or `center_graded`, which places
cubic cells in the middle band of the domain (|x/L - 1/2| < 0.2),
quadratic in the next band (< 0.4) and linear outside, judged at cell
midpoints.

Assembly sees the space through its cell table (`FeSpace.table`, built
with the space at a degree+2 rule): cells padded to one node and point
count share per-degree reference tables, so each integral is one matrix
product.  `cell_table` builds the table at another rule.
"""
from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

# Local node coordinates on [-1, 1].  Gauss-Lobatto for p >= 2 (better
# conditioned than equispaced; coincides for p <= 2).
_LOCAL_NODES = {
    1: np.array([-1.0, 1.0]),
    2: np.array([-1.0, 0.0, 1.0]),
    3: np.array([-1.0, -1.0 / np.sqrt(5.0), 1.0 / np.sqrt(5.0), 1.0]),
}


@dataclass(frozen=True)
class QuadratureRule:
    """Gauss-Legendre points and weights on the reference cell [-1, 1]."""

    points: np.ndarray
    weights: np.ndarray


def gauss_rule(n_points: int) -> QuadratureRule:
    """Gauss-Legendre rule, exact for polynomials of degree <= 2n - 1."""
    if not 1 <= n_points <= 10:
        raise ValueError(f"n_points must be in [1, 10], got {n_points}")
    x, w = leggauss(n_points)
    return QuadratureRule(points=x, weights=w)


def lagrange_basis(nodes: np.ndarray, points) -> tuple[np.ndarray, np.ndarray]:
    """Values and derivatives of the Lagrange basis on `nodes`.

    Returns (values, derivs), each of shape (n_points, n_nodes).
    """
    nodes = np.asarray(nodes, dtype=float)
    pts = np.atleast_1d(np.asarray(points, dtype=float))
    nn = len(nodes)
    vals = np.empty((len(pts), nn))
    ders = np.empty((len(pts), nn))
    for i in range(nn):
        others = [j for j in range(nn) if j != i]
        denom = np.prod([nodes[i] - nodes[j] for j in others])
        vals[:, i] = np.prod([pts - nodes[j] for j in others], axis=0) / denom
        der = np.zeros_like(pts)
        for k in others:
            rest = [j for j in others if j != k]
            if rest:
                der += np.prod([pts - nodes[j] for j in rest], axis=0)
            else:
                der += 1.0
        ders[:, i] = der / denom
    return vals, ders


@dataclass(frozen=True)
class CellTable:
    """Quadrature data of all cells at one rule, padded to a common size.

    Every cell has bandwidth + 1 local nodes and bandwidth + n_extra
    points.  A cell of lower degree p uses its own (p + n_extra)-point
    rule in the leading slots; its padded nodes have zero shape values
    and repeat the cell's last DoF, and its padded points have zero
    weight and sit at the cell midpoint.  Uniform meshes get no padding.

    dofs      : (n_cells, n_nodes) global DoF of each local node
    jac       : (n_cells,) half cell width, d x / d xi
    x_q       : (n_cells, n_points) physical point coordinates
    weights   : (n_cells, n_points) reference weights
    wj        : (n_cells, n_points) physical weights, weights * jac
    ref       : (n_groups * n_points, n_nodes) basis values, a block per degree
    ref_t     : ref transposed (contiguous)
    ref_outer : (n_groups * n_points, n_nodes**2) products N_i N_j
    dref_outer: (n_groups * n_points, n_nodes**2) products dN_i/d xi dN_j/d xi
    pick      : flat index of (cell, point) in its degree block; None if uniform
    scatter   : flat index into banded storage (see BandedMatrix) of each
                (cell, i, j) entry of an element matrix
    """

    dofs: np.ndarray
    jac: np.ndarray
    x_q: np.ndarray
    weights: np.ndarray
    wj: np.ndarray
    ref: np.ndarray
    ref_t: np.ndarray
    ref_outer: np.ndarray
    dref_outer: np.ndarray
    pick: np.ndarray | None
    scatter: np.ndarray

    def at_points(self, *fields: np.ndarray) -> list[np.ndarray]:
        """Each nodal field at the points, shape (n_cells, n_points)."""
        vals = [f[self.dofs].dot(self.ref_t) for f in fields]
        return vals if self.pick is None else [v.ravel()[self.pick] for v in vals]

    def integrate(self, h: np.ndarray, ref: np.ndarray) -> np.ndarray:
        """Per-cell sums over the points of h * wj times the rows of the
        reference table `ref`, for h of shape (..., n_cells, n_points)."""
        hw = h * self.wj
        if self.pick is not None:  # each cell's values in its degree block
            full = np.zeros(hw.shape[:-1] + (len(ref),))
            rows = (slice(None),) * (hw.ndim - 2)  # leading axes, if any
            full.reshape(hw.shape[:-2] + (-1,))[rows + (self.pick,)] = hw
            hw = full
        # ndarray.dot costs less than @ in 2-D but loops per entry in 3-D
        return hw.dot(ref) if hw.ndim == 2 else hw @ ref


class FeSpace:
    """Mesh + DoF map for 1D C0 Lagrange elements, complete when built;
    nothing writes to a space afterwards.  Spaces hash by identity, which
    the per-space caches of assembly and postprocess rely on.

    Attributes
    ----------
    cell_edges : (n_cells + 1,) finite, strictly increasing cell boundaries
    degrees    : (n_cells,) polynomial degree per cell
    dof_coords : (n_dofs,) global node coordinates, left to right
    dof_table  : (n_cells, bandwidth + 1) global DoF of each local node,
                 padded by repeating each cell's last DoF
    table      : CellTable at the (degree + 2)-point rule, which assembly uses
    """

    def __init__(self, cell_edges: np.ndarray, degrees: np.ndarray):
        cell_edges = np.asarray(cell_edges, dtype=float)
        degrees = np.asarray(degrees, dtype=int)
        if len(cell_edges) != len(degrees) + 1:
            raise ValueError("need one more edge than cells")
        if not (np.all(np.isfinite(cell_edges))
                and np.all(np.diff(cell_edges) > 0)):
            raise ValueError("cell edges must be finite and strictly increasing")
        if not set(degrees.tolist()) <= {1, 2, 3}:
            raise ValueError("cell degrees must be 1, 2 or 3")

        self.cell_edges = cell_edges
        self.degrees = degrees
        self.n_cells = len(degrees)
        self.x_left = float(cell_edges[0])
        self.x_right = float(cell_edges[-1])

        self.bandwidth = int(degrees.max())
        first = np.concatenate([[0], np.cumsum(degrees)])  # first DoF of each cell
        self.n_dofs = int(first[-1]) + 1
        self.dof_table = first[:-1, None] + np.minimum(
            np.arange(self.bandwidth + 1), degrees[:, None])
        mid = 0.5 * (cell_edges[:-1] + cell_edges[1:])
        half = 0.5 * (cell_edges[1:] - cell_edges[:-1])
        self.dof_coords = np.concatenate([[self.x_left]] + [
            m + h * _LOCAL_NODES[p][1:] for m, h, p in zip(mid, half, degrees)])
        self.table = cell_table(self, 2)

    def cell_containing(self, x) -> np.ndarray:
        """Cell index for each point: an interior edge x_k lies in cell k,
        on its right, and x = L (no cell on its right) in the last cell."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        idx = np.searchsorted(self.cell_edges, x, side="right") - 1
        return np.clip(idx, 0, self.n_cells - 1)

    def evaluator(self, x):
        """f(values): fields with nodal `values` (k, n_dofs) at points x, as
        (k, n_points).  The cells and basis values of x are found once here;
        each point sums its cell's p + 1 nodal terms in node order."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        cells = self.cell_containing(x)
        degrees = self.degrees[cells]
        groups = []  # per degree: point indices, (p + 1, k) DoFs and basis;
        # the sum over the node axis then adds whole rows in node order
        for p in set(degrees.tolist()):
            idx = np.flatnonzero(degrees == p)
            ks = cells[idx]
            xl = self.cell_edges[ks]
            xr = self.cell_edges[ks + 1]
            # exact -1/+1 when x coincides with a cell edge
            xi = 2.0 * (x[idx] - xl) / (xr - xl) - 1.0
            shp, _ = lagrange_basis(_LOCAL_NODES[p], xi)
            groups.append((idx, self.dof_table[ks, :p + 1].T.copy(), shp.T.copy()))

        def at_points(values: np.ndarray) -> np.ndarray:
            values = np.asarray(values, dtype=float)
            out = np.empty(values.shape[:-1] + x.shape)
            for idx, dofs, shape in groups:
                out[..., idx] = np.sum(shape * values.take(dofs, axis=-1), axis=-2)
            return out
        return at_points


def cell_table(space: FeSpace, n_extra: int) -> CellTable:
    """Cell table of `space` at a (degree + n_extra)-point rule per cell."""
    bw = space.bandwidth
    m, nn, nq = space.n_cells, bw + 1, bw + n_extra
    degrees, group = np.unique(space.degrees, return_inverse=True)
    # one padded block per degree: points and weights, N and dN/d xi
    rules = np.zeros((2, len(degrees), nq))
    ref = np.zeros((2, len(degrees), nq, nn))
    for g, p in enumerate(degrees):
        rule = gauss_rule(p + n_extra)
        rules[:, g, :p + n_extra] = rule.points, rule.weights
        ref[:, g, :p + n_extra, :p + 1] = lagrange_basis(_LOCAL_NODES[p],
                                                         rule.points)
    xi, weights = rules[:, group]
    ref, dref = ref.reshape(2, -1, nn)
    dofs = space.dof_table
    xl, xr = space.cell_edges[:-1], space.cell_edges[1:]
    jac = 0.5 * (xr - xl)
    return CellTable(
        dofs=dofs,
        jac=jac,
        x_q=0.5 * (xl + xr)[:, None] + jac[:, None] * xi,
        weights=weights,
        wj=weights * jac[:, None],
        ref=ref,
        ref_t=np.ascontiguousarray(ref.T),
        ref_outer=(ref[:, :, None] * ref[:, None, :]).reshape(len(ref), -1),
        dref_outer=(dref[:, :, None] * dref[:, None, :]).reshape(len(ref), -1),
        pick=None if len(degrees) == 1 else
        ((np.arange(m) * len(degrees) + group) * nq)[:, None] + np.arange(nq),
        scatter=(dofs[:, None, :] * (2 * bw + 1) + bw
                 + dofs[:, :, None] - dofs[:, None, :]).ravel())


def uniform_mesh(L: float, n_cells: int,
                 policy: str = "uniform(1)") -> tuple[np.ndarray, np.ndarray]:
    """Cell edges and degrees of the uniform mesh of [0, L] with n_cells.

    `policy` is either "uniform(p)" with p in {1, 2, 3} or
    "center_graded", which is judged at cell midpoints.
    """
    if not 0 < L < np.inf:  # nan and inf too
        raise ValueError(f"L must be {'finite' if L > 0 else 'positive'}, got {L}")
    if n_cells < 2:
        raise ValueError(f"n_cells must be >= 2, got {n_cells}")
    edges = np.linspace(0.0, L, n_cells + 1)
    m = re.fullmatch(r"uniform\((\d)\)", policy.strip())
    if m:
        p = int(m.group(1))
        if p not in (1, 2, 3):
            raise ValueError(f"uniform degree must be 1, 2 or 3, got {p}")
        return edges, np.full(n_cells, p, dtype=int)
    if policy.strip() != "center_graded":
        raise ValueError(f"unknown degree policy {policy!r}")
    t = np.abs(0.5 * (edges[:-1] + edges[1:]) / L - 0.5)
    degrees = np.ones(n_cells, dtype=int)
    degrees[t < 0.4] = 2
    degrees[t < 0.2] = 3
    return edges, degrees


def build_space(L: float, n_cells: int, policy: str = "uniform(1)") -> FeSpace:
    """The space of uniform_mesh(L, n_cells, policy)."""
    return FeSpace(*uniform_mesh(L, n_cells, policy))
