"""1D continuous Lagrange finite element space with per-cell degree.

The mesh is a uniform partition of [0, L].  Each cell carries degree 1,
2 or 3; adjacent cells share exactly one endpoint node, so the space is
C0 regardless of degree mismatch.  Degrees come from one of two
policies: `uniform(p)` everywhere, or `center_graded`, which places
cubic cells in the middle band of the domain (|x/L - 1/2| < 0.2),
quadratic in the next band (< 0.4) and linear outside, judged at cell
midpoints.

Assembly sees the space through one cell table per quadrature order
(`FeSpace.batches`): cells padded to one node and point count share
per-degree reference tables, so each integral is one matrix product.
"""
from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

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
    x, w = np.polynomial.legendre.leggauss(n_points)
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
    dshape    : (n_cells, n_points, n_nodes) basis derivatives d/d xi
    ref       : (n_groups * n_points, n_nodes) basis values, a block per degree
    ref_t     : ref transposed (contiguous)
    ref_outer : (n_groups * n_points, n_nodes**2) products N_i N_j
    pick      : flat index of (cell, point) in its degree block; None if uniform
    scatter   : flat index into banded storage (see BandedMatrix) of each
                (cell, i, j) entry of an element matrix
    """

    dofs: np.ndarray
    jac: np.ndarray
    x_q: np.ndarray
    weights: np.ndarray
    wj: np.ndarray
    dshape: np.ndarray
    ref: np.ndarray
    ref_t: np.ndarray
    ref_outer: np.ndarray
    pick: np.ndarray | None
    scatter: np.ndarray

    def at_points(self, *fields: np.ndarray) -> list[np.ndarray]:
        """Each nodal field at the points, shape (n_cells, n_points)."""
        vals = [f[self.dofs] @ self.ref_t for f in fields]
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
        return hw @ ref


class FeSpace:
    """Immutable mesh + DoF map for 1D C0 Lagrange elements.

    Attributes
    ----------
    cell_edges : (n_cells + 1,) cell boundary coordinates
    degrees    : (n_cells,) polynomial degree per cell
    dof_coords : (n_dofs,) global node coordinates, left to right
    dof_table  : (n_cells, bandwidth + 1) global DoF of each local node,
                 padded by repeating each cell's last DoF
    """

    def __init__(self, cell_edges: np.ndarray, degrees: np.ndarray):
        cell_edges = np.asarray(cell_edges, dtype=float)
        degrees = np.asarray(degrees, dtype=int)
        if len(cell_edges) != len(degrees) + 1:
            raise ValueError("need one more edge than cells")
        if np.any(np.diff(cell_edges) <= 0):
            raise ValueError("cell edges must be strictly increasing")
        if not set(np.unique(degrees)) <= {1, 2, 3}:
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
        self._batch_cache: dict[int, CellTable] = {}
        self._aux_cache: dict = {}

    def cell_containing(self, x) -> np.ndarray:
        """Cell index for each point (boundary points resolve leftward)."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        idx = np.searchsorted(self.cell_edges, x, side="right") - 1
        return np.clip(idx, 0, self.n_cells - 1)

    def batches(self, n_extra: int = 2) -> CellTable:
        """Cell table at a (degree + n_extra)-point rule per cell (cached)."""
        if n_extra in self._batch_cache:
            return self._batch_cache[n_extra]
        bw = self.bandwidth
        m, nn, nq = self.n_cells, bw + 1, bw + n_extra
        degrees, group = np.unique(self.degrees, return_inverse=True)
        # one padded block per degree: points and weights, N and dN/d xi
        rules = np.zeros((2, len(degrees), nq))
        ref = np.zeros((2, len(degrees), nq, nn))
        for g, p in enumerate(degrees):
            rule = gauss_rule(p + n_extra)
            rules[:, g, :p + n_extra] = rule.points, rule.weights
            ref[:, g, :p + n_extra, :p + 1] = lagrange_basis(_LOCAL_NODES[p],
                                                             rule.points)
        xi, weights = rules[:, group]
        dshape, ref = ref[1][group], ref[0].reshape(-1, nn)
        dofs = self.dof_table
        xl, xr = self.cell_edges[:-1], self.cell_edges[1:]
        jac = 0.5 * (xr - xl)
        table = CellTable(
            dofs=dofs,
            jac=jac,
            x_q=0.5 * (xl + xr)[:, None] + jac[:, None] * xi,
            weights=weights,
            wj=weights * jac[:, None],
            dshape=dshape,
            ref=ref,
            ref_t=np.ascontiguousarray(ref.T),
            ref_outer=(ref[:, :, None] * ref[:, None, :]).reshape(len(ref), -1),
            pick=None if len(degrees) == 1 else
            ((np.arange(m) * len(degrees) + group) * nq)[:, None] + np.arange(nq),
            scatter=((bw + dofs[:, :, None] - dofs[:, None, :]) * self.n_dofs
                     + dofs[:, None, :]).ravel())
        self._batch_cache[n_extra] = table
        return table

    def eval_field(self, values: np.ndarray, x) -> np.ndarray:
        """Evaluate the FE field with nodal `values` at physical points.

        `values` (k, n_dofs) stacks k fields, evaluated to (k, n_points).
        """
        x = np.atleast_1d(np.asarray(x, dtype=float))
        values = np.asarray(values, dtype=float)
        cells = self.cell_containing(x)
        degrees = self.degrees[cells]
        out = np.empty(values.shape[:-1] + x.shape)
        for p in set(degrees.tolist()):
            mask = degrees == p
            ks = cells[mask]
            xl = self.cell_edges[ks]
            xr = self.cell_edges[ks + 1]
            # exact -1/+1 when x coincides with a cell edge
            xi = 2.0 * (x[mask] - xl) / (xr - xl) - 1.0
            shp, _ = lagrange_basis(_LOCAL_NODES[p], xi)
            nod = values[..., self.dof_table[ks, :p + 1]]
            out[..., mask] = np.sum(shp * nod, axis=-1)
        return out


def _degrees_center_graded(midpoints: np.ndarray, L: float) -> np.ndarray:
    t = np.abs(midpoints / L - 0.5)
    deg = np.ones(len(midpoints), dtype=int)
    deg[t < 0.4] = 2
    deg[t < 0.2] = 3
    return deg


def build_space(L: float, n_cells: int, policy: str = "uniform(1)") -> FeSpace:
    """Build the space on [0, L] with the given degree policy.

    `policy` is either "uniform(p)" with p in {1, 2, 3} or
    "center_graded".
    """
    if L <= 0:
        raise ValueError(f"L must be positive, got {L}")
    if n_cells < 2:
        raise ValueError(f"n_cells must be >= 2, got {n_cells}")
    edges = np.linspace(0.0, L, n_cells + 1)
    m = re.fullmatch(r"uniform\((\d)\)", policy.strip())
    if m:
        p = int(m.group(1))
        if p not in (1, 2, 3):
            raise ValueError(f"uniform degree must be 1, 2 or 3, got {p}")
        degrees = np.full(n_cells, p, dtype=int)
    elif policy.strip() == "center_graded":
        midpoints = 0.5 * (edges[:-1] + edges[1:])
        degrees = _degrees_center_graded(midpoints, L)
    else:
        raise ValueError(f"unknown degree policy {policy!r}")
    return FeSpace(edges, degrees)
