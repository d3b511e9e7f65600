r"""Kinematic reconstruction and snapshot output.

The solver carries only the stress field; displacement and particle
velocity are recovered on a uniform sampling grid by trapezoidal
integration of the strain and strain rate, anchored at u(0) = v(0) = 0:

    eps_i     = eps(sigma_i)
    u_i       = u_{i-1} + (eps_i + eps_{i-1}) dx / 2
    epsdot_i  = eps'(sigma_i) sigmadot_i
    v_i       = v_{i-1} + (epsdot_i + epsdot_{i-1}) dx / 2
    c_i       = sqrt(1 / (rho eps'(sigma_i)))

Output is CSV with a header row, rows ended by \r\n and every float as
"%.17g", which reads back to the same float: snapshot_t<t to 6
decimals>.csv holds x,sigma,u,v,eps,c and spacetime.csv stacks every
snapshot's rows, each prefixed by t.  What depends only on the sample
points is done once per run: their cells and basis values are cached per
space, and the x column is formatted once per x.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

from .constitutive import MaterialParams, derivatives, strain, wave_speed
from .fe_space import FeSpace


@dataclass(frozen=True)
class Samples:
    """FE solution sampled on a uniform grid of M+1 points."""

    x: np.ndarray
    sigma: np.ndarray
    sigma_dot: np.ndarray


@dataclass(frozen=True)
class SnapshotRecord:
    """Sampled stress plus reconstructed kinematic fields."""

    x: np.ndarray
    sigma: np.ndarray
    sigma_dot: np.ndarray
    u: np.ndarray
    v: np.ndarray
    eps: np.ndarray
    c: np.ndarray


def sample_solution(space: FeSpace, Sigma: np.ndarray, Sigma_dot: np.ndarray,
                    M: int) -> Samples:
    """Evaluate the FE fields at M+1 uniformly spaced points (cached per space and M)."""
    if M < 1:
        raise ValueError(f"M must be >= 1, got {M}")
    if ("samples", M) not in space._aux_cache:
        x = np.linspace(space.x_left, space.x_right, M + 1)
        x.flags.writeable = False
        space._aux_cache["samples", M] = x, space.evaluator(x)
    x, at_x = space._aux_cache["samples", M]
    sigma, sigma_dot = at_x(np.array([Sigma, Sigma_dot]))
    return Samples(x=x, sigma=sigma, sigma_dot=sigma_dot)


def reconstruct(samples: Samples, p: MaterialParams) -> SnapshotRecord:
    """Strain, displacement, particle velocity and wave speed from samples."""
    dx = np.diff(samples.x)
    if not np.allclose(dx, dx[0], rtol=1e-10, atol=0.0):
        raise ValueError("sample spacing must be uniform")
    eps = np.asarray(strain(samples.sigma, p))
    fp = np.asarray(derivatives(samples.sigma, p)[0])
    c = np.asarray(wave_speed(samples.sigma, p, fp))
    eps_dot = fp * samples.sigma_dot

    u = np.zeros_like(eps)
    v = np.zeros_like(eps)
    u[1:] = np.cumsum(0.5 * (eps[1:] + eps[:-1]) * dx)
    v[1:] = np.cumsum(0.5 * (eps_dot[1:] + eps_dot[:-1]) * dx)
    return SnapshotRecord(x=samples.x, sigma=samples.sigma,
                          sigma_dot=samples.sigma_dot,
                          u=u, v=v, eps=eps, c=c)


def snapshot_filename(t: float) -> str:
    return f"snapshot_t{t:.6f}.csv"


@lru_cache(maxsize=1)  # a run writes every snapshot at the same x
def _row_template(x: bytes) -> str:
    """Rows with x (float64 bytes) formatted, five %.17g slots each."""
    xs = np.frombuffer(x).tolist()
    return ("%.17g,%%.17g,%%.17g,%%.17g,%%.17g,%%.17g\r\n" * len(xs)) % tuple(xs)


def write_snapshot(record: SnapshotRecord, t: float, directory) -> Path:
    """Write one snapshot CSV into `directory` and append it to spacetime.csv."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    cols = np.column_stack([record.sigma, record.u, record.v, record.eps,
                            record.c])
    rows = _row_template(np.asarray(record.x, dtype=float).tobytes()) \
        % tuple(cols.ravel().tolist())
    path = directory / snapshot_filename(t)
    with open(path, "w", newline="") as fh:
        fh.write("x,sigma,u,v,eps,c\r\n" + rows)
    spacetime = directory / "spacetime.csv"
    header = "" if spacetime.exists() else "t,x,sigma,u,v,eps,c\r\n"
    prefix = f"{t:.17g},"  # starts every row (split + join beats replace)
    block = prefix + ("\r\n" + prefix).join(rows.split("\r\n")[:-1]) + "\r\n"
    with open(spacetime, "a", newline="") as fh:
        fh.write(header + block)
    return path
