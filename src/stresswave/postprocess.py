"""Kinematic reconstruction and snapshot output.

The solver carries only the stress field; displacement and particle
velocity are recovered on a uniform sampling grid by trapezoidal
integration of the strain and strain rate, anchored at u(0) = v(0) = 0:

    eps_i     = eps(sigma_i)
    u_i       = u_{i-1} + (eps_i + eps_{i-1}) dx / 2
    epsdot_i  = eps'(sigma_i) sigmadot_i
    v_i       = v_{i-1} + (epsdot_i + epsdot_{i-1}) dx / 2
    c_i       = sqrt(1 / (rho eps'(sigma_i)))
"""
from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .constitutive import MaterialParams, strain, strain_derivative, wave_speed
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
    """Evaluate the FE fields at M+1 uniformly spaced points."""
    if M < 1:
        raise ValueError(f"M must be >= 1, got {M}")
    x = np.linspace(space.x_left, space.x_right, M + 1)
    return Samples(x=x,
                   sigma=space.eval_field(Sigma, x),
                   sigma_dot=space.eval_field(Sigma_dot, x))


def reconstruct(samples: Samples, p: MaterialParams) -> SnapshotRecord:
    """Strain, displacement, particle velocity and wave speed from samples."""
    dx = np.diff(samples.x)
    if not np.allclose(dx, dx[0], rtol=1e-10, atol=0.0):
        raise ValueError("sample spacing must be uniform")
    eps = np.asarray(strain(samples.sigma, p))
    c = np.asarray(wave_speed(samples.sigma, p))
    eps_dot = np.asarray(strain_derivative(samples.sigma, 1, p)) * samples.sigma_dot

    u = np.zeros_like(eps)
    v = np.zeros_like(eps)
    u[1:] = np.cumsum(0.5 * (eps[1:] + eps[:-1]) * dx)
    v[1:] = np.cumsum(0.5 * (eps_dot[1:] + eps_dot[:-1]) * dx)
    return SnapshotRecord(x=samples.x, sigma=samples.sigma,
                          sigma_dot=samples.sigma_dot,
                          u=u, v=v, eps=eps, c=c)


def snapshot_filename(t: float) -> str:
    return f"snapshot_t{t:.6f}.csv"


def write_snapshot(record: SnapshotRecord, t: float, directory) -> Path:
    """Write one snapshot CSV (header x,sigma,u,v,eps,c) into `directory`."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / snapshot_filename(t)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "sigma", "u", "v", "eps", "c"])
        for row in zip(record.x, record.sigma, record.u, record.v,
                       record.eps, record.c):
            writer.writerow([f"{v:.17g}" for v in row])
    return path


def append_spacetime(record: SnapshotRecord, t: float, path) -> Path:
    """Append one snapshot to the space-time aggregate file (t,x,...)."""
    path = Path(path)
    new = not path.exists()
    with open(path, "a", newline="") as fh:
        writer = csv.writer(fh)
        if new:
            writer.writerow(["t", "x", "sigma", "u", "v", "eps", "c"])
        for row in zip(record.x, record.sigma, record.u, record.v,
                       record.eps, record.c):
            writer.writerow([f"{t:.17g}"] + [f"{v:.17g}" for v in row])
    return path

