"""Manufactured-solution verification and convergence studies.

The manufactured stress field sigma(x, t) = sin(pi x) sin(t) satisfies
homogeneous Dirichlet conditions on [0, 1].  Injecting the source

    f = rho [eps'(sigma) sigma_tt + eps''(sigma) sigma_t^2] - sigma_xx

makes it an exact solution of the stress wave equation, so the L2 error
of the discrete solution at the end time measures pure discretization
error.  Spatial and temporal refinement ladders reproduce the expected
second-order rates.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import ConfigError, config_to_mapping, parse_config
from .constitutive import MaterialParams
from .fe_space import FeSpace, cell_table
from .integrator import run_simulation

SPATIAL_CELLS = (16, 32, 64, 128)
TEMPORAL_DTS = (8.0e-3, 4.0e-3, 2.0e-3, 1.0e-3)
TEMPORAL_MESH_CELLS = 64
SPATIAL_DT = 1.0e-5


@dataclass(frozen=True)
class MmsFields:
    sigma: np.ndarray
    sigma_t: np.ndarray
    sigma_tt: np.ndarray
    sigma_xx: np.ndarray


def mms_fields(x, t: float) -> MmsFields:
    """Exact stress field sin(pi x) sin(t) and its needed derivatives."""
    x = np.asarray(x, dtype=float)
    sx = np.sin(np.pi * x)
    return MmsFields(sigma=sx * np.sin(t),
                     sigma_t=sx * np.cos(t),
                     sigma_tt=-sx * np.sin(t),
                     sigma_xx=-np.pi**2 * sx * np.sin(t))


def mms_forcing(x, t, p: MaterialParams):
    """Source term making the manufactured field exact (x and t broadcast)."""
    # only sigma and sigma_t: sigma_tt = -sigma and sigma_xx = -pi^2 sigma
    # the arithmetic of rho (eps'' s_t^2 - eps' s) + pi^2 s, in place
    sx = np.sin(np.pi * np.asarray(x, dtype=float))
    sigma, f = sx * np.sin(t), sx * np.cos(t)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        fp, fpp, _, _ = p.law.derivatives(sigma)
    f *= f
    f *= fpp
    fp *= sigma
    f -= fp
    f *= p.rho
    sigma *= np.pi**2
    f += sigma
    return f


def l2_error(space: FeSpace, Sigma: np.ndarray, t: float) -> float:
    """L2 norm of (sigma_h - sigma_exact) at time t, degree+3 quadrature."""
    table = cell_table(space, 3)
    sig_q, = table.at_points(Sigma)
    diff = sig_q - mms_fields(table.x_q, t).sigma
    return float(np.sqrt(np.sum(diff**2 * table.weights * table.jac[:, None])))


@dataclass(frozen=True)
class ConvergenceRow:
    resolution: str
    dofs: int | None
    l2_error: float
    rate: float | None


@dataclass(frozen=True)
class ConvergenceTable:
    kind: str
    rows: tuple

    def rates(self) -> list:
        return [r.rate for r in self.rows if r.rate is not None]

    def write_csv(self, path):
        path = Path(path)
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["resolution", "dofs", "l2_error", "rate"])
            for r in self.rows:
                writer.writerow([r.resolution,
                                 "" if r.dofs is None else r.dofs,
                                 f"{r.l2_error:.17g}",
                                 "" if r.rate is None else f"{r.rate:.17g}"])
        return path

    def __str__(self):
        lines = [f"{self.kind} convergence",
                 f"{'resolution':>14} {'dofs':>6} {'l2_error':>13} {'rate':>6}"]
        for r in self.rows:
            dofs = "" if r.dofs is None else str(r.dofs)
            rate = "" if r.rate is None else f"{r.rate:.2f}"
            lines.append(f"{r.resolution:>14} {dofs:>6} {r.l2_error:>13.4e} {rate:>6}")
        return "\n".join(lines)


def observed_rate(e_coarse: float, e_fine: float) -> float:
    """log2(e_coarse / e_fine) for one halving of h or dt."""
    return float(np.log(e_coarse / e_fine) / np.log(2.0))


def _mms_run_error(config) -> tuple[float, int]:
    p = config.material
    snapshots, report = run_simulation(
        config,
        forcing=lambda x, t: mms_forcing(x, t, p),
        initial_sigma=lambda x: mms_fields(x, 0.0).sigma,
        initial_rate=lambda x: mms_fields(x, 0.0).sigma_t,
    )
    final = snapshots[-1]
    return l2_error(report.space, final.Sigma, final.t), report.space.n_dofs


def convergence_study(kind: str, base_config,
                      cells=None, dts=None) -> ConvergenceTable:
    """Run the spatial or temporal MMS refinement ladder.

    spatial:  linear elements on the standard cell ladder at a frozen
              small time step, so the spatial error dominates.
    temporal: cubic elements on a fixed fine mesh while the time step
              halves, so the time integration error dominates.

    `cells` / `dts` override the standard ladders (testing hook; the
    defaults are the module-level constants).  parse_config checks every
    rung before the first runs, and a rejected rung's ConfigError names it.
    """
    if kind not in ("spatial", "temporal"):
        raise ValueError(f"kind must be 'spatial' or 'temporal', got {kind!r}")

    if kind == "spatial":
        ladder = [(f"{n} cells", n, "uniform(1)", SPATIAL_DT)
                  for n in (SPATIAL_CELLS if cells is None else cells)]
    else:
        ladder = [(f"dt={dt:g}", TEMPORAL_MESH_CELLS, "uniform(3)", dt)
                  for dt in (TEMPORAL_DTS if dts is None else dts)]
    # the manufactured solution needs homogeneous boundary values, and
    # only each run's final state is measured
    base = config_to_mapping(base_config)
    rungs = []
    for label, n, policy, dt in ladder:
        try:
            rungs.append((label, parse_config({
                **base,
                "mesh": {**base["mesh"], "n_cells": n, "degree_policy": policy},
                "time": {**base["time"], "dt": dt},
                "drive": {**base["drive"], "A": 0.0},
                "output": {**base["output"], "snapshot_interval": 0.0}})))
        except ConfigError as exc:
            raise ConfigError(f"{exc} (the {kind} study's {label} rung)") from exc
    rows = []
    for label, config in rungs:
        err, ndofs = _mms_run_error(config)
        rate = observed_rate(rows[-1].l2_error, err) if rows else None
        rows.append(ConvergenceRow(label, ndofs if kind == "spatial" else None,
                                   err, rate))
    return ConvergenceTable(kind=kind, rows=tuple(rows))
