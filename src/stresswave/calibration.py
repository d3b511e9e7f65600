"""Nonlinear least-squares calibration of the constitutive parameters.

Fits (b, a) of the strain-limiting law to measured stress-strain pairs
by minimizing the sum of squared strain errors, and reports SSE and R^2.
Any bound-respecting descent scheme qualifies; this implementation uses
scipy's trust-region reflective least squares.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .constitutive import MaterialParams, strain

# a must stay strictly positive for the law to make sense; the fit is
# bounded away from zero rather than constrained by an open interval.
_A_MIN = 1.0e-6
# xtol, ftol and gtol of the least-squares solver
_TOL = 1.0e-12


@dataclass(frozen=True)
class StressStrainDataset:
    """Measured (stress, strain) pairs with a label for reporting."""

    stresses: np.ndarray
    strains: np.ndarray
    label: str = "dataset"

    def __post_init__(self):
        object.__setattr__(self, "stresses",
                           np.asarray(self.stresses, dtype=float))
        object.__setattr__(self, "strains",
                           np.asarray(self.strains, dtype=float))
        if self.stresses.shape != self.strains.shape or self.stresses.ndim != 1:
            raise ValueError("stresses and strains must be 1D arrays of equal length")
        if len(self.stresses) < 3:
            raise ValueError(f"dataset needs at least 3 points, got {len(self.stresses)}")
        if not np.all(np.isfinite(self.stresses)) or not np.all(np.isfinite(self.strains)):
            raise ValueError("dataset contains non-finite values")
        if np.all(self.stresses == self.stresses[0]):
            raise ValueError("stresses must not all be identical")


@dataclass(frozen=True)
class FitResult:
    b: float
    a: float
    sse: float
    r2: float
    converged: bool = True

    def __post_init__(self):
        if self.sse < 0 or self.b < 0 or not self.a > 0:
            raise ValueError("invalid fit result")


def _model_strain(sigma: np.ndarray, b: float, a: float) -> np.ndarray:
    return np.asarray(strain(sigma, MaterialParams(rho=1.0, b=b, a=a)))


def sse_objective(b: float, a: float, data: StressStrainDataset) -> float:
    """Sum of squared strain errors of the law at (b, a)."""
    r = data.strains - _model_strain(data.stresses, b, a)
    return float(np.sum(r * r))


def fit_material(data: StressStrainDataset, init: tuple = (1.0, 1.0),
                 max_iters: int = 200) -> FitResult:
    """Fit (b, a) by bounded nonlinear least squares from `init`.

    The returned SSE never exceeds the SSE at the initial guess.  If the
    optimizer hits its budget of max_iters residual evaluations the
    best-so-far result is returned with converged=False.
    """
    b0, a0 = float(init[0]), float(init[1])
    if not (0 <= b0 < np.inf and 0 < a0 < np.inf):
        raise ValueError(f"initial guess must be finite, b >= 0, a > 0: {init}")
    if max_iters < 1:
        raise ValueError(f"max_iters must be >= 1, got {max_iters}")

    from scipy.optimize import least_squares  # slow import, used only here

    def residuals(x):
        return data.strains - _model_strain(data.stresses, x[0], x[1])

    # the law's error-state scope: a sum of squares may overflow to inf
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        result = least_squares(residuals, x0=[b0, max(a0, _A_MIN)],
                               bounds=([0.0, _A_MIN], [np.inf, np.inf]),
                               method="trf", xtol=_TOL, ftol=_TOL, gtol=_TOL,
                               max_nfev=max_iters)
        b_fit, a_fit = float(result.x[0]), float(result.x[1])
        sse = sse_objective(b_fit, a_fit, data)
        sse_init = sse_objective(b0, a0, data)
        if sse > sse_init:  # trf is monotone, but guard the contract anyway
            b_fit, a_fit, sse = b0, a0, sse_init

        tss = float(np.sum((data.strains - np.mean(data.strains)) ** 2))
    if tss > 0.0:
        r2 = 1.0 - sse / tss
    else:
        r2 = 1.0 if sse == 0.0 else -np.inf
    converged = bool(result.status > 0)
    return FitResult(b=b_fit, a=a_fit, sse=sse, r2=r2, converged=converged)


def generate_synthetic(b: float, a: float, n_points: int = 50,
                       sigma_max: float = 5.0, noise: float = 0.0,
                       seed: int | None = None,
                       label: str | None = None) -> StressStrainDataset:
    """Dataset sampled exactly from the law, optionally with strain noise.

    `noise` is the additive Gaussian standard deviation relative to the
    largest strain magnitude (e.g. 0.01 for 1% noise).
    """
    if not 0 < sigma_max < np.inf:
        raise ValueError(f"sigma_max must be finite and > 0, got {sigma_max}")
    if not 0 <= noise < np.inf:
        raise ValueError(f"noise must be finite and >= 0, got {noise}")
    sigmas = np.linspace(0.0, sigma_max, n_points)
    strains = _model_strain(sigmas, b, a)
    if noise > 0.0:
        rng = np.random.default_rng(seed)
        strains = strains + rng.normal(
            0.0, noise * np.max(np.abs(strains)), size=strains.shape)
    if label is None:
        label = f"synthetic_b{b:g}_a{a:g}"
    return StressStrainDataset(stresses=sigmas, strains=strains, label=label)


def load_dataset(path, label: str | None = None) -> StressStrainDataset:
    """Read two-column (stress, strain) delimited text.

    The first line may be a header if its first token is not a number;
    any other line that does not hold two numbers is an error.
    """
    path = Path(path)
    rows, first = [], True
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.replace(",", " ").split()
            header_allowed, first = first, False
            try:
                rows.append((float(parts[0]), float(parts[1])))
            except (ValueError, IndexError):
                try:
                    float(parts[0])  # a number: a data line short of a column
                except ValueError:
                    if header_allowed:
                        continue
                raise ValueError(f"unparseable data line in {path}: {line!r}") from None
    if not rows:
        raise ValueError(f"no data rows found in {path}")
    arr = np.array(rows)
    return StressStrainDataset(stresses=arr[:, 0], strains=arr[:, 1],
                               label=label or path.stem)


def write_fit_csv(path, label: str, result: FitResult) -> Path:
    """Write a header and one fit result row: label, b, a, sse, r2."""
    path = Path(path)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["label", "b", "a", "sse", "r2"])
        writer.writerow([label, f"{result.b:.17g}", f"{result.a:.17g}",
                         f"{result.sse:.17g}", f"{result.r2:.17g}"])
    return path
