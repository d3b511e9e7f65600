"""Strain-limiting constitutive law and its stress derivatives.

The material response is the saturating compliance relation

    eps(sigma) = sigma / (1 + (b*|sigma|)**a)**(1/a)

which bounds the strain by 1/b for any stress when b > 0 and reduces to
the linear law eps = sigma when b = 0.  The first three stress
derivatives drive the inertial terms and the consistent tangent of the
stress wave equation; the first derivative (tangent compliance) also
sets the local wave speed c = sqrt(1 / (rho * eps'(sigma))).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class HyperbolicityError(RuntimeError):
    """Tangent compliance eps'(sigma) dropped to zero or below.

    The stress wave equation is hyperbolic only while eps' > 0; losing
    that sign means the local wave speed is no longer real.
    """

    def __init__(self, message: str, sigma: float | None = None,
                 x: float | None = None):
        super().__init__(message)
        self.sigma = sigma
        self.x = x


@dataclass(frozen=True)
class MaterialParams:
    """Density and the two constitutive parameters of the 1D law.

    rho     : mass density, > 0
    b       : nonlinearity magnitude (1/stress), >= 0; b = 0 is linear
    a       : nonlinearity exponent, > 0
    reg_eta : width of the regularized |sigma| used in derivative
              factors that carry a negative power of |sigma|
    """

    rho: float
    b: float
    a: float
    reg_eta: float = 1.0e-8

    def __post_init__(self):
        if not self.rho > 0:
            raise ValueError(f"rho must be positive, got {self.rho}")
        if not self.b >= 0:
            raise ValueError(f"b must be non-negative, got {self.b}")
        if not self.a > 0:
            raise ValueError(f"a must be positive, got {self.a}")
        if self.reg_eta < 0:
            raise ValueError(f"reg_eta must be non-negative, got {self.reg_eta}")


def _as_result(sigma, out: np.ndarray):
    """Return a float for scalar input, ndarray otherwise."""
    if np.isscalar(sigma) or np.ndim(sigma) == 0:
        return float(out)
    return out


def strain(sigma, p: MaterialParams):
    """Evaluate eps(sigma).  Odd in sigma; |result| < 1/b for b > 0."""
    s = np.asarray(sigma, dtype=float)
    if p.b == 0.0:
        return _as_result(sigma, s + 0.0)
    with np.errstate(over="ignore"):
        w = (p.b * np.abs(s)) ** p.a
        out = s * (1.0 + w) ** (-1.0 / p.a)
    # (b|s|)^a overflowed: the law has saturated at the limiting strain
    out = np.where(np.isinf(w), np.sign(s) / p.b, out)
    return _as_result(sigma, out)


def derivatives(sigma, p: MaterialParams):
    """The first three stress derivatives (eps', eps'', eps''') of eps.

    Closed forms, with w = (b|s|)^a and D = 1 + w computed once:

        eps'   = D^-(1+1/a)
        eps''  = -(a+1) b^a |s|^(a-1) sign(s) eps' / D
        eps''' = -(a+1) b^a |s|^(a-2) [(a-1) - (a+2) w] eps' / D^2

    Factors |s|^(a-1) (a < 1) and |s|^(a-2) (a < 2) carry a negative
    exponent and are evaluated with the regularized magnitude
    sqrt(s^2 + reg_eta^2); every other factor is exact.  For a >= 2 one
    power serves both: |s|^(a-1) sign(s) = s |s|^(a-2).  Where w
    overflows the law has saturated: eps' underflows to 0 and the
    higher orders are 0.
    """
    s = np.asarray(sigma, dtype=float)
    a, mag = p.a, np.abs(s)
    if p.b == 0.0:
        out = (np.ones_like(s), np.zeros_like(s), np.zeros_like(s))
    else:
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            reg = mag if a >= 2.0 else np.sqrt(s * s + p.reg_eta**2)
            w = (p.b * mag) ** a
            d = 1.0 + w
            fp = d ** (-(1.0 + 1.0 / a))
            g = (-(a + 1.0) * np.float64(p.b) ** a) * fp / d
            r = reg ** (a - 2.0)
            if a >= 2.0:
                fpp = g * (s * r)
            else:
                fpp = g * (mag if a >= 1.0 else reg) ** (a - 1.0)
                fpp *= np.sign(s)
            fppp = g * r
            fppp *= (a - 1.0) - (a + 2.0) * w
            fppp /= d
        if not fp.min(initial=np.inf) > 0.0:  # saturated: w = inf, eps' = 0
            fpp, fppp = np.where(np.isinf(w), 0.0, (fpp, fppp))
        out = (fp, fpp, fppp)
    return tuple(map(float, out)) if s.ndim == 0 else out


def wave_speed(sigma, p: MaterialParams, fp=None):
    """Local wave speed c(sigma) = sqrt(1 / (rho * eps'(sigma))).

    `fp` is eps'(sigma) when the caller has it already.
    """
    fp = np.asarray(derivatives(sigma, p)[0] if fp is None else fp,
                    dtype=float)
    if np.any(fp <= 0.0):
        idx = int(np.argmin(fp))
        bad = float(np.asarray(sigma, dtype=float).ravel()[idx]) \
            if np.ndim(sigma) else float(sigma)
        raise HyperbolicityError(
            f"tangent compliance {fp.ravel()[idx]:.3e} <= 0 at sigma={bad:.6g}",
            sigma=bad)
    return _as_result(sigma, 1.0 / np.sqrt(p.rho * fp))

