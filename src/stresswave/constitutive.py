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
    """Evaluate eps(sigma).  Odd in sigma; |result| < 1/b for b > 0.

    Monotone in exact arithmetic but not quite in float64: near the
    limiting strain (b|sigma| in the hundreds) eps(sigma + dsigma) can be
    1-2 ulps below eps(sigma) for dsigma around 1e-6 to 1e-3, so a caller
    that relies on strict order of eps (a bisection inverse, a monotone
    interpolation of fitted data) must allow for it.
    """
    return _as_result(sigma, _strain(np.asarray(sigma, dtype=float), p,
                                     slope=False)[0])


def _strain(s: np.ndarray, p: MaterialParams, slope: bool = True):
    """eps(s) and eps'(s) = D^-(1+1/a) as in derivatives, from one
    evaluation of w = (b|s|)^a and D = 1 + w (eps' = 1 for b = 0); eps'
    is None unless `slope`."""
    if p.b == 0.0:
        return s + 0.0, np.ones_like(s) if slope else None
    with np.errstate(over="ignore"):
        w = (p.b * np.abs(s)) ** p.a
        d = 1.0 + w
        out = s * d ** (-1.0 / p.a)
    # (b|s|)^a overflowed: the law has saturated at the limiting strain
    return (np.where(np.isinf(w), np.sign(s) / p.b, out),
            d ** (-(1.0 + 1.0 / p.a)) if slope else None)


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
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        fp, fpp, _, late = _derivatives(s, p)
        out = fp, fpp, _third_derivative(late, p)
    return tuple(map(float, out)) if s.ndim == 0 else out


def _derivatives(s: np.ndarray, p: MaterialParams) -> tuple:
    """(eps', eps'', min(eps'), late) of the array s in the caller's error
    state.  The min is the saturation guard's (1.0 for b = 0); `late` holds
    the factors that _third_derivative forms eps''' from, and only that
    needs the regularized |s| (reg) for 1 <= a < 2.  reg_eta^2 is a float64:
    a width whose square overflows gives reg = inf and 0 for its powers."""
    a, mag = p.a, np.abs(s)
    if p.b == 0.0:
        return np.ones_like(s), np.zeros_like(s), 1.0, (s, None)
    w = (p.b * mag) ** a
    d = 1.0 + w
    fp = d ** (-(1.0 + 1.0 / a))
    g = (-(a + 1.0) * np.float64(p.b) ** a) * fp / d
    if a >= 2.0:  # reg = |s|: r = |s|^(a-2) serves both orders
        r = mag ** (a - 2.0)
        fpp = g * (s * r)
    else:  # r = reg for a < 1; formed late for a >= 1
        r = _regularized(s, p) if a < 1.0 else None
        fpp = g * (mag if r is None else r) ** (a - 1.0)
        fpp *= np.sign(s)
    fp_min = fp.min(initial=np.inf)
    if not fp_min > 0.0:  # saturated: w = inf, eps' = 0
        fpp = np.where(np.isinf(w), 0.0, fpp)
    return fp, fpp, fp_min, (s, g, w, d, fp_min, r)


def _regularized(s: np.ndarray, p: MaterialParams) -> np.ndarray:
    return np.sqrt(s * s + np.float64(p.reg_eta) ** 2)


def _third_derivative(late: tuple, p: MaterialParams) -> np.ndarray:
    """eps''' from the `late` factors of _derivatives, in the caller's error
    state, by the operations of one eager evaluation in their order."""
    if late[1] is None:  # b = 0
        return np.zeros_like(late[0])
    s, g, w, d, fp_min, r = late
    if p.a < 2.0:
        r = (_regularized(s, p) if r is None else r) ** (p.a - 2.0)
    fppp = g * r
    fppp *= (p.a - 1.0) - (p.a + 2.0) * w
    fppp /= d
    if not fp_min > 0.0:
        fppp = np.where(np.isinf(w), 0.0, fppp)
    return fppp


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

