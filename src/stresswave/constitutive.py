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

    The stress wave equation is hyperbolic only while eps' > 0; below, or
    where rho eps' underflows to 0, the wave speed has no finite real value.
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


def strain(sigma, p: MaterialParams):
    """Evaluate eps(sigma).  Odd in sigma; |result| < 1/b for b > 0.

    Monotone in exact arithmetic but not quite in float64: near the
    limiting strain (b|sigma| in the hundreds) eps(sigma + dsigma) can be
    1-2 ulps below eps(sigma) for dsigma around 1e-6 to 1e-3, so a caller
    that relies on strict order of eps (a bisection inverse, a monotone
    interpolation of fitted data) must allow for it.
    """
    return _evaluate(lambda s: _strain(s, p), sigma)[0]


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
    def three(s):
        fp, fpp, _, late = _derivatives(s, p)
        return fp, fpp, _third_derivative(late, p)
    return _evaluate(three, sigma)


def wave_speed(sigma, p: MaterialParams):
    """Local wave speed c(sigma) = sqrt(1 / (rho * eps'(sigma))); raises
    HyperbolicityError naming a stress where eps'(sigma) <= 0 or where
    rho eps' underflows to 0 (c would be inf)."""
    return _evaluate(lambda s: (_speed(
        np.ones_like(s) if p.b == 0.0 else _compliance(s, p)[3], s, p),), sigma)[0]


def _evaluate(kernel, sigma):
    """The tuple kernel(s) of the array s = sigma in one error-state scope
    that ignores over, invalid and divide, as a run does.  A float or 0-d
    sigma is a 1-element array there, so it takes the array loop (NumPy's
    scalar power can round an ulp apart from it), and gets floats back."""
    s = np.asarray(sigma, dtype=float)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        out = kernel(s.reshape(-1) if s.ndim == 0 else s)
    return out if s.ndim else tuple(float(v[0]) for v in out)


def _compliance(s: np.ndarray, p: MaterialParams) -> tuple:
    """(|s|, w, D, eps') of the array s for b > 0, in the caller's error
    state: the one place that forms w = (b|s|)^a and D = 1 + w."""
    mag = np.abs(s)
    w = (p.b * mag) ** p.a
    d = 1.0 + w
    return mag, w, d, d ** (-(1.0 + 1.0 / p.a))


def _derivatives(s: np.ndarray, p: MaterialParams) -> tuple:
    """(eps', eps'', min(eps'), late) of the array s in the caller's error
    state.  The min is the saturation guard's (1.0 for b = 0); `late` holds
    the factors that _third_derivative forms eps''' from, and only that
    needs the regularized |s| (reg) for 1 <= a < 2.  reg_eta^2 is a float64:
    a width whose square overflows gives reg = inf and 0 for its powers."""
    a = p.a
    if p.b == 0.0:
        return np.ones_like(s), np.zeros_like(s), 1.0, (s, None)
    mag, w, d, fp = _compliance(s, p)
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
    return fppp if fp_min > 0.0 else np.where(np.isinf(w), 0.0, fppp)


def _strain(s: np.ndarray, p: MaterialParams) -> tuple:
    """(eps, eps') of the array s in the caller's error state; where w
    overflowed the law has saturated at the limiting strain sign(s)/b."""
    if p.b == 0.0:
        return s + 0.0, np.ones_like(s)
    _, w, d, fp = _compliance(s, p)
    eps = s * d ** (-1.0 / p.a)
    return np.where(np.isinf(w), np.sign(s) / p.b, eps), fp


def _speed(fp: np.ndarray, s: np.ndarray, p: MaterialParams) -> np.ndarray:
    """c = 1/sqrt(rho eps') from eps' at the stresses s, in the caller's error
    state; HyperbolicityError names the first s whose rho eps' <= 0 (NaN passes)."""
    m = p.rho * fp
    bad = m <= 0.0
    if bad.any():
        i = np.argmax(bad)  # flat index of the first
        f, sig = fp.flat[i], float(s.flat[i])
        why = "<= 0" if f <= 0.0 else f"times rho={p.rho:.3e} underflows to 0"
        raise HyperbolicityError(
            f"tangent compliance {f:.3e} {why} at sigma={sig:.6g}", sigma=sig)
    return 1.0 / np.sqrt(m)
