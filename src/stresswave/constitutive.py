"""Strain-limiting constitutive law and its stress derivatives.

The material response is the saturating compliance relation

    eps(sigma) = sigma / (1 + (b*|sigma|)**a)**(1/a)

which bounds the strain by 1/b for any stress when b > 0 and reduces to
the linear law eps = sigma when b = 0.  The first three stress
derivatives drive the inertial terms and the consistent tangent of the
stress wave equation; the first derivative (tangent compliance) also
sets the local wave speed c = sqrt(1 / (rho * eps'(sigma))).

Every value of the law comes from the methods of one Law per material
(MaterialParams.law), which binds the material's constants once; the
public functions wrap them in one error-state scope per call.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np


class HyperbolicityError(RuntimeError):
    """Tangent compliance eps'(sigma) dropped to zero or below.

    The stress wave equation is hyperbolic only while eps' > 0; below, or
    where rho eps' underflows to 0, the wave speed has no finite real value.
    `t` is the time of the failing stage in a run, else None.
    """

    def __init__(self, message: str, sigma: float | None = None,
                 x: float | None = None, t: float | None = None):
        super().__init__(message)
        self.sigma = sigma
        self.x = x
        self.t = t


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

    @cached_property
    def law(self) -> "Law":
        """The Law of this material, built on first use."""
        return Law(self)


def strain(sigma, p: MaterialParams):
    """Evaluate eps(sigma).  Odd in sigma; |result| < 1/b for b > 0.

    Monotone in exact arithmetic but not quite in float64: near the
    limiting strain (b|sigma| in the hundreds) eps(sigma + dsigma) can be
    1-2 ulps below eps(sigma) for dsigma around 1e-6 to 1e-3, so a caller
    that relies on strict order of eps (a bisection inverse, a monotone
    interpolation of fitted data) must allow for it.
    """
    return _evaluate(p.law.strain, sigma)[0]


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
    law = p.law

    def three(s):
        fp, fpp, _, late = law.derivatives(s)
        return fp, fpp, law.third(late)
    return _evaluate(three, sigma)


def wave_speed(sigma, p: MaterialParams):
    """Local wave speed c(sigma) = sqrt(1 / (rho * eps'(sigma))); raises
    HyperbolicityError naming a stress where eps'(sigma) <= 0 or where
    rho eps' underflows to 0 (c would be inf)."""
    law = p.law
    return _evaluate(lambda s: (law.speed(
        np.ones_like(s) if law.linear else law.compliance(s)[3], s),), sigma)[0]


def _evaluate(kernel, sigma):
    """The tuple kernel(s) of the array s = sigma in one error-state scope
    that ignores over, invalid and divide, as a run does.  A float or 0-d
    sigma is a 1-element array there, so it takes the array loop (NumPy's
    scalar power can round an ulp apart from it), and gets floats back."""
    s = np.asarray(sigma, dtype=float)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        out = kernel(s.reshape(-1) if s.ndim == 0 else s)
    return out if s.ndim else tuple(float(v[0]) for v in out)


def _arrays(s: np.ndarray, out: list | None, k: int) -> list:
    """`out`, or k new arrays of the shape of s."""
    return out if out is not None else [np.empty_like(s) for _ in range(k)]


# the exponents that ndarray ** e takes by another ufunc than np.power
# (fast_scalar_power, numpy/_core/src/multiarray/number.c), less the
# identities 1 and 0, which `_power` forms by no call
_FAST_POWERS = {2.0: np.square, 0.5: np.sqrt, -1.0: np.reciprocal,
                1.0: lambda x, out: x, 0.0: lambda x, out: None}


def _power(e: float):
    """The function (x, out) that returns x ** e as ndarray ** e gives it
    for a float e, bit for bit: written into out by the ufunc that
    operator calls (square, sqrt or reciprocal for e = 2, 0.5 or -1,
    np.power otherwise), except the identity powers, which form nothing:
    x itself for e = 1, and None, the factor 1, for e = 0.  A direct call
    costs less than the operator."""
    return _FAST_POWERS.get(e) or (lambda x, out: np.power(x, e, out))


class Law:
    """The law of one material, its constants bound once.

    b, 1, -(a+1) b^a, a-1, a+2 and reg_eta^2 are 0-d arrays, which a ufunc
    takes for less than a float; the exponents stay floats, since a 0-d
    exponent costs more.  Each method takes arrays and runs in the
    caller's error state: a run's one scope, or _evaluate's.  compliance,
    derivatives and third write each value, by one ufunc call with
    positional out (powers by `_power`), into arrays the caller passes
    (the stage kernel's) or into new ones.  They form no identity power
    and multiply by none: w is b|s| itself for a = 1, eps'' is g sign(s)
    for a = 1 and s g for a = 2, and r = |s|^(a-2) is the |s| array for
    a = 3 and is not formed for a = 2, where eps''' is g ((a-1) - (a+2) w)
    / D.  Each drops a factor 1 from a product, so every bit is that of
    the full form.
    """

    def __init__(self, p: MaterialParams):
        a = p.a
        self.rho, self.linear, self.a = p.rho, p.b == 0.0, a
        with np.errstate(over="ignore"):  # b^a or reg_eta^2 may overflow
            g = -(a + 1.0) * np.float64(p.b) ** a
            eta2 = np.float64(p.reg_eta) ** 2
        self.b, self.one, self.g, self.am1, self.ap2, self.eta2 = map(
            np.array, (p.b, 1.0, g, a - 1.0, a + 2.0, eta2))
        # the exponents of D in eps' and eps, and of |s| in eps'' and eps'''
        self.e_fp, self.e_eps = -(1.0 + 1.0 / a), -1.0 / a
        self.e1, self.e2 = a - 1.0, a - 2.0
        self.pow_a, self.pow_fp, self.pow_e1, self.pow_e2 = map(
            _power, (a, self.e_fp, self.e1, self.e2))

    def compliance(self, s: np.ndarray, out: list | None = None) -> list:
        """[|s|, w, D, eps'] of s for b > 0: the one place that forms
        w = (b|s|)^a and D = 1 + w.  They are written into `out`, four
        arrays of the shape of s, or into new ones (None)."""
        mag, w, d, fp = out = _arrays(s, out, 4)
        np.abs(s, mag)
        self.pow_a(np.multiply(self.b, mag, w), w)
        self.pow_fp(np.add(self.one, w, d), fp)
        return out

    def derivatives(self, s: np.ndarray, out: list | None = None) -> tuple:
        """(eps', eps'', min(eps'), late) of s.  The min is the saturation
        guard's (1.0 for b = 0); `late` holds the factors that `third` forms
        eps''' from (r None for a = 2), and only that needs the regularized
        |s| (reg) for 1 <= a < 2.  reg_eta^2 is a float64: a width whose
        square overflows gives reg = inf and 0 for its powers.  Every array is written into
        `out`, eight arrays of the shape of s (|s|, w, D, eps', g, r, eps''
        and a scratch), or into new ones (None)."""
        mag, w, d, fp, g, r, fpp, tmp = _arrays(s, out, 8)
        if self.linear:
            fp.fill(1.0)
            fpp.fill(0.0)
            return fp, fpp, 1.0, (s, None)
        self.compliance(s, [mag, w, d, fp])
        np.multiply(self.g, fp, g)
        g /= d
        if self.a >= 2.0:  # reg = |s|: r = |s|^(a-2) serves both orders
            r = self.pow_e2(mag, r)  # None (1) for a = 2, |s| for a = 3
            if r is None:
                np.multiply(s, g, fpp)
            else:
                np.multiply(s, r, fpp)
                fpp *= g
        else:  # r = reg for a < 1; formed late for a >= 1
            r = self.regularized(s, r) if self.a < 1.0 else None
            if self.pow_e1(mag if r is None else r, fpp) is None:  # a = 1
                np.multiply(g, np.sign(s, tmp), fpp)
            else:
                fpp *= g
                fpp *= np.sign(s, tmp)
        # argmin costs less than a min reduction; it too finds a NaN
        fp_min = fp.item(fp.argmin()) if fp.size else np.inf
        if not fp_min > 0.0:  # saturated: w = inf, eps' = 0
            fpp[np.isinf(w)] = 0.0
        return fp, fpp, fp_min, (s, g, w, d, fp_min, r)

    def regularized(self, s: np.ndarray,
                    out: np.ndarray | None = None) -> np.ndarray:
        """sqrt(s^2 + reg_eta^2), written into `out` (None: a new array)."""
        out = np.multiply(s, s, out)
        out += self.eta2
        return np.sqrt(out, out)

    def third(self, late: tuple, out: list | None = None) -> np.ndarray:
        """eps''' from the `late` factors of `derivatives`, by the operations
        of one eager evaluation in their order, written into the first of
        `out`, two arrays of the shape of s (eps''' and a scratch), or into
        a new array (None)."""
        fppp, tmp = _arrays(late[0], out, 2)
        if late[1] is None:  # b = 0
            fppp.fill(0.0)
            return fppp
        s, g, w, d, fp_min, r = late
        if self.a < 2.0:  # r = reg^(a-2), formed in fppp
            r = self.pow_e2(self.regularized(s, fppp) if r is None else r,
                            fppp)
        np.multiply(self.ap2, w, tmp)
        np.subtract(self.am1, tmp, tmp)
        if r is None:  # a = 2: the factor |s|^0 = 1 is not formed
            np.multiply(g, tmp, fppp)
        else:
            np.multiply(g, r, fppp)
            fppp *= tmp
        fppp /= d
        if not fp_min > 0.0:
            fppp[np.isinf(w)] = 0.0
        return fppp

    def strain(self, s: np.ndarray) -> tuple:
        """(eps, eps') of s; where w overflowed the law has saturated at the
        limiting strain sign(s)/b."""
        if self.linear:
            return s + 0.0, np.ones_like(s)
        _, w, d, fp = self.compliance(s)
        eps = s * d ** self.e_eps
        return np.where(np.isinf(w), np.sign(s) / self.b, eps), fp

    def speed(self, fp: np.ndarray, s: np.ndarray) -> np.ndarray:
        """c = 1/sqrt(rho eps') from eps' at the stresses s; HyperbolicityError
        names the first s whose rho eps' <= 0 (NaN passes)."""
        m = self.rho * fp
        bad = m <= 0.0
        if bad.any():
            i = np.argmax(bad)  # flat index of the first
            raise self.lost(fp.flat[i], float(s.flat[i]))
        return 1.0 / np.sqrt(m)

    def lost(self, fp: float, sigma: float, x: float | None = None,
             t: float | None = None) -> HyperbolicityError:
        """The error of eps' = fp at the stress sigma, where fp <= 0 or
        rho fp underflows to 0, naming the quadrature point x and the
        time t where given."""
        why = "<= 0" if fp <= 0.0 else f"times rho={self.rho:.3e} underflows to 0"
        where = "" if x is None else f" (quadrature point x={x:.6g})"
        when = "" if t is None else f" at t={t:.6g}"
        return HyperbolicityError(f"tangent compliance {fp:.3e} {why} at "
                                  f"sigma={sigma:.6g}{where}{when}",
                                  sigma=sigma, x=x, t=t)
