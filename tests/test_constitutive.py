import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stresswave.constitutive import (HyperbolicityError, MaterialParams,
                                     derivatives, strain, wave_speed)

from derivative_helpers import strain_derivative

P12 = MaterialParams(rho=1.0, b=1.0, a=2.0)


def central_diff5(f, x, h):
    """5-point central difference, O(h^4) oracle."""
    return (-f(x + 2 * h) + 8 * f(x + h) - 8 * f(x - h) + f(x - 2 * h)) / (12 * h)


def test_params_validation():
    with pytest.raises(ValueError):
        MaterialParams(rho=0.0, b=1.0, a=2.0)
    with pytest.raises(ValueError):
        MaterialParams(rho=1.0, b=-1.0, a=2.0)
    with pytest.raises(ValueError):
        MaterialParams(rho=1.0, b=np.nan, a=2.0)
    with pytest.raises(ValueError):
        MaterialParams(rho=1.0, b=1.0, a=0.0)
    with pytest.raises(ValueError):
        MaterialParams(rho=1.0, b=1.0, a=2.0, reg_eta=-1.0)


def test_strain_zero_stress():
    assert strain(0.0, P12) == 0.0
    assert strain(0.0, MaterialParams(rho=2.0, b=5.0, a=1.5)) == 0.0


def test_strain_linear_limit():
    p = MaterialParams(rho=1.0, b=0.0, a=1.5)
    assert strain(0.5, p) == 0.5
    s = np.linspace(-3.0, 3.0, 11)
    np.testing.assert_array_equal(strain(s, p), s)


def test_strain_saturates_at_limiting_value():
    # eps(1000) = 1000 / sqrt(1 + 1e6), just below the limiting strain 1/b = 1
    val = strain(1000.0, P12)
    assert 0.99999 <= val < 1.0


def test_strain_odd_and_sign():
    s = np.logspace(-3, 3, 25)
    np.testing.assert_allclose(strain(-s, P12), -strain(s, P12), rtol=0, atol=0)
    assert np.all(np.sign(strain(s, P12)) == 1.0)


def test_strain_bounded_up_to_1e8():
    for b in (0.5, 1.0, 5.0):
        for a in (1.2, 1.5, 2.0, 3.0):
            p = MaterialParams(rho=1.0, b=b, a=a)
            s = np.logspace(-6, 8, 200)
            eps = strain(np.concatenate([-s, s]), p)
            # allow a couple of ulp on the bound itself
            assert np.max(np.abs(eps)) <= (1.0 / b) * (1.0 + 1e-14)


def test_strain_strictly_monotone():
    s = np.sort(np.concatenate([-np.logspace(-2, 4, 40), [0.0],
                                np.logspace(-2, 4, 40)]))
    eps = strain(s, P12)
    assert np.all(np.diff(eps) > 0.0)


def test_derivative_order1_at_zero_is_one():
    for p in (P12, MaterialParams(rho=1.0, b=3.0, a=1.2)):
        assert strain_derivative(0.0, 1, p) == 1.0


def test_derivative_order1_value_and_fd_oracle():
    # closed form at sigma=1: 2^-1.5
    val = strain_derivative(1.0, 1, P12)
    assert val == pytest.approx(2.0**-1.5, rel=1e-14)
    fd = central_diff5(lambda s: strain(s, P12), 1.0, 1e-5)
    assert val == pytest.approx(fd, rel=1e-6)


def test_derivative_order2_value_and_fd_oracle():
    val = strain_derivative(1.0, 2, P12)
    assert val == pytest.approx(-3.0 * 2.0**-2.5, rel=1e-14)
    fd = central_diff5(lambda s: strain_derivative(s, 1, P12), 1.0, 1e-5)
    assert val == pytest.approx(fd, rel=1e-6)


def test_derivative_order2_vanishes_at_zero_for_a2():
    assert strain_derivative(0.0, 2, P12) == 0.0
    fd = central_diff5(lambda s: strain_derivative(s, 1, P12), 0.0, 1e-4)
    assert abs(fd) < 1e-8


def test_derivative_order3_fd_oracle():
    fd = central_diff5(lambda s: strain_derivative(s, 2, P12), 0.7, 1e-5)
    assert strain_derivative(0.7, 3, P12) == pytest.approx(fd, rel=1e-6)


def test_derivative_symmetries():
    s = np.linspace(0.1, 8.0, 17)
    np.testing.assert_allclose(strain_derivative(-s, 1, P12),
                               strain_derivative(s, 1, P12), rtol=1e-15)
    np.testing.assert_allclose(strain_derivative(-s, 2, P12),
                               -strain_derivative(s, 2, P12), rtol=1e-15)


def test_derivative_order1_in_unit_interval():
    s = np.logspace(-4, 4, 60)
    d = strain_derivative(s, 1, P12)
    assert np.all(d > 0.0) and np.all(d <= 1.0)


def test_linear_degeneration_is_exact():
    p = MaterialParams(rho=4.0, b=0.0, a=1.5)
    s = np.linspace(-5, 5, 21)
    np.testing.assert_array_equal(strain_derivative(s, 1, p), np.ones_like(s))
    np.testing.assert_array_equal(strain_derivative(s, 2, p), np.zeros_like(s))
    np.testing.assert_array_equal(strain_derivative(s, 3, p), np.zeros_like(s))
    np.testing.assert_array_equal(wave_speed(s, p), np.full_like(s, 0.5))


def test_derivative_consistency_grid():
    # eps^(k+1) matches the central difference of eps^(k) away from 0;
    # the absolute floor covers the FD oracle's roundoff near the zero
    # crossings of eps'''
    s = np.concatenate([-np.logspace(-1, 1, 15), np.logspace(-1, 1, 15)])
    for b in (0.5, 1.0, 5.0):
        for a in (1.2, 1.5, 2.0, 3.0):
            p = MaterialParams(rho=1.0, b=b, a=a)
            for k in (1, 2):
                fd = central_diff5(lambda x: strain_derivative(x, k, p), s, 1e-5)
                an = strain_derivative(s, k + 1, p)
                scale = np.max(np.abs(an))
                np.testing.assert_allclose(an, fd, rtol=1e-6, atol=1e-9 * scale)


def test_regularization_keeps_order3_finite_near_zero():
    p = MaterialParams(rho=1.0, b=1.0, a=1.5)  # |s|^(a-2) singular unregularized
    vals = strain_derivative(np.array([0.0, 1e-12, -1e-12]), 3, p)
    assert np.all(np.isfinite(vals))


def test_wave_speed_unity_for_linear_unit_density():
    p = MaterialParams(rho=1.0, b=0.0, a=1.5)
    s = np.linspace(-10, 10, 7)
    np.testing.assert_array_equal(wave_speed(s, p), np.ones_like(s))


def test_wave_speed_value_and_floor():
    assert wave_speed(1.0, P12) == pytest.approx(2.0**0.75, rel=1e-14)
    s = np.linspace(-5, 5, 101)
    c = wave_speed(s, P12)
    assert np.all(c >= 1.0)
    assert wave_speed(0.0, P12) == 1.0


def test_wave_speed_even():
    s = np.linspace(0.01, 20, 50)
    np.testing.assert_allclose(wave_speed(-s, P12), wave_speed(s, P12), rtol=1e-15)


def test_wave_speed_hyperbolicity_failure():
    # (b|s|)^a overflows, tangent compliance underflows to zero
    p = MaterialParams(rho=1.0, b=1e200, a=2.0)
    with pytest.raises(HyperbolicityError):
        wave_speed(1e200, p)


def test_wave_speed_raises_where_rho_times_eps_prime_underflows():
    # eps'(1e-5) is about 3e-38 here, so rho eps' underflows to 0 and c
    # would be inf
    p = MaterialParams(rho=1e-300, b=1e20, a=1.5)
    assert wave_speed(0.0, p) == pytest.approx(1e150, rel=1e-15)
    with pytest.raises(HyperbolicityError) as err:
        wave_speed(np.array([0.0, 1e-5]), p)
    assert err.value.sigma == 1e-5
    assert str(err.value).endswith(
        "times rho=1.000e-300 underflows to 0 at sigma=1e-05")


# b|sigma| <= 1e3 keeps the gap to the limiting strain 1/b far above
# roundoff, so the strict bound can be asserted.
materials = st.builds(lambda b, a: MaterialParams(rho=1.0, b=b, a=a),
                      st.floats(0.1, 10.0), st.floats(0.5, 3.0))
stresses = st.floats(-100.0, 100.0)
# Roundoff allowance of strain(): over these strategies a pair of nearby
# stresses was seen reversed by at most 2 ulps, and tied or reversed only
# where the true rise was below 3.2 ulps.
ROUNDOFF_ULPS = 8


@settings(max_examples=200, deadline=None)
@given(p=materials, s=stresses, ds=st.floats(1e-6, 50.0))
def test_strain_odd_monotone_bounded_property(p, s, ds):
    assert strain(-s, p) == -strain(s, p)
    assert abs(strain(s, p)) < 1.0 / p.b
    # eps' is even and falls with |s|, so eps rises by at least
    # min(eps'(s), eps'(s + ds)) ds over the step.  Near the limiting
    # strain that rise can be below an ulp of eps, and then roundoff may
    # tie the two values or swap them by an ulp or two; strict order is
    # asserted only where the rise is resolvable.
    lo, hi = strain(s, p), strain(s + ds, p)
    ulp = np.spacing(max(abs(lo), abs(hi)))
    assert lo <= hi + ROUNDOFF_ULPS * ulp
    rise = min(derivatives(s, p)[0], derivatives(s + ds, p)[0]) * ds
    if rise > ROUNDOFF_ULPS * ulp:
        assert lo < hi


@settings(max_examples=200, deadline=None)
@given(p=materials, s=stresses)
def test_tangent_compliance_in_unit_interval_property(p, s):
    fp, _, _ = derivatives(s, p)
    assert 0.0 < fp <= 1.0


@settings(max_examples=200, deadline=None)
@given(p=materials, s=st.floats(0.05, 20.0), sign=st.sampled_from([-1.0, 1.0]))
def test_derivatives_match_central_differences_property(p, s, sign):
    # Each order against a 5-point difference of the order below.  The
    # scale |lower| / |s| keeps the check meaningful where the higher
    # order crosses zero; the difference's own error is far below it.
    s *= sign
    h = 1e-4 * abs(s)
    lower = (lambda x: strain(x, p),
             lambda x: derivatives(x, p)[0],
             lambda x: derivatives(x, p)[1])
    for k, an in enumerate(derivatives(s, p)):
        fd = central_diff5(lower[k], s, h)
        scale = abs(an) + abs(lower[k](s)) / abs(s)
        assert abs(an - fd) <= 1e-6 * scale


@settings(max_examples=50, deadline=None)
@given(s=st.floats(-1e300, 1e300), a=st.floats(0.1, 5.0))
def test_derivatives_linear_law_property(s, a):
    assert derivatives(s, MaterialParams(rho=1.0, b=0.0, a=a)) == (1.0, 0.0, 0.0)


@settings(max_examples=50, deadline=None)
@given(s=st.floats(1e10, 1e300), sign=st.sampled_from([-1.0, 1.0]),
       a=st.floats(1.6, 3.0))
def test_derivatives_saturated_are_zero_without_warning(s, sign, a):
    p = MaterialParams(rho=1.0, b=1e200, a=a)  # (b|s|)^a overflows
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert derivatives(sign * s, p) == (0.0, 0.0, 0.0)
        out = derivatives(np.array([sign * s, -sign * s]), p)
    for d in out:
        np.testing.assert_array_equal(d, 0.0)


def _eager_derivatives(s, p, two_power=False):
    """The closed forms of derivatives, all three orders from one eager
    evaluation with the regularized |s| formed up front, as the law
    formed them before eps''' moved to the tangent.  `two_power` takes
    separate powers |s|^(a-1) (times sign(s)) and |s|^(a-2) for a >= 2."""
    a, mag = p.a, np.abs(s)
    if p.b == 0.0:
        return np.ones_like(s), np.zeros_like(s), np.zeros_like(s)
    with np.errstate(over="ignore", invalid="ignore"):
        reg = mag if a >= 2.0 else np.sqrt(s * s + np.float64(p.reg_eta) ** 2)
        w = (p.b * mag) ** a
        d = 1.0 + w
        fp = d ** (-(1.0 + 1.0 / a))
        g = (-(a + 1.0) * np.float64(p.b) ** a) * fp / d
        r = reg ** (a - 2.0)
        if a >= 2.0 and not two_power:
            fpp = g * (s * r)
        else:
            fpp = g * (mag if a >= 1.0 else reg) ** (a - 1.0)
            fpp *= np.sign(s)
        fppp = g * r
        fppp *= (a - 1.0) - (a + 2.0) * w
        fppp /= d
    saturated = np.isinf(w)
    return fp, np.where(saturated, 0.0, fpp), np.where(saturated, 0.0, fppp)


def _assert_same_into_given_arrays(sigma, p, got):
    """The law written into arrays the caller owns, as the stage kernel
    has it, equals `got`, the public derivatives of sigma, bit for bit."""
    work = list(np.empty((10,) + sigma.shape))
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        fp, fpp, _, late = p.law.derivatives(sigma, work[:8])
        into = fp, fpp, p.law.third(late, work[8:])
    np.testing.assert_array_equal(np.array(into).view(np.int64),
                                  np.array(got).view(np.int64))


@pytest.mark.parametrize("a", [2.0, 3.0, 2.5, 5.0, 10.0])
@pytest.mark.parametrize("b", [0.7, 5.0])
def test_one_power_matches_two_power_form(a, b):
    # one power |s|^(a-2) serves both eps'' and eps''': equal to the
    # two-power form for a = 2 and 3 (== counts -0 and +0 as equal),
    # within 4 ulps otherwise
    p = MaterialParams(rho=1.0, b=b, a=a)
    ordinary = np.concatenate([np.linspace(-4.0, 4.0, 81),
                               np.geomspace(1e-30, 1e3, 34)])
    sigma = np.concatenate([[0.0, -0.0, 1e-300, -1e-300], ordinary, -ordinary,
                            np.array([1e200, 3e250, 1e300]) / b, [-1e300]])
    got, ref = derivatives(sigma, p), _eager_derivatives(sigma, p, True)
    _assert_same_into_given_arrays(sigma, p, got)
    for k in range(3):
        assert np.all(np.isfinite(got[k]))
        if a in (2.0, 3.0):
            assert np.all(got[k] == ref[k])
        else:
            np.testing.assert_array_max_ulp(got[k], ref[k], maxulp=4)


@pytest.mark.parametrize("reg_eta", [1e-8, 1e300])
@pytest.mark.parametrize("a", [0.5, 1.0, 1.5, 2.0, 3.0, 5.0])
@pytest.mark.parametrize("b", [0.0, 0.7, 1e50])
def test_late_third_derivative_equals_eager_form(b, a, reg_eta):
    # eps''' formed late from the factors of _derivatives, with the
    # regularized |s| formed there only for 1 <= a < 2, keeps every bit
    # of the eager form (== counts -0 and +0 as equal); b = 1e50
    # saturates the law (w = inf) at the largest stresses.  With a = 1,
    # 2 and 3 (and 0.5 and 1.5) every exponent that ndarray ** takes by
    # another ufunc than np.power occurs: 0.5 and 1 in w, 0, 0.5, 1 and 2
    # in eps'', -1, 0 and 1 in eps'''.
    p = MaterialParams(rho=1.0, b=b, a=a, reg_eta=reg_eta)
    ordinary = np.concatenate([np.linspace(-4.0, 4.0, 81),
                               np.geomspace(1e-30, 1e3, 34)])
    sigma = np.concatenate([[0.0, -0.0, 1e-300, -1e-300], ordinary, -ordinary,
                            [1e300, -1e300]])
    got, ref = derivatives(sigma, p), _eager_derivatives(sigma, p)
    for k in range(3):
        assert np.all(np.isfinite(got[k])) and np.all(got[k] == ref[k])
    _assert_same_into_given_arrays(sigma, p, got)
    _assert_same_into_given_arrays(sigma, p, ref)  # signs of zero too
    # a float takes the array loop: equal to its entry of the array result
    for i in (0, 1, 50, -1):
        assert derivatives(float(sigma[i]), p) == tuple(float(g[i]) for g in got)
    if b == 1e50:
        assert got[0][-1] == 0.0  # saturated: eps' underflows


@pytest.mark.parametrize("a", [1.5, 2.0])
@pytest.mark.parametrize("b", [0.0, 2.0])
def test_derivatives_of_empty_input_are_empty(a, b):
    p, none = MaterialParams(rho=1.0, b=b, a=a), np.empty(0)
    for d in derivatives(none, p):
        assert d.shape == (0,)
    assert strain_derivative(none, 2, p).shape == (0,)
    assert wave_speed(none, p).shape == (0,)


@pytest.mark.parametrize("b", [0.7, 0.0, 5.0, 1e50])
def test_float_equals_its_entry_of_the_array_bit_for_bit(b):
    # a float is evaluated as a 1-element array: NumPy's scalar power
    # rounds up to an ulp apart from the array loop, which once put 57
    # first, 52 second and 87 third derivatives, 54 strains and 27 speeds
    # of this grid at b = 0.7 an ulp away from the array result
    p, s = MaterialParams(rho=1.0, b=b, a=1.5), np.linspace(-4.0, 4.0, 801)
    arrays = (*derivatives(s, p), strain(s, p), wave_speed(s, p))
    floats = [(*derivatives(v, p), strain(v, p), wave_speed(v, p))
              for v in s.tolist()]
    assert all(type(x) is float for x in floats[0])
    np.testing.assert_array_equal(np.array(floats).T.view(np.int64),
                                  np.array(arrays).view(np.int64))


def test_law_warns_nowhere_and_names_a_point_where_hyperbolicity_fails():
    p = MaterialParams(rho=1.0, b=1e200, a=2.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # sign(s)/b overflows for b = 5e-324, inside the law's one scope
        tiny = MaterialParams(rho=1.0, b=5e-324, a=1.5)
        assert strain(np.array([1.0, -1e300]), tiny).tolist() == [1.0, -1e300]
        with pytest.raises(HyperbolicityError) as err:
            wave_speed(np.array([np.nan, 1e200]), p)  # the NaN is not named
    assert err.value.sigma == 1e200
    assert str(err.value) == "tangent compliance 0.000e+00 <= 0 at sigma=1e+200"
