import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ellipsegas import (BesselOrder, DomainError, OutOfRangeError, W_MAX,
                        bessel_i, bessel_j, ln_gamma, log_bessel_i, log_i_ratio)

mp.mp.dps = 40


def test_ln_gamma_trivial_values():
    assert ln_gamma(1.0) == 0.0
    assert ln_gamma(0.5) == pytest.approx(math.log(math.sqrt(math.pi)), rel=1e-15)


def test_ln_gamma_against_high_precision_oracle():
    # 40-digit mpmath reference
    assert ln_gamma(7.5) == pytest.approx(7.534364236758732955158367632436685767, rel=1e-13)


@pytest.mark.parametrize("x", [-1.0, 0.0, -0.5])
def test_ln_gamma_rejects_nonpositive(x):
    with pytest.raises(DomainError):
        ln_gamma(x)


def test_bessel_order_validation():
    BesselOrder(-0.5)
    with pytest.raises(DomainError):
        BesselOrder(-0.6)
    with pytest.raises(DomainError):
        BesselOrder(float("nan"))


def test_bessel_j_half_order_closed_forms():
    # J_{-1/2}(1) = sqrt(2/pi) cos 1, J_{1/2}(1) = sqrt(2/pi) sin 1
    assert bessel_j(-0.5, 1.0) == pytest.approx(0.4310988680183760795, rel=1e-12)
    assert bessel_j(0.5, 1.0) == pytest.approx(0.6713967071418030904, rel=1e-12)


def test_bessel_j_complex_against_series_oracle():
    # 200-term quadruple-precision series, frozen from mpmath
    val = bessel_j(1.5, 2 + 1j)
    ref = 0.6467524361178913805 + 0.1720806458946443807j
    assert abs(val - ref) <= 1e-11 * abs(ref)


def test_bessel_j_rejects_large_modulus():
    with pytest.raises(OutOfRangeError):
        bessel_j(0.5, W_MAX + 1.0)
    # right at the boundary is fine
    bessel_j(0.5, W_MAX)


def test_bessel_j_trig_identities_on_interval():
    # J_{-1/2}(x) sqrt(pi x/2) = cos x and the sine analogue on (0, 20]
    for x in np.linspace(0.05, 20.0, 120):
        f = math.sqrt(math.pi * x / 2.0)
        assert abs(bessel_j(-0.5, x) * f - math.cos(x)) <= 1e-11
        assert abs(bessel_j(0.5, x) * f - math.sin(x)) <= 1e-11


def test_bessel_i_examples():
    assert bessel_i(0.5, 0.0) == 0.0
    assert bessel_i(0.5, 1.0) == pytest.approx(0.9376748882454876467, rel=1e-11)
    assert bessel_i(2.5, 10.0) == pytest.approx(2028.5127573919356691, rel=1e-11)


def test_bessel_i_rejects_negative():
    with pytest.raises(DomainError):
        bessel_i(1.5, -1.0)


def test_bessel_i_small_argument_law():
    # I_{a+1/2}(x) ~ (x/2)^{a+1/2}/Gamma(a+3/2) as x -> 0
    x = 1e-4
    for a in (-0.5, 0.0, 1.0, 2.5):
        nu = a + 0.5
        lead = (x / 2.0) ** nu / math.gamma(nu + 1.0)
        assert bessel_i(nu, x) / lead == pytest.approx(1.0, abs=1e-6)


def _series_i(nu, x, terms=200):
    tot = mp.mpf(0)
    for k in range(terms):
        tot += (mp.mpf(x) ** 2 / 4) ** k / (mp.factorial(k) * mp.gamma(k + nu + 1))
    return (mp.mpf(x) / 2) ** nu * tot


def _asymptotic_i(nu, x):
    # e^x/sqrt(2 pi x) (1 - a1/x + a2/x^2 - a3/x^3), a_k = prod(4nu^2-(2j-1)^2)/(k! 8^k)
    m = 4.0 * nu * nu
    a1 = (m - 1) / 8.0
    a2 = (m - 1) * (m - 9) / (2.0 * 64.0)
    a3 = (m - 1) * (m - 9) * (m - 25) / (6.0 * 512.0)
    return math.exp(x) / math.sqrt(2 * math.pi * x) * (1 - a1 / x + a2 / x ** 2 - a3 / x ** 3)


# the 1/x^3-truncated asymptotic terminates (is exact) at half-odd order;
# for generic order its own error at x=30 is ~1e-6, so that is the band there
@pytest.mark.parametrize("nu,asym_tol", [(0.5, 1e-9), (1.5, 1e-9), (3.0, 5e-6)])
def test_bessel_i_branch_consistency_on_crossover_band(nu, asym_tol):
    for x in (28.0, 30.0, 32.0):
        ref_series = float(_series_i(nu, x))
        ref_asym = _asymptotic_i(nu, x)
        val = bessel_i(nu, x)
        assert val == pytest.approx(ref_series, rel=1e-11)
        assert val == pytest.approx(ref_asym, rel=asym_tol)


@pytest.mark.parametrize("nu,x", [(200.5, 5.0), (200.5, 178.0), (200.5, 1010.0),
                                  (0.5, 1e-3), (3.0, 700.0)])
def test_log_bessel_i_matches_mpmath(nu, x):
    ref = float(mp.log(mp.besseli(mp.mpf(nu), mp.mpf(x))))
    assert log_bessel_i(nu, x) == pytest.approx(ref, rel=1e-12, abs=1e-12)


def test_log_i_ratio_limit_and_value():
    # x -> 0 limit is log Gamma(nu+1)
    assert log_i_ratio(1.5, 0.0) == pytest.approx(math.lgamma(2.5), rel=1e-14)
    nu, x = 1.5, 7.0
    ref = nu * math.log(x / 2) - float(mp.log(mp.besseli(mp.mpf(nu), x)))
    assert log_i_ratio(nu, x) == pytest.approx(ref, rel=1e-12)


@settings(max_examples=60, deadline=None)
@given(st.floats(-0.5, 4.0), st.floats(0.05, 25.0))
def test_bessel_j_real_argument_is_real(nu, x):
    val = bessel_j(nu, complex(x, 0.0))
    assert abs(val.imag) <= 1e-13 * max(1.0, abs(val))


def test_bessel_j_subnormal_order_is_order_zero():
    # scipy's complex jv returns nan at negative subnormal orders; the order
    # is canonicalized, so J_nu(w) is J_0(w) there
    for nu in (-2.2e-311, -5e-324, 2.2e-311):
        for w in (1.0 + 0j, 0.3 + 2.0j, 17.5 + 0j):
            assert bessel_j(nu, w) == bessel_j(0.0, w)
    assert bessel_j(-2.2e-311, 1 + 0j) == pytest.approx(0.7651976865579666, rel=1e-15)


@settings(max_examples=40, deadline=None)
@given(st.floats(-0.5, 3.0), st.floats(0.1, 40.0))
def test_i_ratio_monotone_decreasing(nu, x):
    # (x/2)^nu / I_nu(x) decreases in x (all series terms positive)
    assert log_i_ratio(nu, x) >= log_i_ratio(nu, x * 1.1) - 1e-12


@pytest.mark.parametrize("nu", [0.5, 3.0, 200.5, -2.225073858507e-311, 0.0])
def test_log_i_ratio_array_equals_scalar_calls(nu):
    # covers x = 0, x below the 1e-10 cut, ive underflow (nu = 200.5 at small
    # x) and scipy's nan from ive at a negative subnormal order
    xs = np.array([0.0, 1e-12, 1e-3, 0.7, 1.0, 5.0, 40.0, 700.0])
    got = log_i_ratio(nu, xs)
    assert isinstance(got, np.ndarray) and got.shape == xs.shape
    for x, g in zip(xs, got):
        assert g == log_i_ratio(nu, float(x))
        # the per-point formula on the scalar log_bessel_i path
        ref = (math.lgamma(nu + 1) if x < 1e-10
               else nu * math.log(x / 2.0) - log_bessel_i(nu, float(x)))
        assert g == pytest.approx(ref, rel=1e-14, abs=1e-14)
    assert np.all(np.isfinite(got))
    assert isinstance(log_i_ratio(nu, 1.0), float)


def test_log_i_ratio_array_rejects_negative_entry():
    with pytest.raises(DomainError):
        log_i_ratio(1.5, np.array([0.5, -1e-3]))


@pytest.mark.parametrize("a", [-0.999, -0.6, -0.5, -0.1, 0.0, 0.5, 1.0, 1.7, 2.999])
def test_ln_gamma_array_matches_scipy_on_n_plus_c(a):
    from scipy.special import gammaln
    n = np.arange(10_001)
    eps = np.finfo(float).eps
    for c in (a + 1, a + 2, a + 0.5, 2 * n + a + 1):
        x = n + c
        x = x[x > 0]    # a + 1/2 <= 0 when a <= -1/2
        got, ref = ln_gamma(x), gammaln(x)
        assert isinstance(got, np.ndarray) and got.shape == x.shape
        assert np.all(np.abs(got - ref) <= 8 * eps * np.maximum(1.0, np.abs(ref)))


def test_ln_gamma_array_keeps_shape_and_extremes():
    x = np.array([[5e-324, 0.5, 12.999], [13.0, 1e200, math.inf]])
    got = ln_gamma(x)
    assert got.shape == x.shape
    # below 13 and past 1e150 the entries are math.lgamma's; 13 runs the series
    for i, j in ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2)):
        assert got[i, j] == math.lgamma(x[i, j])
    assert got[1, 0] == pytest.approx(math.lgamma(13.0), rel=4e-16)
    assert ln_gamma(np.array([])).shape == (0,)


@pytest.mark.parametrize("bad", [[1.0, 0.0], [2.5, -1.5], [math.nan, 3.0], [20.0, math.nan],
                                 [[14.0, 15.0], [16.0, -1e-300]], [-math.inf]])
def test_ln_gamma_array_rejects_nonpositive_or_nan(bad):
    with pytest.raises(DomainError):
        ln_gamma(np.array(bad))


@pytest.mark.parametrize("x", [1e-300, 0.3, 1.0, 2.5, 12.9, 13.0, 40.5, 1e4 + 0.25, 1e200])
def test_ln_gamma_scalar_is_math_lgamma(x):
    got = ln_gamma(x)
    assert type(got) is float and got == math.lgamma(x)
    assert ln_gamma(np.float64(x)) == math.lgamma(x)


def test_ln_gamma_scalar_rejects_nan():
    with pytest.raises(DomainError):
        ln_gamma(math.nan)
