import cmath
import itertools
import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ellipsegas import (BesselOrder, DomainError, OutOfRangeError, W_MAX,
                        bessel_i, bessel_j, ln_gamma, log_bessel_i, log_i_ratio)
from ellipsegas.specialfns import (_DEBYE_TERMS, _debye_polynomials, _log_beta, _phi_zero,
                                   ln_gamma_difference)

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


@pytest.mark.parametrize("nu", [0.5, 30.5, 150.5, 200.5])
def test_bessel_j_past_the_old_w_max_against_40_digits(nu):
    # bessel_j once refused |w| > W_MAX = 60, and (w/2)^nu overflowed below
    # nu = 170 where nu log|w/2| passes the doubles, as at (150.5, 1000).
    # psi's range rule then refused |Im w| past 709.78 and, below the Hankel
    # side, |w| past 1416.8.  Now every w answers within 4e-13 relative of
    # mpmath, and only a value past the largest double, as at 800i, is refused
    for w in (61.0, -250.0, 1000.0, 1500.0, 2500.0, 300 - 200j, 700j):
        got = bessel_j(nu, w)
        ref = mp.besselj(nu, mp.mpc(w))
        assert abs(got - complex(ref)) <= 4e-13 * float(abs(ref)), (nu, w)
    with pytest.raises(OutOfRangeError, match="passes the largest double"):
        bessel_j(nu, 800j)


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
    # J_nu is continuous in nu, and at a subnormal order every coefficient of
    # the series and of the Miller sums rounds to its order-0 value
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
    # covers x = 0, tiny x, both series term counts, the Hankel, Debye and
    # shifted-Debye regimes, large order at small x and a negative subnormal
    # order
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


@pytest.mark.parametrize("off", [1, 2])
@pytest.mark.parametrize("a", [-0.9, 0.7, 50.0])
def test_ln_gamma_difference_against_40_digits(a, off):
    # the Gamma part of the Jacobi norms, log Gamma(n + a + off) -
    # log Gamma(n + off - 1/2) for n <= 1e4, on both sides of the Stirling
    # bound 13: within 1e-14, or 3 ulps where the value is so large (a = 50,
    # up to 465) that its double spacing passes 1e-14/3.  The two log-gammas
    # subtracted are 1e-11 off at n = 1e4
    n = np.unique(np.concatenate([np.arange(40), np.geomspace(40, 1e4, 60).astype(int)]))
    got = ln_gamma_difference(n + off - 0.5, a + 0.5)
    assert got.shape == n.shape
    for k, g in zip(n.tolist(), got.tolist()):
        ref = mp.loggamma(k + off + mp.mpf(a)) - mp.loggamma(k + off - mp.mpf(0.5))
        tol = max(1e-14, 3 * float(np.spacing(abs(float(ref)))))
        assert abs(mp.mpf(g) - ref) <= tol, (k, g, ref)


@pytest.mark.parametrize("off", [1, 2])
@pytest.mark.parametrize("a", [-0.999, 0.5, 300.0, 1000.0])
def test_jacobi_norm_log_gammas_do_not_cancel_against_40_digits(a, off):
    # log Gamma(a + 1) + log Gamma(n + off - 1/2) - log Gamma(n + a + off) as
    # the norms take it, log B(a + 1, n + off - 1/2) from `_log_beta` plus one
    # `ln_gamma_difference`, whose shift is then an array: lnGamma(a + 1) less
    # one difference cancelled to 5.3e-14 relative at a = 300, 8.9e-14 at 1000
    n = np.unique(np.concatenate([np.arange(40), np.geomspace(40, 1e4, 30).astype(int)]))
    got = _log_beta(a + 1.0, n + off - 0.5) + ln_gamma_difference(n + a + off, 0.5)
    A = mp.mpf(a)
    for k, g in zip(n.tolist(), got.tolist()):
        ref = mp.loggamma(A + 1) + mp.loggamma(k + off - mp.mpf(0.5)) - mp.loggamma(k + A + off)
        assert abs(mp.mpf(g) - ref) <= 2e-15 * max(1.0, abs(ref)), (k, g, ref)
    # an array shift gives each entry the bits of its float shift
    x = n + off - 0.5
    assert np.array_equal(ln_gamma_difference(x, np.full(n.shape, a + 1.0)),
                          ln_gamma_difference(x, a + 1.0))


def test_ln_gamma_array_keeps_shape_and_extremes():
    x = np.array([[5e-324, 0.5, 12.999], [13.0, 1e200, math.inf]])
    got = ln_gamma(x)
    assert got.shape == x.shape
    # below 13 and past 1e150 the entries take the scalar path; 13 runs the
    # series
    for i, j in ((0, 0), (0, 1), (0, 2), (1, 1)):
        ref = mp.loggamma(mp.mpf(x[i, j]))
        assert abs(got[i, j] - ref) <= 3 * _EPS * max(1, abs(ref))
    assert got[1, 2] == math.inf
    assert got[1, 0] == pytest.approx(math.lgamma(13.0), rel=4e-16)
    assert ln_gamma(np.array([])).shape == (0,)


@pytest.mark.parametrize("bad", [[1.0, 0.0], [2.5, -1.5], [math.nan, 3.0], [20.0, math.nan],
                                 [[14.0, 15.0], [16.0, -1e-300]], [-math.inf]])
def test_ln_gamma_array_rejects_nonpositive_or_nan(bad):
    with pytest.raises(DomainError):
        ln_gamma(np.array(bad))


@pytest.mark.parametrize("x", [1e-300, 0.3, 1.0, 2.5, 12.9, 13.0, 40.5, 1e4 + 0.25, 1e200])
def test_ln_gamma_scalar_against_40_digits(x):
    got = ln_gamma(x)
    ref = mp.loggamma(mp.mpf(x))
    assert type(got) is float and abs(got - ref) <= 3 * _EPS * max(1, abs(ref))
    assert ln_gamma(np.float64(x)) == got


def test_ln_gamma_within_3_eps_of_40_digits():
    # log-uniform over (1e-300, 1e300), densely where log Gamma crosses 0 at
    # 1 and 2, and across the switch to Stirling's series at 13; math.lgamma
    # is up to 5.5 eps off on (0, 13)
    rng = np.random.default_rng(20261018)
    x = np.concatenate([np.exp(rng.uniform(math.log(1e-300), math.log(1e300), 400)),
                        np.linspace(0.5, 3.0, 101), [12.999999, 13.0, 13.000001]])
    got = ln_gamma(x)
    for v, g in zip(x.tolist(), got.tolist()):
        ref = mp.loggamma(mp.mpf(v))
        bound = 3 * _EPS * max(1, abs(ref))
        assert abs(g - ref) <= bound and abs(ln_gamma(v) - ref) <= bound, v


def test_ln_gamma_scalar_rejects_nan():
    with pytest.raises(DomainError):
        ln_gamma(math.nan)


# ------------------------------------------------------ ln_gamma past doubles

def test_ln_gamma_past_the_double_range_is_out_of_range():
    # math.lgamma raises a bare OverflowError from x of about 2.5e305
    with pytest.raises(OutOfRangeError):
        ln_gamma(1e306)
    with pytest.raises(OutOfRangeError):
        ln_gamma(np.array([3.0, 1e306]))
    assert ln_gamma(2.4e305) == math.lgamma(2.4e305)


@pytest.mark.parametrize("call", [
    lambda: __import__("ellipsegas").edge_strong(1e306, 1.0, 0.5),
    lambda: __import__("ellipsegas").kernel_truncated_edge(1e306, 1.0, 0.5),
    lambda: __import__("ellipsegas").bulk_weak(1e306, 1.0, 0.1, 0.1),
    lambda: __import__("ellipsegas").bessel_kernel(1e306, 1.0, 2.0),
    lambda: __import__("ellipsegas").kernel_truncated(1e306, 5, 0.1, 0.1)],
    ids=["edge_strong", "kernel_truncated_edge", "bulk_weak", "bessel_kernel",
         "kernel_truncated"])
def test_kernels_refuse_a_past_the_double_range(call):
    with pytest.raises(OutOfRangeError):
        call()


@pytest.mark.parametrize("argv", [
    ["--kind", "edge-strong", "--points", "1,0.5"],
    ["--kind", "bulk-weak", "--s", "1", "--points", "0.1,0"],
    ["--kind", "bessel", "--points", "1,0"],
    ["--kind", "truncated", "--N", "5", "--points", "0.1,0.1"]])
def test_cli_exits_2_at_a_past_the_double_range(argv, capsys):
    from ellipsegas.cli import main
    assert main(["kernel", *argv, "--a", "1e306"]) == 2
    assert "double range" in capsys.readouterr().err


# ------------------------------------------- the native Bessel functions
# scipy and 40-digit mpmath are test-only oracles.  Errors are measured in
# units of eps times the conditioning scale of each function: for the
# I-ratio |nu log(x/2)| + |log I_nu(x)|, the two terms it is the difference
# of; for psi(u) = Gamma(nu+1) (2/u)^nu J_nu(u) the larger of |psi| and
# Gamma(nu+1) |2/u|^nu sqrt(|J_nu|^2 + |Y_nu|^2), the modulus that J
# oscillates under.  In every regime the native error may not exceed
# scipy's on the same points by more than a few units.

_EPS = np.finfo(float).eps
_RNG = np.random.default_rng(20261018)


def _ratio_error_units(nu, xs, got):
    units = []
    for x, g in zip(xs, got):
        li = mp.log(mp.besseli(nu, mp.mpf(x), maxterms=10 ** 6))
        ref = nu * mp.log(mp.mpf(x) / 2) - li
        scale = abs(nu * math.log(x / 2)) + abs(float(li))
        units.append(abs(g - float(ref)) / (_EPS * scale))
    return max(units)


def _scipy_ratio(nu, xs):
    from scipy.special import ive
    with np.errstate(all="ignore"):
        return nu * np.log(xs / 2.0) - (np.log(ive(nu, xs)) + xs)


@pytest.mark.parametrize("regime, nus, xs", [
    ("series", [-0.5, -0.45, 0.0, 0.5, 1.3, 3.5, 12.0, 49.0], [1e-3, 0.4, 2.0, 3.99, 4.01, 11.0, 19.9]),
    ("hankel", [-0.45, 0.0, 0.5, 1.3, 3.1], [20.1, 27.0, 45.0, 120.0, 690.0]),
    ("shifted", [3.5, 7.2, 15.5, 30.0, 49.9], [20.5, 35.0, 60.0, 150.0, 400.0]),
    ("debye", [50.0, 80.0, 200.5, 1000.5], [0.5, 19.0, 25.0, 178.0, 1010.0, 5000.0])])
def test_log_i_ratio_against_40_digits_no_worse_than_scipy(regime, nus, xs):
    for nu in nus:
        xs_ = np.array(xs)
        ours = _ratio_error_units(nu, xs_, log_i_ratio(nu, xs_))
        theirs = _scipy_ratio(nu, xs_)
        ok = np.isfinite(theirs)
        floor = _ratio_error_units(nu, xs_[ok], theirs[ok]) if ok.any() else 0.0
        assert ours <= max(floor, 2.0), (regime, nu, ours, floor)


def test_log_i_ratio_at_large_order_against_40_digits():
    # from nu = 50, below the Hankel regime, log_i_ratio is log Gamma(nu+1)
    # less the core's Debye at order nu, whose terms hold no log of size nu;
    # a Debye expansion of log I_nu itself was 33 eps off at (60.3, 300)
    xs = np.array([20.5, 30.0, 50.0, 100.0, 300.0, 1000.0, 3000.0, 1e4])
    for nu in (50.0, 60.3, 100.5, 300.5, 1000.5, 10000.5):
        for x, got in zip(xs.tolist(), log_i_ratio(nu, xs).tolist()):
            with mp.workdps(40):
                ref = float(nu * mp.log(mp.mpf(x) / 2) - mp.log(mp.besseli(nu, mp.mpf(x))))
            assert abs(got - ref) <= 16 * _EPS * max(1.0, abs(ref)), (nu, x, got, ref)


def test_debye_polynomials_equal_the_numpy_polynomial_recursion_bit_for_bit():
    from numpy.polynomial import polynomial as P
    want = [np.array([1.0])]
    for _ in range(_DEBYE_TERMS - 1):
        u = want[-1]
        want.append(P.polyadd(P.polymul([0.0, 0.0, 0.5, 0.0, -0.5], P.polyder(u)),
                              P.polyint(P.polymul([1.0, 0.0, -5.0], u)) / 8.0))
    got = _debye_polynomials()
    assert got.shape == (len(want), want[-1].size) and not got.flags.writeable
    for g, w in zip(got, want):
        np.testing.assert_array_equal(g[:w.size].view(np.int64), w.view(np.int64))
        assert not np.any(g[w.size:])
    assert got[1, :4].tolist() == [0.0, 3 / 24, 0.0, -5 / 24]      # U_1 = (3p - 5p^3)/24


def test_log_bessel_i_and_bessel_i_against_40_digits():
    from scipy.special import iv
    for nu in (-0.45, 0.0, 1.5, 3.5, 12.0, 60.0, 200.5):
        for x in (1e-3, 0.7, 3.0, 9.0, 19.0, 33.0, 150.0, 650.0):
            ref = mp.besseli(nu, mp.mpf(x))
            lb = log_bessel_i(nu, x)
            assert abs(lb - float(mp.log(ref))) <= 4 * _EPS * (abs(float(mp.log(ref)))
                                                               + abs(nu * math.log(x / 2)))
            if mp.mpf("1e-300") < ref < mp.mpf("1e300"):
                err = abs(bessel_i(nu, x) - float(ref)) / float(ref)
                sc = abs(float(iv(nu, x)) - float(ref)) / float(ref)
                assert err <= max(sc, 8 * _EPS), (nu, x, err, sc)


@pytest.mark.parametrize("nu, x", [(60.0, 710.0), (20.0, 709.9), (250.0, 720.0), (300.0, 750.0)])
def test_bessel_i_past_the_product_range_is_the_exponential_of_its_log(nu, x):
    # past x = 709.78, where e^x leaves the doubles, and below the Hankel
    # regime, bessel_i is exp(log_bessel_i), whose rounding grows with
    # |log I_nu(x)|: 818 eps off at (60, 710), where scipy's iv is 28.5 eps
    # off, and 94, 92 and 412 eps at the others (ROADMAP item 9)
    ref = mp.besseli(nu, mp.mpf(x))
    got = bessel_i(nu, x)
    assert got == math.exp(log_bessel_i(nu, x))
    assert abs(got - float(ref)) / float(ref) <= 2 * _EPS * abs(float(mp.log(ref)))


def _psi_values(nu, us):
    """psi at the entries of us as complex doubles, values 2^bits of `_psi`."""
    from ellipsegas.specialfns import _ldexp, _psi
    return _ldexp(*_psi(nu, np.asarray(us, dtype=complex)))


def _psi_error_units(nu, us, got):
    units = []
    for u, g in zip(us, got):
        mu = mp.mpc(u)
        ref = mp.hyp0f1(nu + 1, -mu ** 2 / 4)
        modulus = (mp.gamma(nu + 1) * abs(2 / mu) ** nu
                   * mp.sqrt(abs(mp.besselj(nu, mu)) ** 2 + abs(mp.bessely(nu, mu)) ** 2))
        units.append(abs(g - complex(ref)) / (_EPS * float(max(abs(ref), modulus))))
    return max(units)


def _points(r0, r1, count, im_max=None):
    r = _RNG.uniform(r0, r1, count)
    u = r * np.exp(1j * _RNG.uniform(-math.pi, math.pi, count))
    if im_max is not None:
        u = u.real + 1j * np.clip(u.imag, -im_max, im_max)
    return u


@pytest.mark.parametrize("regime, us", [
    ("series, edge strip", _points(0.05, 4.0, 12, 1.5)),
    ("series, any direction", _points(0.05, 4.0, 12)),
    ("miller, edge strip", _points(4.0, 20.0, 12, 1.5)),
    ("miller, any direction", _points(4.0, 20.0, 12)),
    ("miller, real line", np.linspace(4.2, 19.8, 9) + 0j),
    ("hankel", _points(20.0, 60.0, 12)),
    ("w_max", np.array([60.0, -60.0, 60.0j, 42.4 + 42.4j, 0.5 + 59.99j]))])
@pytest.mark.parametrize("nu", [-0.45, 0.0, 0.5, 1.3, 3.5, -5e-324])
def test_psi_against_40_digits_no_worse_than_scipy(regime, us, nu):
    from scipy.special import jv
    ours = _psi_error_units(nu, us, _psi_values(nu, us))
    scipy_psi = [complex(mp.mpc(complex(jv(max(nu, 0.0) if nu < 0 and nu > -1e-300 else nu, u)))
                         * mp.gamma(nu + 1) * (2 / mp.mpc(u)) ** nu) for u in us]
    theirs = _psi_error_units(nu, us, scipy_psi)
    assert ours <= max(theirs, 16.0), (regime, nu, ours, theirs)


@pytest.mark.parametrize("nu", [8.0, 30.0, 200.5])
def test_psi_at_large_order_against_40_digits(nu):
    us = np.concatenate([_points(0.05, 60.0, 16), [60.0, 30j, 12 + 8j]])
    assert _psi_error_units(nu, us, _psi_values(nu, us)) <= 16.0


def test_psi_answers_within_1e_12_on_the_whole_c_rule_range():
    # psi's backward recurrence in the order once ran |u|^2/4 steps and passed
    # mu = |u|/2, where |psi_mu| is about e^(-|u|/2): from |u| = 1450 at
    # nu = 30.5 it returned values 2e-9 to 31 relative off, and with a range
    # rule it then answered only 25, 24, 19 and 19 of the points below at
    # arg u <= 0.3, refusing the rest.
    # Each route now carries its power of two, and every point answers within
    # 1e-12 relative of 40-digit hyp0f1, the I side's core in at most
    # 2|u| - nu steps
    from ellipsegas import specialfns
    grid = {nu: [r * cmath.exp(1j * angle) for r in (1.0, 30.0, 300.0, 1000.0, 1400.0, 1450.0,
                                                        1500.0, 2500.0, 3840.0)
                 for angle in (0.0, 0.1, 0.3, math.pi / 4)]
            + [1j * y for y in (1.0, 30.0, 100.0, 345.0)] for nu in (0.5, 30.5, 100.5, 300.5)}
    grid[30.5].append(1500.0 * cmath.exp(0.2j))
    for nu, us in grid.items():
        for u in us:
            values, bits = specialfns._psi(nu, np.array([u]))
            got = mp.mpc(complex(values[0])) * mp.mpf(2) ** int(bits[0])
            ref = mp.hyp0f1(nu + 1, -mp.mpc(u) ** 2 / 4)
            assert abs(got / ref - 1) <= 1e-12, (nu, u, got)
    # one call on points whose psi are further apart than the doubles' range:
    # each entry keeps its own power of two, its value in [1/2, 1)
    values, bits = specialfns._psi(100.5, np.array([1.0, 3840.0 * cmath.exp(0.3j), 2500.0]))
    assert np.all((0.5 <= np.abs(values)) & (np.abs(values) < 1.0))
    assert bits[0] == 0 and bits[1] > 1024 and bits[1] - bits[2] > 1074


def test_bessel_j_against_40_digits_at_the_regime_edges():
    for nu in (-0.45, 0.0, 0.5, 3.5, 200.5, -5e-324):
        for w in (0.3 + 0.1j, 3.99, 4.01 - 0.5j, 19.9j, 20.1 + 0.2j, W_MAX, -W_MAX * 1j,
                  W_MAX * (0.6 + 0.8j)):
            got = bessel_j(nu, w)
            ref = mp.besselj(nu, mp.mpc(w))
            mod = mp.sqrt(abs(ref) ** 2 + abs(mp.bessely(nu, mp.mpc(w))) ** 2)
            assert abs(got - complex(ref)) <= 64 * _EPS * float(max(abs(ref), mod)), (nu, w)


def test_bessel_j_at_zero():
    assert bessel_j(0.0, 0.0) == 1.0
    assert bessel_j(0.5, 0.0) == 0.0
    assert bessel_j(-0.45, 0.0).real == math.inf


# ------------------------------------- one series core, the ways to reach it

@pytest.mark.parametrize("nu", [-0.45, 0.0, 1.5, 30.0])
@pytest.mark.parametrize("r", [1.0, 3.0, 3.99, 4.01, 8.0, 15.0])
def test_phi_psi_and_bessel_j_agree(nu, r):
    # _phi runs the cached table of c^2k up to r = max |c root| = 4 and _psi
    # past it; _psi on the whole rule starts the recurrence at the largest
    # node's m, bessel_j at each node's own.  m = 0 and m > 0 both occur on
    # the table path (nu = 1.5 at r = 3 and 3.99) and past it (nu = 30 at
    # r = 8 and 15).  Pairwise they agree within 16 eps of the modulus of J,
    # taken no larger than the sum of the series' |terms|.
    from ellipsegas.quadrature import UNIT_INTERVAL, _gauss_rule
    from ellipsegas.specialfns import _SHORT_SERIES_MAX, _ldexp, _phi
    rule = (UNIT_INTERVAL, 64)
    c = _gauss_rule(*rule)[0]
    some = np.r_[0:64:9, 63]        # every ninth node and the largest
    for angle in (0.0, 0.3, 1.2):
        root = r / c[-1] * complex(math.cos(angle), math.sin(angle))
        assert (r <= _SHORT_SERIES_MAX) == (abs(root) * c[-1] <= _SHORT_SERIES_MAX)
        us = c * root
        phi, bits = _phi(nu, rule, root)
        assert np.any(bits) <= (r > _SHORT_SERIES_MAX)
        ways = {"phi": _ldexp(phi, bits)[some],
                "psi": _psi_values(nu, us)[some],
                "bessel_j": np.array([bessel_j(nu, u) * math.gamma(nu + 1.0) / (u / 2.0) ** nu
                                      for u in us[some].tolist()])}
        scale = np.array([_psi_scale(nu, u) for u in us[some].tolist()])
        for (n1, v1), (n2, v2) in itertools.combinations(ways.items(), 2):
            units = np.max(np.abs(v1 - v2) / (_EPS * scale))
            assert units <= 16.0, (n1, n2, angle, units)


@pytest.mark.parametrize("nu", [-0.5, 0.3, 30.0, 84.9, 140.0, 169.9, 170.0, 200.5, 1000.25,
                                1e5 + 0.5, 1e12 + 0.75])
def test_phi_zero_is_a_mantissa_and_a_power_of_two(nu):
    # phi(0) = 2^-nu / Gamma(nu+1) = m 2^k at any order: below 170 the bits
    # of the quotient 0.5^nu / math.gamma(nu+1) wherever that is normal,
    # above it split from ln_gamma, whose rounding, up to eps lnGamma(nu+1)
    # absolute, it carries (0.93 of that at nu = 170)
    m, k = _phi_zero(nu)
    assert 0.5 <= m < 1.0 and isinstance(k, int)
    ref = mp.mpf(2) ** -mp.mpf(nu) / mp.gamma(mp.mpf(nu) + 1)
    err = abs(mp.mpf(m) * mp.mpf(2) ** k / ref - 1)
    if nu < 170.0:
        assert err <= 2 * _EPS
        if nu < 140.0:
            assert math.ldexp(m, k) == 0.5 ** nu / math.gamma(nu + 1.0)
    else:
        assert err <= 2 * _EPS * ln_gamma(nu + 1.0)


def _psi_scale(nu, u):
    """max(|psi|, min(modulus, sum of |terms|)) at u: the modulus
    Gamma(nu+1) |2/u|^nu sqrt(|J|^2 + |Y|^2) that J oscillates under, where
    the series' own terms are no smaller."""
    mu = mp.mpc(u)
    terms = mp.hyp0f1(nu + 1, abs(mu) ** 2 / 4)
    modulus = (mp.gamma(nu + 1) * abs(2 / mu) ** nu
               * mp.sqrt(abs(mp.besselj(nu, mu)) ** 2 + abs(mp.bessely(nu, mu)) ** 2))
    return float(max(abs(mp.hyp0f1(nu + 1, -mu ** 2 / 4)), min(modulus, terms)))
