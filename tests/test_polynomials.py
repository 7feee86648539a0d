import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from scipy.special import gammaln

import ellipsegas.polynomials as polynomials
from ellipsegas import (DomainError, EllipseGeometry, FiniteKernel, GasFamily, OutOfRangeError,
                        PolyFamily, PolyKind, ScaledValue, chebyshev_t, chebyshev_u,
                        chebyshev_v, gegenbauer, jacobi, joukowsky_inverse,
                        monic_value, squared_norm)
from ellipsegas.polynomials import (log_monic_factors, log_raw_norms, log_squared_norms,
                                    monic_scaled_sequence, scaled_sequence)

from conftest import interior_points


def gegenbauer_explicit(n, a, z):
    """Direct evaluation of the defining finite sum (independent of the
    recurrence code path)."""
    tot = 0.0 + 0.0j
    for j in range(n // 2 + 1):
        lg = (gammaln(n + a - j + 1) - gammaln(a + 1) - gammaln(j + 1)
              - gammaln(n - 2 * j + 1))
        tot += (-1) ** j * math.exp(lg) * (2 * z) ** (n - 2 * j)
    return tot


# ----------------------------------------------------------------- examples

def test_gegenbauer_low_degree_values():
    assert gegenbauer(0, 1.0, 3 + 2j).value == 1.0
    assert gegenbauer(1, 1.0, 0.5).value == pytest.approx(2.0)
    # C_2^{(1)}(1) = U_2(1) = 3
    assert gegenbauer(2, 0.0, 1.0).value == pytest.approx(3.0)


def test_gegenbauer_matches_explicit_sum():
    rng = np.random.default_rng(7)
    for a in (-0.5, 0.0, 1.0, 2.5):
        for n in (3, 10, 17, 30):
            z = complex(rng.uniform(-1, 1), rng.uniform(-0.5, 0.5))
            got = gegenbauer(n, a, z).value
            ref = gegenbauer_explicit(n, a, z)
            assert abs(got - ref) <= 1e-10 * max(1.0, abs(ref))


def test_jacobi_degree_zero_and_reflection():
    assert jacobi(0, 1.7, 0.5, 0.3 + 0.1j).value == 1.0
    # P_n^{(alpha,gamma)}(-z) = (-1)^n P_n^{(gamma,alpha)}(z)
    lhs = jacobi(3, 1.5, 0.5, -0.4).value
    rhs = -jacobi(3, 0.5, 1.5, 0.4).value
    assert lhs == pytest.approx(rhs, rel=1e-10)


def test_jacobi_gegenbauer_connection():
    # C_n^{(a+1)} = Gamma(n+2a+2)Gamma(a+3/2)/(Gamma(2a+2)Gamma(n+a+3/2)) P_n^{(a+1/2,a+1/2)}
    rng = np.random.default_rng(11)
    for a in (-0.5, 0.0, 1.0, 2.5):
        geo = EllipseGeometry(0.5)
        for z in interior_points(geo, 10, rng):
            for n in (0, 1, 5, 12, 20):
                ratio = math.exp(gammaln(n + 2 * a + 2) + gammaln(a + 1.5)
                                 - gammaln(2 * a + 2) - gammaln(n + a + 1.5))
                lhs = gegenbauer(n, a, z).value
                rhs = ratio * jacobi(n, a + 0.5, a + 0.5, z).value
                assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(rhs))


def test_gegenbauer_quadratic_maps():
    # C_{2l}^{(a+1)}(x) and C_{2l+1}^{(a+1)}(x) in terms of P_l^{(+-1/2, a+1/2)}(1-2x^2)
    rng = np.random.default_rng(13)
    for a in (-0.5, 0.0, 1.0, 2.5):
        for _ in range(6):
            x = complex(rng.uniform(-0.9, 0.9), rng.uniform(-0.3, 0.3))
            for l in (0, 1, 3, 7):
                arg = 1 - 2 * x * x
                even = math.exp(gammaln(l + a + 1) + gammaln(0.5)
                                - gammaln(a + 1) - gammaln(l + 0.5))
                lhs = gegenbauer(2 * l, a, x).value
                rhs = even * (-1) ** l * jacobi(l, -0.5, a + 0.5, arg).value
                assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(rhs))
                odd = math.exp(gammaln(l + a + 2) + gammaln(0.5)
                               - gammaln(a + 1) - gammaln(l + 1.5))
                lhs = gegenbauer(2 * l + 1, a, x).value
                rhs = odd * (-1) ** l * x * jacobi(l, 0.5, a + 0.5, arg).value
                assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(rhs))


def test_gegenbauer_parity():
    rng = np.random.default_rng(17)
    for n in range(9):
        z = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        assert gegenbauer(n, 1.3, -z).value == pytest.approx(
            (-1) ** n * gegenbauer(n, 1.3, z).value, rel=1e-12)


def test_gegenbauer_special_value_at_one():
    # C_n^{(a+1)}(1) = Gamma(n+2a+2)/(Gamma(2a+2) Gamma(n+1)), log-space
    for a in (-0.5, 0.0, 1.0, 2.5):
        fam = PolyFamily(PolyKind.GEGENBAUER, a)
        mant, logs = scaled_sequence(fam, 50, 1.0)
        for n in range(51):
            lref = gammaln(n + 2 * a + 2) - gammaln(2 * a + 2) - gammaln(n + 1)
            lgot = logs[n, 0] + math.log(mant[n, 0].real)
            assert lgot == pytest.approx(lref, abs=1e-10)


def test_gegenbauer_generating_function():
    # sum_n C_n^{(lam)}(x) r^n = (1-2rx+r^2)^{-lam} at (lam, x, r) = (2, 0.3, 0.4)
    lam, x, r = 2.0, 0.3, 0.4
    mant, logs = scaled_sequence(PolyFamily(PolyKind.GEGENBAUER, lam - 1.0), 60, x)
    vals = (mant * np.exp(logs))[:, 0]
    acc = sum(vals[n].real * r ** n for n in range(61))
    target = (1 - 2 * r * x + r * r) ** (-lam)
    # geometric truncation bound: |C_n r^n| <= (n+1)^{2lam-1} (r(|x|+sqrt(..)))^n
    assert acc == pytest.approx(target, abs=1e-9)


def test_chebyshev_values():
    for n in range(7):
        assert chebyshev_u(n, 1.0) == pytest.approx(n + 1.0, rel=1e-12)
    assert chebyshev_t(3, 0.5) == pytest.approx(-1.0, rel=1e-12)  # cos(3 pi/3)
    assert chebyshev_v(0, 0.37 + 2j) == 1.0


def test_chebyshev_joukowsky_closed_forms():
    rng = np.random.default_rng(23)
    for _ in range(10):
        z = complex(rng.uniform(-2, 2), rng.uniform(0.1, 1.5))
        om = joukowsky_inverse(z)
        rt = np.sqrt(om)
        for n in range(8):
            t_ref = (om ** n + om ** (-n)) / 2.0
            u_ref = (om ** (n + 1) - om ** (-n - 1)) / (om - 1 / om)
            v_ref = (rt ** (2 * n + 1) - rt ** (-2 * n - 1)) / (rt - 1 / rt)
            assert abs(chebyshev_t(n, z) - t_ref) <= 1e-10 * max(1, abs(t_ref))
            assert abs(chebyshev_u(n, z) - u_ref) <= 1e-10 * max(1, abs(u_ref))
            assert abs(chebyshev_v(n, z) - v_ref) <= 1e-10 * max(1, abs(v_ref))


# ------------------------------------------------------------------- monic

def test_monic_low_degree():
    assert monic_value(PolyFamily(PolyKind.GEGENBAUER, 0.0), 1, 0.7 + 0.1j).value \
        == pytest.approx(0.7 + 0.1j, rel=1e-13)
    # 2^{-2} T_3(2) with T_3(2) = 26
    assert monic_value(PolyFamily(PolyKind.CHEBYSHEV_T), 3, 2.0).value \
        == pytest.approx(6.5, rel=1e-13)
    # M_2(0) = -(1/4)(a+1)/(a+2) at a=1
    assert monic_value(PolyFamily(PolyKind.GEGENBAUER, 1.0), 2, 0.0).value \
        == pytest.approx(-1.0 / 6.0, rel=1e-13)


def _exact_monic_gegenbauer_coeffs(n, a_int):
    """Exact rational coefficients of M_n for integer a (powers z^0..z^n)."""
    coeffs = [Fraction(0)] * (n + 1)
    for j in range(n // 2 + 1):
        num = Fraction(math.factorial(n + a_int - j), math.factorial(a_int))
        den = Fraction(math.factorial(j) * math.factorial(n - 2 * j))
        coeffs[n - 2 * j] += (-1) ** j * num / den * Fraction(2) ** (n - 2 * j)
    kappa = (Fraction(math.factorial(a_int)) * math.factorial(n)
             / Fraction(math.factorial(n + a_int) * 2 ** n))
    return [kappa * c for c in coeffs]


@pytest.mark.parametrize("a_int", [0, 1, 3])
def test_monic_leading_coefficient_exact(a_int):
    # symbolic check, n <= 6: coefficient of z^n is exactly 1
    for n in range(7):
        coeffs = _exact_monic_gegenbauer_coeffs(n, a_int)
        assert coeffs[n] == 1
        # and the numeric monic value agrees with the exact polynomial
        z = 0.3 + 0.4j
        exact = sum(float(c) * z ** k for k, c in enumerate(coeffs))
        got = monic_value(PolyFamily(PolyKind.GEGENBAUER, float(a_int)), n, z).value
        assert abs(got - exact) <= 1e-12 * max(1.0, abs(exact))


# ------------------------------------------------------------- scaled pairs

def test_scaled_value_invariant_and_roundtrip():
    sv = ScaledValue.of(-3.75 + 2.5j)
    assert 0.5 <= abs(sv.mantissa) < 2.0
    assert sv.value == pytest.approx(-3.75 + 2.5j, rel=1e-15)
    zero = ScaledValue.of(0.0)
    assert zero.mantissa == 0.0 and zero.log_scale == 0.0


def test_subnormal_values_keep_finite_mantissas():
    # the factor 2^-k that normalises a subnormal value leaves the double
    # range, so it is applied in two factors
    fam = PolyFamily(PolyKind.GEGENBAUER, 300.0)
    for z in (5e-324j, np.array([5e-324j, 0.3 + 0.1j])):
        mant, logs = scaled_sequence(fam, 600, z)
        assert np.all(np.isfinite(mant)) and not np.isnan(logs).any()
        live = np.abs(mant) > 0.0
        assert np.all((0.5 <= np.abs(mant[live])) & (np.abs(mant[live]) < 2.0))
    # C_1^(301)(z) = 602 z
    sv = gegenbauer(1, 300.0, 5e-324j)
    assert sv.mantissa == 0.587890625j and sv.value == pytest.approx(602 * 5e-324j, rel=1e-12)
    for z in (5e-321j, -5e-324, 3e-310 - 4e-310j):
        sv = ScaledValue.of(z)
        assert 0.5 <= abs(sv.mantissa) < 2.0 and sv.value == pytest.approx(z, rel=1e-12)
    # a normal value keeps its bits
    assert ScaledValue.of(-3.75 + 2.5j).mantissa == (-3.75 + 2.5j) / 8.0


def test_scaled_value_of_is_the_normalisation_of_the_table():
    # the top degree of the recurrence p_1 = z is z itself, so ScaledValue.of
    # and the normalised table give the same pair, bit for bit, on normal,
    # subnormal and zero values
    coefs = (np.zeros(2), np.ones(2), np.zeros(2))

    def bits(sv):
        return np.complex128(sv.mantissa).tobytes(), np.float64(sv.log_scale).tobytes()

    for z in (-3.75 + 2.5j, 1e300j, 3e-200 + 1e-210j, 7.0, 2.0 ** 1023, 5e-324j,
              3e-310 - 4e-310j, -5e-324, 1e-310 + 1e300j, 0.0, 0j):
        got, table = ScaledValue.of(z), polynomials._scaled_at(coefs, z)
        assert bits(got) == bits(table), z
        assert got.value == pytest.approx(z, rel=1e-12) if z else got == ScaledValue(0.0, 0.0)


def test_values_past_the_double_range_are_refused():
    with pytest.raises(OutOfRangeError, match="leaves the double range"):
        chebyshev_t(2000, 2.0)
    with pytest.raises(OutOfRangeError, match="leaves the double range"):
        gegenbauer(3000, 0.5, 3.0).value
    # a log scale in range whose product with the mantissa rounds to inf
    near_max = math.log(sys.float_info.max) - 0.1
    with pytest.raises(OutOfRangeError):
        ScaledValue(1.5 + 0j, near_max).value
    with pytest.raises(OutOfRangeError):
        ScaledValue(-1.5j, near_max).value
    assert ScaledValue(0.75 + 0j, near_max).value.real == 0.75 * math.exp(near_max)


def test_scaled_sequence_roundtrip_against_plain():
    # wherever plain double evaluation does not overflow the two agree
    fam = PolyFamily(PolyKind.GEGENBAUER, 1.0)
    z = 1.1 + 0.3j
    mant, logs = scaled_sequence(fam, 40, z)
    plain_prev, plain_curr = 1.0 + 0j, 2 * 2.0 * z
    assert mant[0, 0] * math.exp(logs[0, 0]) == 1.0
    for n in range(2, 41):
        nxt = (2 * (n + 1.0) * z * plain_curr - (n + 2.0) * plain_prev) / n
        plain_prev, plain_curr = plain_curr, nxt
        got = mant[n, 0] * math.exp(logs[n, 0])
        assert abs(got - plain_curr) <= 1e-12 * abs(plain_curr)
    nz = np.abs(mant) > 0
    assert np.all(np.abs(mant[nz]) >= 0.5) and np.all(np.abs(mant[nz]) < 2.0)


def test_scaled_sequence_survives_huge_argument_and_degree():
    # C_n(1/tau) at tau = 1e-6 up to n = 2000 would overflow any double
    mant, logs = scaled_sequence(PolyFamily(PolyKind.GEGENBAUER, 0.0), 2000, 1e6)
    assert np.all(np.isfinite(logs[:, 0]))
    assert logs[-1, 0] > 2000 * math.log(1e6)  # ~ (2e6)^n growth


# ------------------------------------------------------------------- norms

def test_norm_examples():
    geo = EllipseGeometry(0.6)
    gas = GasFamily(PolyKind.GEGENBAUER, 0.0)
    assert math.exp(squared_norm(gas, geo, 0)) == pytest.approx(2 * math.pi / 3, rel=1e-12)
    # A = pi sqrt(1-tau^2) / (2 tau (a+1)) for general a
    for a, tau in ((1.0, 0.5), (2.5, 0.3), (-0.5, 0.7)):
        geo = EllipseGeometry(tau)
        ref = math.pi * math.sqrt(1 - tau ** 2) / (2 * tau * (a + 1))
        got = math.exp(squared_norm(GasFamily(PolyKind.GEGENBAUER, a), geo, 0))
        assert got == pytest.approx(ref, rel=1e-12)
    # Chebyshev-I zero mode: 2 pi log v
    geo = EllipseGeometry(0.5)
    got = math.exp(squared_norm(GasFamily(PolyKind.CHEBYSHEV_T), geo, 0))
    assert got == pytest.approx(2 * math.pi * math.log(geo.v), rel=1e-12)


# log h_n of the raw polynomials at n = 0, 10, 9999, from the Gegenbauer form
# C_{2n+off-1}^(a+1)(semi_x) in 50-digit mpmath at the tau given; at
# tau = 1 - 1e-6 and n = 9999 the value moves by ~1e-10 when 1/tau is rounded,
# so that degree is left out there
_JACOBI_LOG_RAW_NORMS_50_DIGITS = {
    ("jacobi-plus", -0.99, 1e-06): (19.5554602989481, 161.1566796546836, 145081.18827988324),
    ("jacobi-plus", -0.99, 0.5): (6.2892558853183775, 15.739380319130511, 13163.881078263326),
    ("jacobi-plus", -0.99, 0.999999): (-0.8212311977030264, -4.2707400609075306, None),
    ("jacobi-plus", 0.5, 1e-06): (13.638484603830856, 153.70923081662966, 145063.7771946652),
    ("jacobi-plus", 0.5, 0.5): (0.37228019020113556, 8.743485093394614, 13146.934717376227),
    ("jacobi-plus", 0.5, 0.999999): (-6.738206892820268, -8.57438687475978, None),
    ("jacobi-plus", 30.0, 1e-06): (8.060517336528301, 142.54041189315674, 144887.22646992299),
    ("jacobi-plus", 30.0, 0.5): (-5.205687077101418, 0.5348126578848801, 12979.568203860757),
    ("jacobi-plus", 30.0, 0.999999): (-12.316174160122822, -11.632114220857883, None),
    ("jacobi-minus", -0.99, 1e-06): (13.00422844109935, 153.21067893259104, 145073.24080533357),
    ("jacobi-minus", -0.99, 0.5): (6.0964736621174636, 14.389239459012838, 13162.529453634437),
    ("jacobi-minus", -0.99, 0.999999): (-0.8112811168500459, -4.962921592285664, None),
    ("jacobi-minus", 0.5, 1e-06): (7.993593147003096, 145.9656301990349, 145055.82994361443),
    ("jacobi-minus", 0.5, 0.5): (1.0858383680212085, 7.595087551326728, 13145.583316245582),
    ("jacobi-minus", 0.5, 0.999999): (-5.821916410946301, -9.131102653011803, None),
    ("jacobi-minus", 30.0, 1e-06): (4.965071050626114, 136.4494441709197, 144879.28363586898),
    ("jacobi-minus", 30.0, 0.5): (-1.9426837283557734, 0.9299653093672956, 12978.221218878918),
    ("jacobi-minus", 30.0, 0.999999): (-8.850438507323283, -10.943646914750278, None),
}


@pytest.mark.parametrize("case", sorted(_JACOBI_LOG_RAW_NORMS_50_DIGITS), ids=repr)
def test_jacobi_raw_norms_match_50_digit_values(case):
    kind, a, tau = case
    lh = log_raw_norms(GasFamily(PolyKind(kind), a), EllipseGeometry(tau), 9999)
    for n, ref in zip((0, 10, 9999), _JACOBI_LOG_RAW_NORMS_50_DIGITS[case]):
        if ref is not None:
            # a few eps of the log-gamma terms that cancel at small n, and
            # 18 eps of log h_n itself
            assert abs(lh[n] - ref) <= 1e-13 + 4e-15 * abs(ref)


@pytest.mark.parametrize("tau", [1e-6, 0.5, 1 - 1e-6])
def test_gegenbauer_and_chebyshev_raw_norms_keep_their_bits(tau):
    # the closed forms, operation for operation, that the density files and
    # chains of these gases were computed with
    geo = EllipseGeometry(tau)
    n = np.arange(10_000)
    for a in (-0.99, 0.5, 30.0):
        mant, logs = scaled_sequence(PolyFamily(PolyKind.GEGENBAUER, a), 9999, 1.0 / tau)
        pref = math.log(math.pi * math.sqrt((1 - tau) * (1 + tau)) / (2 * tau))
        ref = logs[:, 0] + (np.log(mant[:, 0].real) + pref - np.log(n + a + 1))
        got = log_raw_norms(GasFamily(PolyKind.GEGENBAUER, a), geo, 9999)
        np.testing.assert_array_equal(got.view(np.int64), ref.view(np.int64))
    log_v = math.asinh(geo.semi_y)
    for kind, shift, c in ((PolyKind.CHEBYSHEV_T, 0, 2.0), (PolyKind.CHEBYSHEV_U, 2, 2.0),
                           (PolyKind.CHEBYSHEV_V, 1, 1.0)):
        m = 2 * n + shift
        ms = np.maximum(m, 1)
        t = ms * log_v
        lh = math.log(math.pi) + (t + np.log(-np.expm1(-2.0 * t))) - np.log(c * ms)
        ref = np.where(m == 0, math.log(2 * math.pi * log_v), lh)
        got = log_raw_norms(GasFamily(kind), geo, 9999)
        np.testing.assert_array_equal(got.view(np.int64), ref.view(np.int64))


@pytest.mark.parametrize("kind, off", [(PolyKind.JACOBI_PLUS, 2), (PolyKind.JACOBI_MINUS, 1)])
@pytest.mark.parametrize("a", [-0.99, 0.5, 30.0])
def test_jacobi_monic_factors_match_40_digits(kind, off, a):
    # kappa_n = 2^n n! Gamma(n+b)/Gamma(2n+b), b = a + off: the inverse leading
    # coefficient of P_n^(a+1/2, off-3/2)
    mpmath = pytest.importorskip("mpmath")
    ns = (0, 1, 2, 12, 13, 100, 1000, 9999, 10_000)
    got = log_monic_factors(PolyFamily(kind, a), 10_000)
    with mpmath.workdps(40):
        b = mpmath.mpf(a) + off
        for n in ns:
            ref = (n * mpmath.log(2) + mpmath.loggamma(n + 1) + mpmath.loggamma(n + b)
                   - mpmath.loggamma(2 * n + b))
            assert abs(got[n] - float(ref)) <= 1e-12


def test_chebyshev_u_norms_match_gegenbauer_a0():
    geo = EllipseGeometry(0.45)
    lu = log_squared_norms(GasFamily(PolyKind.CHEBYSHEV_U), geo, 12)
    lg = log_squared_norms(GasFamily(PolyKind.GEGENBAUER, 0.0), geo, 12)
    np.testing.assert_allclose(lu, lg, rtol=1e-11)


def test_norms_strictly_positive_logs_finite():
    for tau in (0.3, 0.7):
        geo = EllipseGeometry(tau)
        for kind, a in ((PolyKind.GEGENBAUER, 2.5), (PolyKind.JACOBI_PLUS, 1.0),
                        (PolyKind.JACOBI_MINUS, -0.5), (PolyKind.CHEBYSHEV_T, 0.0),
                        (PolyKind.CHEBYSHEV_V, 0.0)):
            lh = log_squared_norms(GasFamily(kind, a), geo, 30)
            assert np.all(np.isfinite(lh))


def test_monic_sequence_consistent_with_monic_value():
    fam = PolyFamily(PolyKind.JACOBI_MINUS, 1.0)
    z = -0.2 + 0.35j
    mant, logs = monic_scaled_sequence(fam, 6, z)
    for n in range(7):
        sv = monic_value(fam, n, z)
        assert mant[n, 0] * math.exp(logs[n, 0]) == pytest.approx(sv.value, rel=1e-12)


def test_family_validation():
    with pytest.raises(DomainError):
        PolyFamily(PolyKind.GEGENBAUER, -1.0)
    with pytest.raises(DomainError):
        PolyFamily(PolyKind.CHEBYSHEV_T, 0.5)
    with pytest.raises(DomainError):
        jacobi(2, -1.5, 0.5, 0.1)


def test_hermitian_limit_of_norms_matches_jacobi_closed_form():
    # tau -> 1: h_n / A -> h_n^Jacobi / B with
    # h_n^Jacobi = pi n! Gamma(n+2a+2) / (4^{2n+2a+1}^(1/2) ... ) on [-1,1]
    tau = 1 - 1e-6
    geo = EllipseGeometry(tau)
    for a in (0.0, 1.0, 2.5):
        A = math.pi * math.sqrt(1 - tau ** 2) / (2 * tau * (a + 1))
        B = math.sqrt(math.pi) * math.exp(gammaln(a + 1.5) - gammaln(a + 2))
        for n in (0, 1, 3, 6):
            hj = (math.pi * math.exp(gammaln(n + 1) + gammaln(n + 2 * a + 2)
                                     - gammaln(n + a + 2) - gammaln(n + a + 1))
                  / 2.0 ** (2 * n + 2 * a + 1))
            h = math.exp(squared_norm(GasFamily(PolyKind.GEGENBAUER, a), geo, n))
            assert h / A == pytest.approx(hj / B, rel=5e-5)


def test_scaled_recurrence_reaches_1e5_degrees():
    # the pair recurrence claims stability to N ~ 1e5 at arguments 1/tau > 1
    mant, logs = scaled_sequence(PolyFamily(PolyKind.GEGENBAUER, 1.0), 100_000, 1 / 0.3)
    assert np.all(np.isfinite(logs[:, 0]))
    assert np.all(np.diff(logs[-1000:, 0]) > 0)   # geometric growth persists


@pytest.mark.parametrize("family", [PolyFamily(kind, a) for kind in PolyKind
                                    for a in ((-0.999, 0.0, 2.5) if kind in (
                                        PolyKind.GEGENBAUER, PolyKind.JACOBI_PLUS,
                                        PolyKind.JACOBI_MINUS) else (0.0,))],
                         ids=repr)
def test_single_point_and_batched_sequences_agree(family):
    # the plain-Python loop for one point and the vectorized loop for many
    # run the same recurrence; points near the foci and far outside included
    pts = [0.3 + 0.2j, 1.0, -1.0, 0.999999 + 1e-7j, -1.0000001, 0.0, 2.5 - 1.5j,
           1e6, 700.0 + 300.0j, 1e-3j]
    mb, lb = scaled_sequence(family, 600, np.array(pts))
    for i, z in enumerate(pts):
        ms, ls = scaled_sequence(family, 600, z)
        zero = ~np.isfinite(lb[:, i])
        assert np.array_equal(zero, ~np.isfinite(ls[:, 0]))
        rel = np.abs(ms[~zero, 0] * np.exp(ls[~zero, 0] - lb[~zero, i]) - mb[~zero, i])
        assert np.all(rel <= 1e-10 * np.abs(mb[~zero, i]))


def test_jacobi_general_parameters_match_closed_forms():
    # P_n^(0,0) are the Legendre polynomials; P_2 = (3z^2 - 1)/2
    z = 0.3 - 0.2j
    assert jacobi(2, 0.0, 0.0, z).value == pytest.approx((3 * z * z - 1) / 2, rel=1e-14)
    # P_n^(alpha, gamma)(1) = Gamma(n+alpha+1)/(Gamma(alpha+1) n!)
    for alpha, gamma in ((2.0, -0.7), (-0.3, 3.0)):
        got = jacobi(30, alpha, gamma, 1.0)
        ref = gammaln(31 + alpha) - gammaln(alpha + 1) - gammaln(31)
        assert got.log_scale + math.log(got.mantissa.real) == pytest.approx(ref, abs=1e-11)


def test_poly_family_is_the_gas_family():
    gas = GasFamily(PolyKind.JACOBI_MINUS, 1.5)
    assert PolyFamily is GasFamily
    assert PolyFamily(PolyKind.JACOBI_MINUS, 1.5) == gas


@pytest.mark.parametrize("kind, calls", [(PolyKind.JACOBI_PLUS, 2), (PolyKind.GEGENBAUER, 0)])
def test_kernel_construction_reads_the_raw_norms_without_monic_factors(monkeypatch, kind,
                                                                        calls):
    # the kernel is normalised by the raw norms alone: the Jacobi norms make
    # two array log-gamma calls, a log-beta and a log-gamma difference, the
    # Gegenbauer norms none, and no monic factor is computed
    array_calls = []

    def counting(real):
        def counted(*args):
            if any(np.ndim(v) for v in args):
                array_calls.append(args)
            return real(*args)
        return counted
    for name in ("ln_gamma", "ln_gamma_difference", "_log_beta"):
        monkeypatch.setattr(polynomials, name, counting(getattr(polynomials, name)))
    monkeypatch.setattr(polynomials, "log_monic_factors", None)
    FiniteKernel(GasFamily(kind, 0.75), EllipseGeometry(0.5), 100)
    assert len(array_calls) == calls


_SIX_FAMILIES = [PolyFamily(kind, 0.0 if kind.value.startswith("chebyshev") else 0.5)
                 for kind in PolyKind]


@pytest.mark.parametrize("family", _SIX_FAMILIES, ids=repr)
@pytest.mark.parametrize("tau", [1e-6, 0.5, 1 - 1e-6])
def test_a_float_argument_runs_the_real_parts_of_the_complex_run(family, tau):
    # the norms' recurrence at 1/tau, and one at any float such as semi_x,
    # runs in float arithmetic; every coefficient is real, so nothing but the
    # imaginary parts changes
    for x in (1.0 / tau, EllipseGeometry(tau).semi_x):
        mr, lr = scaled_sequence(family, 20_000, x)
        mc, lc = scaled_sequence(family, 20_000, complex(x))
        assert mr.dtype == mc.dtype == complex and not mr.imag.any()
        np.testing.assert_array_equal(mr.real.view(np.int64), mc.real.view(np.int64))
        np.testing.assert_array_equal(lr.view(np.int64), lc.view(np.int64))


@pytest.mark.parametrize("tau", [1e-6, 0.5, 1 - 1e-6])
def test_raw_norms_are_those_of_the_complex_run(monkeypatch, tau):
    # the float recurrence leaves the normalisation, and so the density
    # files, bit for bit as the complex one gave it
    geo = EllipseGeometry(tau)
    got = [log_raw_norms(gas, geo, 10_000) for gas in _SIX_FAMILIES]
    real = polynomials.scaled_sequence
    monkeypatch.setattr(polynomials, "scaled_sequence",
                        lambda family, n_max, z: real(family, n_max, complex(z)))
    for gas, lh in zip(_SIX_FAMILIES, got):
        np.testing.assert_array_equal(lh.view(np.int64),
                                      log_raw_norms(gas, geo, 10_000).view(np.int64))
