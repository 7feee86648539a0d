import gc
import math
import sys
import threading
import tracemalloc
import weakref

import numpy as np
import pytest
from scipy.special import gammaln

import ellipsegas.kernels_finite as kernels_finite
import ellipsegas.polynomials as polynomials
from ellipsegas import (DomainError, EllipseGeometry, FiniteKernel, GasFamily, PolyFamily,
                        PolyKind, QuadratureSpec, SingularPointError, correlation_k,
                        ellipse_deficit, kernel_elliptic_ginibre, kernel_eval,
                        kernel_truncated, kernel_truncated_edge, kernel_truncated_limit,
                        rule_for_gas, weight)
from ellipsegas.polynomials import log_raw_norms, scaled_sequence

from conftest import gas_cases, interior_points, wall_points


def gegenbauer_explicit(n, a, z):
    tot = 0.0 + 0.0j
    for j in range(n // 2 + 1):
        lg = (gammaln(n + a - j + 1) - gammaln(a + 1) - gammaln(j + 1)
              - gammaln(n - 2 * j + 1))
        tot += (-1) ** j * math.exp(lg) * (2 * z) ** (n - 2 * j)
    return tot


def kernel_direct_sum(a, tau, N, z1, z2):
    """Brute-force kernel from the explicit Gegenbauer sum: no recurrences,
    no log-scaling; usable at small N only."""
    geo = EllipseGeometry(tau)
    gas = GasFamily(PolyKind.GEGENBAUER, a)
    pref = 2 * tau / (math.pi * math.sqrt(1 - tau ** 2))
    acc = 0.0 + 0.0j
    for n in range(N):
        acc += ((n + a + 1) / gegenbauer_explicit(n, a, 1 / tau)
                * gegenbauer_explicit(n, a, z1)
                * gegenbauer_explicit(n, a, np.conj(z2)))
    w1 = weight(gas, geo, z1)
    w2 = weight(gas, geo, z2)
    return math.sqrt(w1 * w2) * pref * acc


def test_one_point_kernel_value():
    geo = EllipseGeometry(0.6)
    kern = FiniteKernel(GasFamily(PolyKind.GEGENBAUER, 0.0), geo, 1)
    assert kern.eval(0.0, 0.0) == pytest.approx(3 / (2 * math.pi), rel=1e-13)


def test_kernel_matches_direct_sum_oracle():
    a, tau, N = 1.0, 0.5, 6
    kern = FiniteKernel(GasFamily(PolyKind.GEGENBAUER, a), EllipseGeometry(tau), N)
    for z1, z2 in [(0.3 + 0.1j, -0.2 + 0j), (0.0, 0.0), (0.5 - 0.4j, 0.5 - 0.4j)]:
        ref = kernel_direct_sum(a, tau, N, z1, z2)
        got = kern.eval(z1, z2)
        assert abs(got - ref) <= 1e-11 * max(1.0, abs(ref))


@pytest.mark.parametrize("gas,geo", gas_cases(a_values=(1.0, -0.5), taus=(0.5,)))
def test_diagonal_real_nonnegative(gas, geo, rng):
    kern = FiniteKernel(gas, geo, 5)
    for z in interior_points(geo, 10, rng):
        val = kern.eval(z, z)
        assert abs(val.imag) <= 1e-12 * max(1.0, abs(val))
        assert val.real >= -1e-12


@pytest.mark.parametrize("gas,geo", gas_cases(a_values=(1.0, 2.5), taus=(0.3, 0.7)))
def test_hermitian_symmetry(gas, geo, rng):
    kern = FiniteKernel(gas, geo, 7)
    pts = interior_points(geo, 6, rng)
    for z1, z2 in zip(pts[:3], pts[3:]):
        k12 = kern.eval(z1, z2)
        k21 = kern.eval(z2, z1)
        assert abs(k12 - np.conj(k21)) <= 1e-12 * max(1.0, abs(k12))


def test_domain_and_singularity_errors():
    geo = EllipseGeometry(0.5)
    kern = FiniteKernel(GasFamily(PolyKind.GEGENBAUER, 1.0), geo, 3)
    with pytest.raises(DomainError):
        kern.eval(geo.semi_x + 0.1, 0.0)
    kern_t = FiniteKernel(GasFamily(PolyKind.CHEBYSHEV_T), geo, 3)
    with pytest.raises(SingularPointError):
        kern_t.eval(1.0, 0.2)
    with pytest.raises(DomainError):
        FiniteKernel(GasFamily(PolyKind.GEGENBAUER, 1.0), geo, 0)


def test_gegenbauer_kernel_parity(rng):
    geo = EllipseGeometry(0.4)
    kern = FiniteKernel(GasFamily(PolyKind.GEGENBAUER, 1.5), geo, 8)
    pts = interior_points(geo, 6, rng)
    for z1, z2 in zip(pts[:3], pts[3:]):
        assert kern.eval(-z1, -z2) == pytest.approx(kern.eval(z1, z2), rel=1e-11)


@pytest.mark.parametrize("gas,geo", gas_cases(a_values=(1.0,), taus=(0.5,)))
def test_reproducing_property(gas, geo):
    # int_E K(z1, w) K(w, z2) d2w = K(z1, z2) for the projection kernel
    N = 8
    kern = FiniteKernel(gas, geo, N)
    nodes, wq = rule_for_gas(gas, geo, QuadratureSpec())
    z1, z2 = 0.31 + 0.12j, -0.42 - 0.05j
    left = kern.eval_batch(z1, nodes)
    right = np.conj(kern.eval_batch(z2, nodes))
    val = np.sum(wq * left * right)
    ref = kern.eval(z1, z2)
    assert abs(val - ref) <= 1e-6 * max(1.0, abs(ref))


def test_trace_small_N():
    for gas, geo in gas_cases(a_values=(2.5,), taus=(0.3,)):
        kern = FiniteKernel(gas, geo, 4)
        nodes, wq = rule_for_gas(gas, geo, QuadratureSpec())
        tr = np.sum(wq * kern.diagonal(nodes))
        assert tr.real == pytest.approx(4.0, abs=1e-6)


# ------------------------------------------------------- reference kernels

def test_truncated_examples():
    assert kernel_truncated(0.0, 1, 0.0, 0.0) == pytest.approx(1 / math.pi, rel=1e-13)
    assert kernel_truncated(0.0, 400, 0.0, 0.0) == pytest.approx(1 / math.pi, rel=1e-13)
    z1, z2 = 0.3 + 0.2j, -0.1 + 0.4j
    k12 = kernel_truncated(1.5, 20, z1, z2)
    k21 = kernel_truncated(1.5, 20, z2, z1)
    assert abs(k12 - np.conj(k21)) <= 1e-13 * abs(k12)
    with pytest.raises(DomainError):
        kernel_truncated(0.0, 5, 1.2, 0.0)


@pytest.mark.parametrize("a", [200.0, 500.0])
def test_truncated_large_a_and_N_matches_its_limit(a):
    # exp(ln Gamma) of the coefficients overflows here; the log-space sum does not
    z = 0.3 + 0.1j
    got = kernel_truncated(a, 10_000, z, z)
    ref = kernel_truncated_limit(a, z, z)
    assert np.isfinite(got)
    assert abs(got - ref) <= 1e-11 * abs(ref)


def _truncated_diagonal_40_digits(a, N, z):
    """K_N^trunc(z, z) at 40 digits, with |z|^2 = x^2 + y^2 exact."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        q = mpmath.mpf(z.real) ** 2 + mpmath.mpf(z.imag) ** 2
        # sum_{n<N} (a+2)_n q^n / n! = (1-q)^-(a+2) I_{1-q}(a+2, N), regularized
        return float((a + 1) * (1 - q) ** -2 / mpmath.pi
                     * mpmath.betainc(a + 2, N, 0, 1 - q, regularized=True))


@pytest.mark.parametrize("a", [-0.5, 0.7, 3.0])
@pytest.mark.parametrize("z", [1 - 5 * 2.0 ** -20, 1j * (1 - 5 * 2.0 ** -20)])
def test_truncated_near_the_wall_at_large_N_against_40_digits(a, z):
    # |z|^2 = 1 - 9.5e-6 is exact in doubles, and the terms near n = N = 1e5
    # carry weight e^-0.95; lnGamma(n+a+2) - lnGamma(n+1) as two log-gammas
    # was 1.3e-10 off there, and the kernel 1.4e-11 to 2.6e-11
    N = 100_000
    want = _truncated_diagonal_40_digits(a, N, complex(z))
    got = kernel_truncated(a, N, z, z)
    assert abs(got - want) <= 1e-13 * want


@pytest.mark.parametrize("a", [0.7, -0.5, 3.0])
def test_truncated_off_the_axes_at_large_N_against_40_digits(a):
    # off the axes x^2 + y^2 rounds: log|q| from the rounded |q| cost the
    # n-th term n eps, and the wall factors (a/2) log(1 - |z|^2) lost eps/1e-5;
    # the kernel was 2e-13 to 1e-11 off
    N = 100_000
    z = (0.6 + 0.8j) * (1 - 5 * 2.0 ** -20)
    want = _truncated_diagonal_40_digits(a, N, z)
    got = kernel_truncated(a, N, z, z)
    assert abs(got - want) <= 1e-13 * want


@pytest.mark.parametrize("N", [5, 100_000])
@pytest.mark.parametrize("a", [0.5, -0.5, 3.0])
@pytest.mark.parametrize("z", [1e-4, 5e-5, 3e-5 + 4e-5j, 1e-160, 5e-324])
def test_truncated_at_small_nonzero_q_against_40_digits(z, a, N):
    # |q| = |z|^2 is far from the wall: log|q| taken as log1p(|q|^2 - 1)/2
    # would round |q|^2 - 1 to -1 below |q| ~ 7e-9 and raise, and lose
    # eps/|q|^2 of log|q| above it
    want = _truncated_diagonal_40_digits(a, N, complex(z))
    got = kernel_truncated(a, N, z, z)
    assert abs(got - want) <= 1e-14 * want


def _fraction_truncated(a, N, z1, z2):
    """kernel_truncated with |z|^2 = x^2 + y^2 summed as fractions.Fraction,
    the form that its integer numerators over powers of two replace."""
    from fractions import Fraction

    from ellipsegas.specialfns import ln_gamma, ln_gamma_difference

    def abs2(z):
        x, y = Fraction(z.real), Fraction(z.imag)
        return x * x + y * y
    q = z1 * np.conj(z2)
    n = np.arange(N if q else 1)
    s1, s2 = abs2(z1), abs2(z2)
    p = s1 * s2
    log_q = 0.5 * math.log1p(float(p - 1)) if p > 0.5 else math.log(abs(q) or 1.0)
    lt = (ln_gamma_difference(n + 1, a + 1) - ln_gamma(a + 1) + n * log_q
          + 0.5 * a * (math.log(float(1 - s1)) + math.log(float(1 - s2))))
    top = np.max(lt)
    s = np.sum(np.exp(lt - top) * (q / abs(q) if q else 1.0) ** n)
    return complex(s) * math.exp(top) / math.pi


def _truncated_pin_cases():
    """The points of the 40-digit tests above, and a seeded sweep: |z| near
    1, zero and subnormal coordinates, and off-axis points."""
    wall = 1 - 5 * 2.0 ** -20
    cases = [(a, N, z, z) for a in (-0.5, 0.7, 3.0) for N in (5, 100_000)
             for z in (wall, 1j * wall, (0.6 + 0.8j) * wall, 1e-4, 5e-5, 3e-5 + 4e-5j,
                       1e-160, 5e-324)]
    rng = np.random.default_rng(20261019)
    odd = [0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.0 ** -1074 * 3]
    for _ in range(120):
        a = float(rng.choice([-0.9, -0.5, 0.0, 0.3, 2.5, 40.0]))
        N = int(rng.choice([1, 7, 300]))
        pts = []
        for kind in rng.integers(0, 3, size=2):
            angle = rng.uniform(-math.pi, math.pi)
            if kind == 2:       # a zero or subnormal coordinate, on either axis
                x, y = float(rng.choice(odd)), rng.uniform(-0.99, 0.99)
                pts.append(complex(x, y) if rng.integers(2) else complex(y, x))
                continue
            # near the wall off the axes, or anywhere inside
            r = 1.0 - 2.0 ** -float(rng.integers(10, 52)) if kind == 0 else rng.uniform(0.0, 1.0)
            pts.append(complex(r * math.cos(angle), r * math.sin(angle)))
        cases.append((a, N, *pts))
    return cases


def test_truncated_keeps_the_bits_of_the_fraction_sums():
    # each int / int of the integer sums is the one rounding float(Fraction)
    # makes, so every value keeps its bits
    for a, N, z1, z2 in _truncated_pin_cases():
        assert repr(kernel_truncated(a, N, z1, z2)) == repr(_fraction_truncated(a, N, z1, z2)), \
            (a, N, z1, z2)


@pytest.mark.parametrize("a", [-0.5, 0.0, 2.5])
def test_truncated_at_the_origin_is_its_first_term(a):
    # z1 conj z2 = 0 leaves the n = 0 term (a+1)/pi (1-|z2|^2)^{a/2}
    z = 0.6 - 0.2j
    for z1, z2 in ((0.0, z), (z, 0.0), (0.0, 0.0)):
        want = (a + 1) / math.pi * (1 - abs(z1) ** 2 - abs(z2) ** 2) ** (a / 2)
        assert kernel_truncated(a, 50, z1, z2) == pytest.approx(want, rel=1e-14)


def test_truncated_limit_values_and_convergence():
    assert kernel_truncated_limit(0.0, 0.0, 0.0) == pytest.approx(1 / math.pi, rel=1e-14)
    assert kernel_truncated_limit(1.0, 0.0, 0.0) == pytest.approx(2 / math.pi, rel=1e-14)
    # geometric tail: N = 600 agrees to 1e-8 for |z| <= 0.5
    for z1, z2 in [(0.5, 0.5), (0.3 + 0.4j, -0.2 + 0.1j), (0.45j, 0.45j)]:
        lim = kernel_truncated_limit(1.0, z1, z2)
        fin = kernel_truncated(1.0, 600, z1, z2)
        assert abs(lim - fin) <= 1e-8 * max(1.0, abs(lim))


@pytest.mark.parametrize("a, z1, z2", [(500.0, 0.99, 0.99),
                                        (5000.0, -0.5 + 0.5j, -0.5 + 0.5j),
                                        (500.0, 0.9 + 0.1j, 0.85 - 0.2j)])
def test_truncated_limit_stays_finite_at_large_a(a, z1, z2):
    # the powers (1-|z|^2)^{a/2} and (1 - z1 conj z2)^{a+2} leave the double
    # range here; their ratio, against the closed form in 40 digits, does not
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        w1, w2 = mpmath.mpc(z1), mpmath.mpc(z2)
        ref = complex((a + 1) / mpmath.pi * ((1 - abs(w1) ** 2) * (1 - abs(w2) ** 2)) ** (a / 2)
                      / (1 - w1 * mpmath.conj(w2)) ** (a + 2))
    assert abs(kernel_truncated_limit(a, z1, z2) - ref) <= 1e-11 * abs(ref)


@pytest.mark.parametrize("a", [0.5, 1e3, 1e8, 1e15, 1e20, 1e300])
@pytest.mark.parametrize("z", [0.1 + 0.1j, 0.9 - 0.3j, -0.5 + 0.5j])
def test_truncated_limit_diagonal_keeps_full_accuracy_at_any_a(a, z):
    # the diagonal is (a+1)/(pi (1-|z|^2)^2); the a/2 and a+2 powers used to
    # cancel in floating point, 9e-8 off at a = 1e8, 145% at a = 1e15 and an
    # OverflowError from a = 1e20
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(60):
        ref = float((mpmath.mpf(a) + 1) / mpmath.pi / (1 - abs(mpmath.mpc(z)) ** 2) ** 2)
    got = kernel_truncated_limit(a, z, z)
    assert got.imag == 0.0 and abs(got.real - ref) <= 1e-14 * ref


@pytest.mark.parametrize("a, z1, z2", [(1e8, 0.9 - 0.3j, 0.9 - 0.3000001j),
                                        (1e15, 0.3 + 0.1j, 0.300000001 + 0.1j),
                                        (0.5, 0.999, -0.999), (0.5, 0.999, 0.999j),
                                        (3.0, 0.9, -0.5 + 0.8j)])
def test_truncated_limit_off_the_diagonal_against_60_digits(a, z1, z2):
    # close pairs at large a (Im w taken from z1 - z2) and far pairs near the
    # wall, where 1 - |z1-z2|^2/|w|^2 is below 1/2 and log1p would lose it
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(60):
        w1, w2 = mpmath.mpc(z1), mpmath.mpc(z2)
        ref = complex((a + 1) / mpmath.pi * mpmath.exp(
            a / 2 * mpmath.log((1 - abs(w1) ** 2) * (1 - abs(w2) ** 2))
            - (a + 2) * mpmath.log(1 - w1 * mpmath.conj(w2))))
    assert abs(kernel_truncated_limit(a, z1, z2) - ref) <= 1e-11 * abs(ref)


def test_truncated_limit_refuses_past_the_double_range():
    from ellipsegas import OutOfRangeError
    with pytest.raises(OutOfRangeError):
        kernel_truncated_limit(1e308, 0.9 - 0.3j, 0.9 - 0.3j)


def test_truncated_limit_at_a_5000_is_the_large_N_sum():
    z = -0.5 + 0.5j
    ref = kernel_truncated(5000.0, 10_000, z, z)
    assert abs(kernel_truncated_limit(5000.0, z, z) - ref) <= 1e-10 * abs(ref)


def test_elliptic_ginibre_values():
    # N=1: 1/(pi sqrt(1-tau^2)) = 2/(pi sqrt(3)) at tau = 0.5
    val = kernel_elliptic_ginibre(0.5, 1, 0.0, 0.0)
    assert val == pytest.approx(2 / (math.pi * math.sqrt(3)), rel=1e-13)
    z1, z2 = 0.4 + 0.3j, -0.6 - 0.1j
    k12 = kernel_elliptic_ginibre(0.5, 6, z1, z2)
    k21 = kernel_elliptic_ginibre(0.5, 6, z2, z1)
    assert abs(k12 - np.conj(k21)) <= 1e-12 * abs(k12)


# the points at which the elliptic Ginibre kernel is tested, (tau, z1, z2)
_GINIBRE_POINTS = [(0.5, 0.0, 0.0), (0.5, 0.4 + 0.3j, -0.6 - 0.1j), (0.5, -0.6 - 0.1j, 0.4 + 0.3j),
                   (0.5, 0.5 + 0.2j, 0.5 + 0.2j), (0.5, 0.3, -0.4 + 0.1j),
                   (0.4, 0.1 + 0.05j, 0.2 - 0.03j), (0.5, 0.3 + 0.1j, 0.3 + 0.1j)]


@pytest.mark.parametrize("N", [400, 10_000])
def test_elliptic_ginibre_finite_and_converged_at_large_N(N):
    for tau, z1, z2 in _GINIBRE_POINTS:
        got = kernel_elliptic_ginibre(tau, N, z1, z2)
        ref = kernel_elliptic_ginibre(tau, 250, z1, z2)
        assert np.isfinite(got)
        assert abs(got - ref) <= 1e-13 * abs(ref)


def _elliptic_ginibre_mp(tau, N, z1, z2):
    """The elliptic Ginibre kernel as the sum of its N Hermite terms
    (tau/2)^n H_n(u1) H_n(u2)/n!, u1 = z1/sqrt(2 tau), u2 = conj z2/sqrt(2 tau),
    in the current mpmath precision."""
    import mpmath
    t = mpmath.mpf(tau)
    u1 = mpmath.mpc(z1) / mpmath.sqrt(2 * t)
    u2 = mpmath.conj(mpmath.mpc(z2)) / mpmath.sqrt(2 * t)
    h1, h2, coef, total = [0, mpmath.mpf(1)], [0, mpmath.mpf(1)], mpmath.mpf(1), 0
    for n in range(N):
        if n:
            h1 = [h1[1], 2 * u1 * h1[1] - 2 * (n - 1) * h1[0]]
            h2 = [h2[1], 2 * u2 * h2[1] - 2 * (n - 1) * h2[0]]
            coef *= t / (2 * n)
        total += coef * h1[1] * h2[1]
    gauss = mpmath.exp(-(z1.real ** 2 + z2.real ** 2) / (2 * (1 + t))
                       - (z1.imag ** 2 + z2.imag ** 2) / (2 * (1 - t)))
    return complex(gauss * total / (mpmath.pi * mpmath.sqrt(1 - t * t)))


def test_elliptic_ginibre_matches_high_precision_sum():
    # at tau = 0.9 the coefficients (tau/2)^n/n! leave the double range before
    # the Hermite products do; a 50-digit sum of the same N terms is the reference
    mpmath = pytest.importorskip("mpmath")
    tau, N = 0.9, 250

    def reference(z1, z2):
        with mpmath.workdps(50):
            return _elliptic_ginibre_mp(tau, N, z1, z2)

    for z1, z2 in [(0j, 0j), (0.4 + 0.3j, -0.6 - 0.1j), (3 + 1j, 3 + 1j), (1.5 - 0.7j, 0.8 + 1.1j)]:
        scale = math.sqrt(abs(reference(z1, z1) * reference(z2, z2)))
        assert abs(kernel_elliptic_ginibre(tau, N, z1, z2) - reference(z1, z2)) <= 1e-13 * scale


def test_elliptic_ginibre_far_out_at_N_3000_matches_a_40_digit_sum():
    # |z|^2 = 1300, so the terms peak near n = 1300 at about e^1400 and the
    # Gaussian takes e^-1400 back: the orthonormal recurrence carries no
    # log-gamma, whose rounding near n log n ~ 2e4 left the sum 1.3e-12 off
    mpmath = pytest.importorskip("mpmath")
    tau, N, z = 0.5, 3000, 30 + 20j
    with mpmath.workdps(40):
        ref = _elliptic_ginibre_mp(tau, N, z, z)
    got = kernel_elliptic_ginibre(tau, N, z, z)
    assert abs(got - ref) <= 1e-13 * abs(ref)


def test_gegenbauer_to_elliptic_ginibre_limit():
    # (1/(2 tau a)) K_N(z/sqrt(2 tau a), .) -> elliptic Ginibre at a -> inf
    tau, N, a = 0.5, 4, 500.0
    kern = FiniteKernel(GasFamily(PolyKind.GEGENBAUER, a), EllipseGeometry(tau), N)
    sc = math.sqrt(2 * tau * a)
    for z1, z2 in [(0.0, 0.0), (0.5 + 0.2j, 0.5 + 0.2j), (0.3, -0.4 + 0.1j)]:
        got = kern.eval(z1 / sc, z2 / sc) / (2 * tau * a)
        ref = kernel_elliptic_ginibre(tau, N, z1, z2)
        assert abs(got - ref) <= 1e-2 * max(1.0, abs(ref))


def test_rotational_limit_to_truncated():
    # (1/(2 tau)) K_N(z/sqrt(2 tau), .) ~ truncated kernel at tau = 1e-6
    tau, N, a = 1e-6, 8, 1.0
    kern = FiniteKernel(GasFamily(PolyKind.GEGENBAUER, a), EllipseGeometry(tau), N)
    sc = math.sqrt(2 * tau)
    pairs = [(0.2 + 0.1j, 0.2 + 0.1j), (-0.5 + 0.3j, -0.5 + 0.3j),
             (0.7j, 0.7j), (0.3, -0.2 + 0.4j), (0.6, 0.6),
             (0.1 - 0.6j, 0.1 - 0.6j), (-0.3, 0.5j), (0.4 + 0.4j, 0.4 + 0.4j),
             (-0.7 + 0.1j, -0.7 + 0.1j), (0.55 - 0.2j, -0.15 + 0.3j)]
    for z1, z2 in pairs:
        got = kern.eval(z1 / sc, z2 / sc) / (2 * tau)
        ref = kernel_truncated(a, N, z1, z2)
        assert abs(got - ref) <= 1e-4 * max(1.0, abs(ref))


def test_hermitian_limit_concentrates_at_endpoints():
    # Fig-2 behaviour: at N = 30, s = 1, the rescaled density at x = +-0.95
    # exceeds the value at the origin
    N, s, a = 30, 1.0, 1.0
    tau = 1.0 / (1.0 + s * s / (2 * N * N))
    kern = FiniteKernel(GasFamily(PolyKind.GEGENBAUER, a), EllipseGeometry(tau), N)
    rho = lambda x: kern.eval(x, x).real / N ** 2
    assert rho(0.95) > rho(0.0)
    assert rho(-0.95) > rho(0.0)


def test_truncated_edge_independent_path():
    # the truncated-unitary edge integral is an independent evaluation of the
    # strong edge kernel (criterion: 1e-10 agreement, checked in acceptance)
    val = kernel_truncated_edge(0.0, 0.0, 0.0)
    assert val == pytest.approx(1 / (8 * math.pi), rel=1e-13)
    with pytest.raises(DomainError):
        kernel_truncated_edge(1.0, -0.5, 0.0)


@pytest.mark.parametrize("call", [
    lambda: kernel_truncated(-1.5, 3, 0.1, 0.1),
    lambda: kernel_truncated(-1.0, 3, 0.1, 0.1),
    lambda: kernel_truncated(0.5, 0, 0.1, 0.1),
    lambda: kernel_truncated_limit(-2.0, 0.1, 0.1),
    lambda: kernel_truncated_limit(math.nan, 0.1, 0.1),
    lambda: kernel_truncated_edge(-1.0, 1.0, 1.0),
    lambda: kernel_elliptic_ginibre(0.5, 0, 0.0, 0.0),
    lambda: kernel_elliptic_ginibre(0.5, -2, 0.0, 0.0),
])
def test_reference_kernels_check_a_and_N(call):
    with pytest.raises(DomainError):
        call()


def test_kernel_eval_function_alias():
    geo = EllipseGeometry(0.6)
    kern = FiniteKernel(GasFamily(PolyKind.GEGENBAUER, 0.0), geo, 2)
    assert kernel_eval(kern, 0.1, 0.2j) == kern.eval(0.1, 0.2j)


def test_large_N_kernel_at_exact_polynomial_zeros():
    # z = 0 makes every odd polynomial vanish exactly; the zero terms must
    # not disturb the max-exponent alignment at large N and extreme tau
    for tau in (0.5, 0.9):
        geo = EllipseGeometry(tau)
        gas = GasFamily(PolyKind.CHEBYSHEV_U)
        kern = FiniteKernel(gas, geo, 2000)
        got = kern.eval(0.0, 0.0)
        # independent even-degree sum: |M_n(0)| = 2^{-n} for even n (U_n(0)=+-1)
        from ellipsegas import log_squared_norms
        lh = log_squared_norms(gas, geo, 1999)
        n = np.arange(2000)
        lt = (-n * math.log(4) - lh)[n % 2 == 0]
        top = lt.max()
        ref = math.exp(top) * float(np.sum(np.exp(lt - top)))
        assert got.real == pytest.approx(ref, rel=1e-12)
        assert abs(got.imag) < 1e-15 * ref


def test_kernel_survives_N_1e4_near_wall():
    geo = EllipseGeometry(0.5)
    kern = FiniteKernel(GasFamily(PolyKind.GEGENBAUER, 1.0), geo, 10_000)
    zb = 0.999 * geo.semi_x
    val = kern.eval(zb, zb)
    assert np.isfinite(val) and val.real > 0


def test_elliptic_ginibre_hermite_orthogonality():
    # the orthonormal Hermite functions u_n = (tau/2)^(n/2) H_n(z/sqrt(2tau))/sqrt(n!)
    # of the elliptic Ginibre kernel satisfy
    # int exp(-x^2/(1+tau) - y^2/(1-tau)) u_m(z) conj u_n(z) = delta_mn pi sqrt(1-tau^2),
    # checked by tensor Gauss-Hermite quadrature over the plane
    from numpy.polynomial.hermite import hermgauss
    from ellipsegas.kernels_finite import _hermite_coefficients
    from ellipsegas.polynomials import _scalar_steps

    tau = 0.5
    u, wu = hermgauss(48)
    x = u * math.sqrt(1 + tau)
    y = u * math.sqrt(1 - tau)
    wx = wu * math.sqrt(1 + tau)
    wy = wu * math.sqrt(1 - tau)
    nmax = 4
    vals = np.zeros((nmax + 1, x.size, y.size), dtype=complex)
    for i, xi in enumerate(x):
        for j, yj in enumerate(y):
            mant, bits = _scalar_steps(_hermite_coefficients(tau, nmax), complex(xi, yj))
            vals[:, i, j] = np.array(mant) * np.exp2(bits)
    ref = math.pi * math.sqrt(1 - tau ** 2)
    for m in range(nmax + 1):
        for n in range(nmax + 1):
            integral = np.einsum("i,j,ij->", wx, wy, vals[m] * np.conj(vals[n]))
            if m != n:
                assert abs(integral) < 1e-9
            else:
                assert integral.real == pytest.approx(ref, rel=1e-11)


# ------------------------------------------- scalar and streamed engine paths

A_KINDS = (PolyKind.GEGENBAUER, PolyKind.JACOBI_PLUS, PolyKind.JACOBI_MINUS)


def engine_cases():
    """Every family at tau in {1e-6, 0.5, 1 - 1e-6} and, where the family has
    one, a in {-0.999, 0, 2.5}."""
    cases = []
    for tau in (1e-6, 0.5, 1 - 1e-6):
        for kind in PolyKind:
            for a in ((-0.999, 0.0, 2.5) if kind in A_KINDS else (0.0,)):
                cases.append(pytest.param(GasFamily(kind, a), EllipseGeometry(tau),
                                          id=f"{kind.value}-a{a}-tau{tau}"))
    return cases


def engine_points(geo, rng):
    """Interior points, a point next to the right focus and one next to the wall."""
    return interior_points(geo, 4, rng) + [1.0 - 1e-6, complex(0.999 * geo.semi_x, 0.0)]


@pytest.mark.parametrize("gas,geo", engine_cases())
def test_single_point_paths_agree(gas, geo, rng):
    kern = FiniteKernel(gas, geo, 40)
    for z in engine_points(geo, rng):
        ref = kern.eval(z, z)
        assert ref.imag == 0.0 and ref.real >= 0.0
        for got in (kern.diagonal([z])[0], kern.eval_batch(z, [z])[0]):
            assert got == ref


@pytest.mark.parametrize("gas,geo", engine_cases())
def test_eval_batch_is_complex_at_every_length(gas, geo, rng):
    # the one-point batch at z1 itself sums |q_n|^2, yet returns the dtype of
    # every other batch and the bits of eval
    kern = FiniteKernel(gas, geo, 40)
    pts = engine_points(geo, rng)
    for z in pts:
        one = kern.eval_batch(z, [z])
        assert one.dtype == np.complex128
        bits = np.array([kern.eval(z, z)]).view(np.uint64)
        assert one.view(np.uint64).tolist() == bits.tolist()
    for zs in ([pts[1]], pts[:2], pts):
        assert kern.eval_batch(pts[0], zs).dtype == np.complex128


@pytest.mark.parametrize("gas,geo", engine_cases())
def test_streamed_batch_matches_scalar_path(gas, geo, rng):
    kern = FiniteKernel(gas, geo, 40)
    pts = engine_points(geo, rng)
    diag = kern.diagonal(pts)
    ref = np.array([kern.eval(z, z).real for z in pts])
    np.testing.assert_allclose(diag, ref, rtol=1e-10, atol=0.0)
    for z1 in pts[:2]:
        row = kern.eval_batch(z1, pts)
        ref_row = np.array([kern.eval(z1, z) for z in pts])
        scale = np.sqrt(kern.eval(z1, z1).real * ref)
        assert np.all(np.abs(row - ref_row) <= 1e-10 * scale)


@pytest.mark.parametrize("gas,geo", engine_cases())
def test_hermiticity_on_both_paths(gas, geo, rng):
    kern = FiniteKernel(gas, geo, 40)
    pts = engine_points(geo, rng)
    diag = kern.diagonal(pts)
    for i, z1 in enumerate(pts):
        row = kern.eval_batch(z1, pts)
        for j, z2 in enumerate(pts):
            scale = math.sqrt(diag[i] * diag[j])
            assert abs(kern.eval(z1, z2) - np.conj(kern.eval(z2, z1))) <= 1e-12 * scale
            col = kern.eval_batch(z2, pts)[i]
            assert abs(row[j] - np.conj(col)) <= 1e-10 * scale


@pytest.mark.parametrize("gas,geo", engine_cases())
def test_batches_reject_points_outside_the_ellipse(gas, geo):
    kern = FiniteKernel(gas, geo, 5)
    outside = complex(1.01 * geo.semi_x, 0.0)
    with pytest.raises(DomainError):
        kern.eval_batch(0.0, [0.0, outside])
    with pytest.raises(DomainError):
        kern.eval_batch(outside, [0.0, 0.1])
    with pytest.raises(DomainError):
        kern.diagonal([0.0, outside])


@pytest.mark.parametrize("kind,singular", [(PolyKind.CHEBYSHEV_T, 1.0),
                                           (PolyKind.CHEBYSHEV_T, -1.0),
                                           (PolyKind.CHEBYSHEV_V, -1.0),
                                           (PolyKind.JACOBI_MINUS, -1.0)])
def test_batches_raise_at_weight_singularities(kind, singular):
    kern = FiniteKernel(GasFamily(kind, 1.0 if kind is PolyKind.JACOBI_MINUS else 0.0),
                        EllipseGeometry(0.5), 5)
    with pytest.raises(SingularPointError):
        kern.diagonal([singular, 0.2])
    with pytest.raises(SingularPointError):
        kern.diagonal([singular])
    with pytest.raises(SingularPointError):
        kern.eval_batch(0.2, [0.3, singular])


def test_streamed_diagonal_at_large_N_and_extreme_tau():
    # the streamed sum rescales and realigns many times along the way; its
    # recurrence coefficients are scaled by exact powers of two, so neither
    # the diagonal nor a row drifts from the one-point path with the degree
    # (rounded ratios c_n/c_{n-1}, compounded, were 1.0e-11 off at
    # gegenbauer a = 2.5, tau = 1 - 1e-6)
    for tau in (1e-6, 0.5, 1 - 1e-6):
        geo = EllipseGeometry(tau)
        for kind in PolyKind:
            for a in ((-0.999, 2.5) if kind in A_KINDS else (0.0,)):
                kern = FiniteKernel(GasFamily(kind, a), geo, 3000)
                pts = [0.0, 0.5 * geo.semi_x, complex(0.2 * geo.semi_x, 0.5 * geo.semi_y),
                       0.999 * geo.semi_x]
                ref = np.array([kern.eval(z, z).real for z in pts])
                np.testing.assert_allclose(kern.diagonal(pts), ref, rtol=1e-13, atol=0.0)
                row = kern.eval_batch(pts[2], pts)
                ref_row = np.array([kern.eval(pts[2], z) for z in pts])
                assert np.all(np.abs(row - ref_row) <= 1e-13 * np.sqrt(ref[2] * ref))


@pytest.mark.parametrize("kind,a,tau,N", [
    pytest.param(PolyKind.GEGENBAUER, 800.0, 0.4, 281, id="gegenbauer-a800-tau0.4-N281"),
    pytest.param(PolyKind.JACOBI_MINUS, 300.0, 0.7, 200, id="jacobi-minus-a300-tau0.7-N200"),
    pytest.param(PolyKind.GEGENBAUER, 2.5, 1 - 1e-6, 3000, id="gegenbauer-a2.5-tau1-1e-6-N3000")])
def test_a_streamed_value_does_not_depend_on_its_batch(kind, a, tau, N):
    # density_grid copies mirrored cells from streamed values, so a point's
    # value must be the same bits in any batch.  These points rescale their
    # recurrence pairs at different degrees: a factor folded over the batch
    # between rescales would make values depend on their neighbours
    geo = EllipseGeometry(tau)
    kern = FiniteKernel(GasFamily(kind, a), geo, N)
    pts = np.array(interior_points(geo, 400, np.random.default_rng(2)))
    diag = kern.diagonal(pts).view(np.int64)
    row = kern.eval_batch(pts[0], pts).view(np.int64).reshape(-1, 2)
    parts = [*np.arange(40).reshape(20, 2), *np.array_split(np.random.default_rng(3).permutation(400), 7)]
    for part in parts:
        assert np.array_equal(kern.diagonal(pts[part]).view(np.int64), diag[part])
        assert np.array_equal(kern.eval_batch(pts[0], pts[part]).view(np.int64).reshape(-1, 2),
                              row[part])


# ------------------------------- the block core against the per-degree stream

_RESCALE_LO, _RESCALE_HI = 2.0 ** -250, 2.0 ** 250


def _reference_steps(coefs, zs):
    """The recurrence one degree per step, the reference for
    `polynomials._blocks`: yields (values, magnitudes, bits, rescaled) for n = 0, 1, ..., with
    p_n(zs) = values 2^bits and the pair rescaled at the first degree it
    leaves [2^-250, 2^250].  The yielded arrays are reused."""
    lin0, lin1, quad = coefs
    prev = np.zeros(zs.shape, dtype=complex)
    curr = np.ones(zs.shape, dtype=complex)
    mag = np.ones(zs.shape)
    bits = np.zeros(zs.shape)
    yield curr, mag, bits, False
    for a_n, b_n, g_n in zip(lin0[1:].tolist(), lin1[1:].tolist(), quad[1:].tolist()):
        nxt = b_n * zs
        if a_n:
            nxt += a_n
        nxt *= curr
        nxt += g_n * prev
        prev, curr = curr, nxt
        np.abs(curr, out=mag)
        rescaled = False
        if mag.size and (mag.max() > _RESCALE_HI or mag.min() < _RESCALE_LO):
            big = np.maximum(mag, np.abs(prev))
            out = (big > _RESCALE_HI) | ((big > 0.0) & (big < _RESCALE_LO))
            if out.any():
                k = np.frexp(big[out])[1]
                f = np.exp2(-k)
                prev[out] *= f
                curr[out] *= f
                mag[out] *= f
                bits[out] += k
                rescaled = True
        yield curr, mag, bits, rescaled


def _reference_kernel(kern, z1, zs):
    """`FiniteKernel._kernel` of a batch (two or more points) with the sum
    streamed one degree at a time: each term is aligned and added to the
    sum in order of degree."""
    f1, s1, c = (None, 0.0, 1.0) if z1 is None else (*kern._point(z1), 0.5)
    lws = kern._check_points(zs)
    scalars = kern._sigma * kern._sigma if f1 is None else f1 * kern._sigma
    acc = np.zeros(zs.shape, dtype=scalars.dtype)
    term = np.empty_like(acc)
    top, fac = np.zeros(zs.shape), None
    for s_n, (vals, mag, bits, rescaled) in zip(scalars.tolist(), _reference_steps(kern._coefs, zs)):
        if rescaled:
            expo = bits * (2.0 if f1 is None else 1.0)
            new = np.maximum(top, expo)
            acc *= np.exp2(top - new)
            top, fac = new, np.exp2(expo - new)
        if f1 is None:
            np.multiply(mag, mag, out=term)
        else:
            np.conjugate(vals, out=term)
        if fac is not None:
            term *= fac
        term *= s_n
        acc += term
    e = np.frexp(np.abs(acc))[1]
    return kernels_finite._times_exp(acc * np.exp2(-e),
                                     kernels_finite._plus_bits(s1 + c * lws, top + e))


def _reference_rescales(coefs, zs):
    """Per point, the degrees at which the per-degree stream rescales."""
    degrees = [[] for _ in zs]
    last = np.zeros(zs.shape)
    for n, (_, _, bits, rescaled) in enumerate(_reference_steps(coefs, zs)):
        if rescaled:
            for i in np.flatnonzero(bits != last):
                degrees[i].append(n)
            last = bits.copy()
    return degrees


def _assert_same_bits(kern, pts):
    """diagonal and two rows of eval_batch against the per-degree stream,
    bit for bit."""
    pts = np.asarray(pts, dtype=complex)
    assert np.array_equal(kern.diagonal(pts).view(np.int64),
                          _reference_kernel(kern, None, pts).view(np.int64))
    for z1 in (pts[0], pts[-1]):
        assert np.array_equal(kern.eval_batch(z1, pts).view(np.int64),
                              _reference_kernel(kern, z1, pts).astype(complex).view(np.int64))


def near_wall_points(geo):
    """Points at ellipse deficits 1e-6, 1e-3 and 1e-1, and on the real axis
    at 0.999 semi_x."""
    return [complex(0.6 * geo.semi_x, math.sqrt(0.64 - d) * geo.semi_y) for d in (1e-6, 1e-3, 1e-1)] \
        + [0.999 * geo.semi_x]


@pytest.mark.parametrize("gas,geo", [
    pytest.param(GasFamily(kind, a), EllipseGeometry(tau), id=f"{kind.value}-a{a}-tau{tau}")
    for tau in (1e-6, 0.5, 1 - 1e-6) for kind in PolyKind
    for a in ((-0.999, 0.5, 300.0) if kind in A_KINDS else (0.0,))])
def test_blocks_give_the_bits_of_the_per_degree_stream(gas, geo):
    # rescales are powers of two and each point sums its terms in order of
    # degree after its running sum, so a block changes no bit of a value
    K = FiniteKernel(gas, geo, 3000)._block
    pts = interior_points(geo, 4, np.random.default_rng(11)) + near_wall_points(geo)
    if gas.a >= 0.0:        # for a < 0 the weight is infinite on the wall
        pts += wall_points(geo, 2)
    for N in sorted({1, 2, K - 1, K, K + 1, 2 * K + 1, 3000} - {0}):
        _assert_same_bits(FiniteKernel(gas, geo, N), pts)


@pytest.mark.parametrize("kind,a,tau", [(PolyKind.GEGENBAUER, 300.0, 1e-6),
                                        (PolyKind.JACOBI_MINUS, 0.5, 1e-6),
                                        (PolyKind.CHEBYSHEV_T, 0.0, 1e-3)])
def test_a_rescale_at_a_block_end_keeps_the_bits(kind, a, tau):
    # the per-degree stream rescales at the last degree of a block (where a
    # block sees the same pair) and at the first degree after it (where a
    # block rescales K - 1 degrees later) at some of these points
    geo = EllipseGeometry(tau)
    kern = FiniteKernel(GasFamily(kind, a), geo, 1000)
    K = kern._block
    pts = np.array(interior_points(geo, 60, np.random.default_rng(5), shrink=0.999))
    ends = {n % K for degrees in _reference_rescales(kern._coefs, pts) for n in degrees}
    assert {0, 1} <= ends
    _assert_same_bits(kern, pts)


def _reference_scaled_table(coefs, zs):
    """`scaled_sequence` at a batch of points from the per-degree stream."""
    mant = np.empty((coefs[0].shape[0], zs.shape[0]), dtype=complex)
    logs = np.empty(mant.shape)
    for n, (vals, _, bits, _) in enumerate(_reference_steps(coefs, zs.astype(complex))):
        mant[n] = vals
        logs[n] = bits
    mag = np.abs(mant)
    k = np.frexp(mag)[1]
    mant *= np.exp2(-k)
    logs += k
    logs *= math.log(2.0)
    logs[mag == 0.0] = -np.inf
    return mant, logs


@pytest.mark.parametrize("family", [PolyFamily(kind, a) for kind in PolyKind
                                    for a in ((-0.999, 0.5, 300.0) if kind in A_KINDS else (0.0,))],
                         ids=repr)
def test_scaled_sequence_of_a_batch_keeps_the_bits_of_the_per_degree_stream(family):
    # near and far points share one block length, from the largest |z|
    near = [0.3 + 0.2j, 1.0, -1.0, 0.999999 + 1e-7j, -1.0000001, 0.0, 2.5 - 1.5j, 1e-3j]
    for pts in (near, near + [1e6, 700.0 + 300.0j], [0.5, -2.0]):
        zs = np.array(pts)
        for n_max in (0, 1, 2, 31, 32, 33, 600):
            got = scaled_sequence(family, n_max, zs)
            ref = _reference_scaled_table(polynomials._coefficients(family, n_max), zs)
            for g, r in zip(got, ref):
                assert g.dtype == r.dtype and np.array_equal(g.view(np.int64), r.view(np.int64))


def test_empty_batches_and_one_degree_kernels_keep_their_shapes():
    geo = EllipseGeometry(0.5)
    kern = FiniteKernel(GasFamily(PolyKind.GEGENBAUER, 0.5), geo, 10)
    for got, shape, dtype in ((kern.diagonal([]), (0,), np.float64),
                              (kern.diagonal(np.zeros((0, 3))), (0, 3), np.float64),
                              (kern.eval_batch(0.1, np.zeros((2, 0))), (2, 0), np.complex128),
                              (kern.eval_batch(0.1, []), (0,), np.complex128)):
        assert got.shape == shape and got.dtype == dtype
    for zs in (np.array([], dtype=complex), np.array([])):
        mant, logs = scaled_sequence(PolyFamily(PolyKind.GEGENBAUER, 0.5), 3, zs)
        assert (mant.shape, mant.dtype, logs.shape, logs.dtype) == \
            ((4, 0), np.complex128, (4, 0), np.float64)
    # N = 1: degree 0 alone, no step
    one = FiniteKernel(GasFamily(PolyKind.JACOBI_MINUS, 0.5), geo, 1)
    assert one._block == 1
    pts = np.array([[0.1, 0.2 + 0.1j], [0.3j, -0.5]])
    diag, row = one.diagonal(pts), one.eval_batch(0.1 + 0.1j, pts)
    assert (diag.shape, diag.dtype, row.shape, row.dtype) == \
        ((2, 2), np.float64, (2, 2), np.complex128)
    _assert_same_bits(one, pts.ravel())
    assert np.array_equal(diag.ravel(), [one.eval(z, z).real for z in pts.ravel()])


@pytest.mark.parametrize("kind", A_KINDS)
@pytest.mark.parametrize("a", [-0.999, 300.0])
def test_block_length_and_values_at_N_1e4_and_tau_1e_6(kind, a):
    geo = EllipseGeometry(1e-6)
    kern = FiniteKernel(GasFamily(kind, a), geo, 10_000)
    assert 1 <= kern._block <= 32
    pts = interior_points(geo, 6, np.random.default_rng(8)) + near_wall_points(geo)
    assert np.all(np.isfinite(kern.diagonal(pts)))
    assert np.all(np.isfinite(kern.eval_batch(pts[0], pts)))


def test_a_batch_holds_blocks_not_an_N_by_points_table():
    # the recurrence buffer holds K + 2 complex rows and the diagonal's terms
    # K real rows, so a batch peaks near 1.5 K points 16 B plus a few
    # point-sized vectors (2.25 K points 16 B measured at K = 32); an
    # [N, points] table would be 10^4 points 16 B
    geo = EllipseGeometry(0.5)
    kern = FiniteKernel(GasFamily(PolyKind.GEGENBAUER, 0.5), geo, 10_000)
    pts = np.array(interior_points(geo, 4096, np.random.default_rng(4)))
    kern.diagonal(pts[:2])
    tracemalloc.start()
    try:
        kern.diagonal(pts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * kern._block * len(pts) * 16


# ------------------------------------------------- the store of point tables

def store_cases():
    """Every family at tau in {1e-3, 0.5, 0.99} and, where the family has
    one, a in {-0.9, 0, 2.5}."""
    cases = []
    for tau in (1e-3, 0.5, 0.99):
        for kind in PolyKind:
            for a in ((-0.9, 0.0, 2.5) if kind in A_KINDS else (0.0,)):
                cases.append(pytest.param(GasFamily(kind, a), EllipseGeometry(tau),
                                          id=f"{kind.value}-a{a}-tau{tau}"))
    return cases


@pytest.fixture
def count_recurrences(monkeypatch):
    """A list that gets one entry per _scalar_steps call of kernels_finite:
    one per point recurrence."""
    calls = []
    real = kernels_finite._scalar_steps

    def counting(coefs, z):
        calls.append(z)
        return real(coefs, z)
    monkeypatch.setattr(kernels_finite, "_scalar_steps", counting)
    return calls


@pytest.mark.parametrize("k", [1, 2, 5])
def test_correlation_k_runs_one_recurrence_per_point(k, count_recurrences):
    geo = EllipseGeometry(0.5)
    kern = FiniteKernel(GasFamily(PolyKind.JACOBI_PLUS, 1.0), geo, 100)
    pts = interior_points(geo, k, np.random.default_rng(k))
    correlation_k(kern, pts)
    assert len(count_recurrences) == k
    correlation_k(kern, pts[::-1])
    assert len(count_recurrences) == k


@pytest.mark.parametrize("gas,geo", store_cases())
def test_stored_values_equal_a_fresh_kernel_exactly(gas, geo, rng):
    N = 40
    pts = interior_points(geo, 3, rng)
    if gas.a >= 0.0:        # for a < 0 the weight is infinite on the wall
        pts += wall_points(geo, 2)
    kern = FiniteKernel(gas, geo, N)
    first = {(z1, z2): kern.eval(z1, z2) for z1 in pts for z2 in pts}
    for z1 in pts:
        for z2 in pts:
            fresh = FiniteKernel(gas, geo, N)
            assert kern.eval(z1, z2) == first[z1, z2] == fresh.eval(z1, z2)
            assert kern.eval_batch(z1, [z2]) == fresh.eval_batch(z1, [z2])
        assert kern.diagonal([z1]) == FiniteKernel(gas, geo, N).diagonal([z1])
        assert first[z1, z1].imag == 0.0


@pytest.mark.parametrize("kind,bad", [(PolyKind.GEGENBAUER, 2.0),
                                      (PolyKind.CHEBYSHEV_T, 1.0),
                                      (PolyKind.CHEBYSHEV_T, -1.0),
                                      (PolyKind.CHEBYSHEV_V, -1.0),
                                      (PolyKind.JACOBI_MINUS, -1.0)])
def test_a_rejected_point_raises_on_every_call(kind, bad):
    kern = FiniteKernel(GasFamily(kind, 1.0 if kind in A_KINDS else 0.0),
                        EllipseGeometry(0.5), 20)
    error = DomainError if kind is PolyKind.GEGENBAUER else SingularPointError
    good = [0.1 + 0.2j, -0.3 + 0.1j]
    for _ in range(2):
        with pytest.raises(error):
            kern.eval(bad, bad)
    for z in good:
        kern.eval(z, z)
    for call in (lambda: kern.eval(bad, good[0]), lambda: kern.eval(good[1], bad),
                 lambda: kern.eval(bad, bad), lambda: correlation_k(kern, good + [bad])):
        for _ in range(2):
            with pytest.raises(error):
                call()
    assert complex(bad) not in kern._store


def test_store_is_bounded_and_stays_exact(rng):
    gas, geo, N = GasFamily(PolyKind.GEGENBAUER, 0.5), EllipseGeometry(0.3), 60
    bound = kernels_finite._STORE_POINTS
    pts = interior_points(geo, bound + 8, rng)
    kern = FiniteKernel(gas, geo, N)
    for z in pts:
        kern.eval(z, pts[0])
        assert len(kern._store) <= bound
    # the earliest points have been evicted and are computed again
    for z1, z2 in [(pts[1], pts[1]), (pts[-1], pts[2]), (pts[3], pts[-2])]:
        assert kern.eval(z1, z2) == FiniteKernel(gas, geo, N).eval(z1, z2)
        assert len(kern._store) <= bound


def test_threads_sharing_a_kernel_get_the_sequential_values(rng):
    # more points than the store holds, so the threads evict each other's tables
    gas, geo, N = GasFamily(PolyKind.JACOBI_PLUS, 0.5), EllipseGeometry(0.6), 30
    bound = kernels_finite._STORE_POINTS
    pts = interior_points(geo, bound + 8, rng)
    pairs = [(z1, z2) for z1 in pts[::3] for z2 in pts[1::2]]
    ref = [FiniteKernel(gas, geo, N).eval(z1, z2) for z1, z2 in pairs]
    kern = FiniteKernel(gas, geo, N)
    results = {}

    def worker(t):
        start = t * len(pairs) // 6
        order = list(range(start, len(pairs))) + list(range(start))
        results[t] = {i: kern.eval(*pairs[i]) for i in order}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(t,)) for t in range(6)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    assert sorted(results) == list(range(6))
    for got in results.values():
        assert [got[i] for i in range(len(pairs))] == ref
    assert len(kern._store) <= bound + len(threads)


def test_a_kernel_with_stored_points_is_freed_without_the_collector():
    enabled = gc.isenabled()
    gc.disable()
    try:
        kern = FiniteKernel(GasFamily(PolyKind.JACOBI_MINUS, 0.5), EllipseGeometry(0.5), 30)
        correlation_k(kern, [0.1 + 0.2j, -0.3 + 0.1j, 0.4])
        assert kern._store
        ref = weakref.ref(kern)
        del kern
        assert ref() is None
    finally:
        if enabled:
            gc.enable()


def test_log_c_is_minus_half_the_raw_norms():
    # the kernel is normalised by the raw family norms, with no monic factor
    for kind in PolyKind:
        gas, geo = GasFamily(kind, 1.5 if kind in A_KINDS else 0.0), EllipseGeometry(0.4)
        kern = FiniteKernel(gas, geo, 50)
        assert np.array_equal(kern._log_c, -0.5 * log_raw_norms(gas, geo, 49))


def _gegenbauer_mp(a, z, N):
    """C_n^{(a+1)}(z), n < N, by the recurrence in the current mpmath precision."""
    import mpmath
    lam = mpmath.mpf(a) + 1
    vals = [mpmath.mpf(0), mpmath.mpf(1)]     # C_{-1}, C_0
    for n in range(1, N):
        vals.append((2 * (n + lam - 1) * z * vals[-1] - (n + 2 * lam - 2) * vals[-2]) / n)
    return vals[1:]


def _gegenbauer_raw_norms_mp(a, tau, N):
    """h_n = pi sqrt(1-tau^2)/(2 tau) C_n^{(a+1)}(1/tau)/(n+a+1), n < N."""
    import mpmath
    t = mpmath.mpf(tau)
    pref = mpmath.pi * mpmath.sqrt(1 - t * t) / (2 * t)
    return [pref * c / (n + a + 1) for n, c in enumerate(_gegenbauer_mp(a, 1 / t, N))]


@pytest.mark.parametrize("a", [0.0, 0.5, 2.5])
def test_log_c_matches_a_30_digit_gegenbauer_norm_to_n_1e4(a):
    # every degree of the normalisation, against the closed form in 30 digits
    mpmath = pytest.importorskip("mpmath")
    tau, N = 0.5, 10_000
    with mpmath.workdps(30):
        ref = np.array([float(-mpmath.log(h) / 2) for h in _gegenbauer_raw_norms_mp(a, tau, N)])
    kern = FiniteKernel(GasFamily(PolyKind.GEGENBAUER, a), EllipseGeometry(tau), N)
    assert np.max(np.abs(kern._log_c - ref)) <= 4e-12


def test_kernel_near_the_wall_at_N_1e4_matches_a_40_digit_sum():
    # points with ellipse deficit 1e-4 .. 1e-2, where the terms near n = N
    # dominate; eval takes the one-point path, diagonal the streamed one.  The
    # weight is the library's, so that the check is on the sum: the deficit
    # rounds to a relative eps/deficit, about 1e-12 at these points
    mpmath = pytest.importorskip("mpmath")
    a, tau, N = 0.5, 0.5, 10_000
    geo = EllipseGeometry(tau)
    pts = [math.sqrt(1 - d) * complex(geo.semi_x * math.cos(th), geo.semi_y * math.sin(th))
           for d, th in ((1e-4, 0.7), (1e-3, 0.3), (3e-3, 1.2), (1e-2, 2.5))]
    assert all(0.99e-4 <= ellipse_deficit(geo, z) <= 1.001e-2 for z in pts)
    for kind in A_KINDS:
        gas = GasFamily(kind, a)
        with mpmath.workdps(40):
            zs = [mpmath.mpc(z) for z in pts]
            if kind is PolyKind.GEGENBAUER:
                norms = _gegenbauer_raw_norms_mp(a, tau, N)
                vals = [_gegenbauer_mp(a, z, N) for z in zs]
            else:
                off = 2 if kind is PolyKind.JACOBI_PLUS else 1
                norms = _jacobi_raw_norms_mp(a, off, tau, N)
                vals = _jacobi_mp(a, off, zs, N)
            refs = np.array([float(weight(gas, geo, z)
                                   * mpmath.fsum(abs(c) ** 2 / h for c, h in zip(p, norms)))
                             for z, p in zip(pts, vals)])
        kern = FiniteKernel(gas, geo, N)
        one = np.array([kern.eval(z, z) for z in pts])
        assert np.all(np.abs(one - refs) <= 1e-13 * refs)
        assert np.all(np.abs(kern.diagonal(pts) - refs) <= 3e-14 * refs)


def test_eval_with_exponents_near_2e4_matches_a_40_digit_sum():
    # at a = 300, tau = 1e-6 the terms' power-of-two exponents reach about
    # 2e4: a float log per term, that exponent times a rounded ln 2, left
    # eval 1.1e-12 off; the scaled table rounds only sigma_n v_n
    mpmath = pytest.importorskip("mpmath")
    a, tau, N = 300.0, 1e-6, 3000
    geo = EllipseGeometry(tau)
    gas = GasFamily(PolyKind.GEGENBAUER, a)
    z = complex(0.3 * geo.semi_x, 0.9 * geo.semi_y)
    with mpmath.workdps(40):
        h = _gegenbauer_raw_norms_mp(a, tau, N)
        p = _gegenbauer_mp(a, mpmath.mpc(z), N)
        ref = float(weight(gas, geo, z) * mpmath.fsum(abs(c) ** 2 / hn for c, hn in zip(p, h)))
    kern = FiniteKernel(gas, geo, N)
    assert abs(kern.eval(z, z) - ref) <= 1e-13 * ref
    assert abs(kern.diagonal([z, 0.1j])[0] - ref) <= 3e-14 * ref


def test_diagonal_and_eval_underflow_at_the_same_points():
    # at a = 800 the weight is tiny and the sums are large: each streamed sum
    # is folded to a mantissa in [1/2, 1) before its exponential, so the
    # diagonal underflows only where eval does, and agrees with it elsewhere
    geo = EllipseGeometry(0.4)
    kern = FiniteKernel(GasFamily(PolyKind.GEGENBAUER, 800.0), geo, 281)
    pts = interior_points(geo, 400, np.random.default_rng(2))
    one = np.array([kern.eval(z, z).real for z in pts])
    batch = kern.diagonal(pts)
    assert np.array_equal(one == 0.0, batch == 0.0)
    normal = np.maximum(one, batch) >= np.finfo(float).tiny
    assert normal.sum() > 300
    assert np.all(np.abs(one - batch)[normal] <= 1e-13 * one[normal])


def _jacobi_mp(a, off, zs, N):
    """P_n^(a+1/2, off-3/2)(z), n < N, at each point z of zs, by the recurrence
    in the current mpmath precision: the jacobi-plus (off = 2) or jacobi-minus
    (off = 1) polynomial.  The coefficients are built once for all points."""
    import mpmath
    al, be = mpmath.mpf(a) + mpmath.mpf(1) / 2, off - mpmath.mpf(3) / 2
    coefs = []
    for n in range(2, N):
        c = 2 * n + al + be
        a1 = 2 * n * (n + al + be) * (c - 2)
        coefs.append(((c - 1) * (al * al - be * be) / a1, (c - 2) * (c - 1) * c / a1,
                      2 * (n + al - 1) * (n + be - 1) * c / a1))
    out = []
    for z in zs:
        vals = [mpmath.mpf(1), (al - be) / 2 + (al + be + 2) / 2 * z]
        for lin0, lin1, quad in coefs:
            vals.append((lin0 + lin1 * z) * vals[-1] - quad * vals[-2])
        out.append(vals[:N])
    return out


def _jacobi_raw_norms_mp(a, off, tau, N):
    """h_n = 2^off sqrt((1-tau)/(2 tau)) Gamma(n+off-1/2)^2 Gamma(a+1)^2
    C_{2n+off-1}^(a+1)(semi_x) / (Gamma(n+a+off)^2 (2n+a+off)), n < N: the
    Gegenbauer form of the Jacobi norms, at the semi_x of the double tau
    taken exactly, so that the reference is the ellipse of tau."""
    import mpmath
    t = mpmath.mpf(tau)
    c = _gegenbauer_mp(a, mpmath.sqrt((1 + t) / (2 * t)), 2 * N + off - 2)
    pref = 2 ** off * mpmath.sqrt((1 - t) / (2 * t)) * mpmath.gamma(a + 1) ** 2
    # Gamma(n+off-1/2)/Gamma(n+a+off) by its ratio recurrence
    ratio = mpmath.gamma(off - mpmath.mpf(1) / 2) / mpmath.gamma(a + off)
    norms = []
    for n in range(N):
        norms.append(pref * ratio ** 2 * c[2 * n + off - 1] / (2 * n + a + off))
        ratio *= (n + off - mpmath.mpf(1) / 2) / (n + a + off)
    return norms


@pytest.mark.parametrize("kind", [PolyKind.GEGENBAUER, PolyKind.JACOBI_MINUS,
                                  PolyKind.JACOBI_PLUS])
def test_a_pair_with_largest_terms_at_different_degrees_matches_a_40_digit_sum(kind):
    # z1 inside, whose terms fall off from n = 0, and z2 at deficit 1e-3, whose
    # terms peak near n = 1000: each point's feature table is scaled to its
    # own largest term, and the product of the two tables is the kernel.  The
    # weight is the library's, and the tolerance that of the near-wall diagonal
    mpmath = pytest.importorskip("mpmath")
    a, tau, N = 0.5, 0.5, 10_000
    geo = EllipseGeometry(tau)
    gas = GasFamily(kind, a)
    z1 = 0.2 + 0.15j
    z2 = math.sqrt(1 - 1e-3) * complex(geo.semi_x * math.cos(0.3), geo.semi_y * math.sin(0.3))
    assert 0.99e-3 <= ellipse_deficit(geo, z2) <= 1.01e-3
    off = 2 if kind is PolyKind.JACOBI_PLUS else 1
    with mpmath.workdps(40):
        zs = [mpmath.mpc(z1), mpmath.mpc(z2)]
        if kind is PolyKind.GEGENBAUER:
            h = _gegenbauer_raw_norms_mp(a, tau, N)
            p1, p2 = (_gegenbauer_mp(a, z, N) for z in zs)
        else:
            h = _jacobi_raw_norms_mp(a, off, tau, N)
            p1, p2 = _jacobi_mp(a, off, zs, N)
        terms = [(abs(u) ** 2 / hn, abs(v) ** 2 / hn) for u, v, hn in zip(p1, p2, h)]
        assert max(range(N), key=lambda n: terms[n][0]) < 10
        assert max(range(N), key=lambda n: terms[n][1]) > 500
        w1, w2 = weight(gas, geo, z1), weight(gas, geo, z2)
        k12 = complex(math.sqrt(w1 * w2) * mpmath.fsum(u * mpmath.conj(v) / hn
                                                       for u, v, hn in zip(p1, p2, h)))
        k11 = float(w1 * mpmath.fsum(t for t, _ in terms))
        k22 = float(w2 * mpmath.fsum(t for _, t in terms))
    kern = FiniteKernel(gas, geo, N)
    tol = 1e-13 * math.sqrt(k11 * k22)
    assert abs(kern.eval(z1, z2) - k12) <= tol
    assert abs(kern.eval(z2, z1) - k12.conjugate()) <= tol
    assert abs(kern.eval_batch(z1, [z2])[0] - k12) <= tol
    # the two-point row is streamed against z1's kept table
    row = kern.eval_batch(z1, [z1, z2])
    assert abs(row[0] - k11) <= 1e-13 * k11 and abs(row[1] - k12) <= tol
    assert abs(kern.eval(z1, z1) - k11) <= 1e-13 * k11
    assert abs(kern.eval(z2, z2) - k22) <= 1e-13 * k22


@pytest.mark.parametrize("call, error, message", [
    (lambda k: k.eval(2 + 0j, -1 + 0j), DomainError, "finite needs z in the ellipse, got (2+0j)"),
    (lambda k: k.eval(2.0, -1), DomainError, "finite needs z in the ellipse, got 2.0"),
    (lambda k: k.eval(-1 + 0j, 2 + 0j), SingularPointError,
     "point (-1+0j) sits on a weight singularity"),
    (lambda k: k.eval_batch(2 + 0j, [-1 + 0j]), DomainError,
     "finite needs z in the ellipse, got (2+0j)"),
    (lambda k: k.eval_batch(-1.0, [0.1, 2.0]), SingularPointError,
     "point -1.0 sits on a weight singularity"),
    (lambda k: k.eval_batch(0.1 + 0.2j, [2 + 0j]), DomainError,
     "finite needs z in the ellipse, got (2+0j)"),
    (lambda k: k.eval_batch(0.1 + 0.2j, [0.3, 2 + 0j, -1 + 0j]), DomainError,
     "finite needs z in the ellipse, got (2+0j)"),
    (lambda k: k.diagonal([-1 + 0j]), SingularPointError,
     "point (-1+0j) sits on a weight singularity"),
    (lambda k: k.diagonal([0.1 + 0.2j, 2 + 0j]), DomainError,
     "finite needs z in the ellipse, got (2+0j)"),
])
@pytest.mark.parametrize("kind", [PolyKind.CHEBYSHEV_V, PolyKind.JACOBI_MINUS])
def test_one_entry_checks_z1_before_zs_and_names_the_first_bad_point(kind, call, error,
                                                                     message):
    """Every call reaches the kernel through one checked entry: z1 is checked
    before zs, and the error names the first bad point as it was given."""
    a = 0.0 if kind is PolyKind.CHEBYSHEV_V else 0.5
    kern = FiniteKernel(GasFamily(kind, a), EllipseGeometry(0.5), 6)
    for _ in range(2):      # the same before and after the good points are stored
        with pytest.raises(DomainError) as exc:
            call(kern)
        assert type(exc.value) is error and str(exc.value) == message


@pytest.mark.parametrize("a,Z1,Z2", [(300.0, 30.0, 30.0), (200.0, 50.0, 40.0 + 1.0j)])
def test_truncated_edge_at_large_a(a, Z1, Z2):
    # (X1 X2)^{a/2} and 1/Gamma(a+1) each leave the double range; their product
    # in log space does not
    from ellipsegas import edge_strong
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        w1, w2 = mpmath.mpc(Z1), mpmath.mpc(Z2)
        beta = (w1.real + w2.real) / 2 + 1j * (w1.imag - w2.imag) / 2
        ref = complex((w1.real * w2.real) ** (a / 2) / (4 * mpmath.pi * mpmath.gamma(a + 1))
                      * mpmath.gammainc(a + 2, 0, beta) / beta ** (a + 2))
    got = kernel_truncated_edge(a, Z1, Z2)
    assert abs(got - ref) <= 1e-11 * abs(ref)
    assert abs(got - edge_strong(a, Z1, Z2)) <= 1e-11 * abs(ref)


@pytest.mark.parametrize("a", [-0.99, -0.5, 0.5, 3.0, 30.0])
def test_truncated_edge_within_its_beta_bound_against_40_digits(a):
    # at Z1 = beta, Z2 = conj beta; the error is taken against the scale of the
    # integral, int_0^1 c^{a+1} e^{-c Re beta} dc, times the prefactor, every
    # direction of beta up to the bound, where the rule is weakest
    mpmath = pytest.importorskip("mpmath")
    for size in (40.0, 100.0, 160.0):
        for angle in np.linspace(-1.56, 1.56, 27):
            beta = complex(size * math.cos(angle), size * math.sin(angle))
            with mpmath.workdps(40):
                b, x = mpmath.mpc(beta), mpmath.mpf(beta.real)
                pref = x ** a / (4 * mpmath.pi * mpmath.gamma(a + 1))
                want = complex(pref * mpmath.gammainc(a + 2, 0, b) / b ** (a + 2))
                scale = float(pref * mpmath.gammainc(a + 2, 0, x) / x ** (a + 2))
            got = kernel_truncated_edge(a, beta, beta.conjugate())
            assert abs(got - want) <= 1e-13 * scale, (size, angle)


def test_truncated_edge_refuses_a_rule_past_the_double_range():
    # the weights of its Gauss-Jacobi rule for (1+x)^(a+1) sum to
    # 2^(a+2)/(a+2), past the double range from a of about 1032
    from ellipsegas import OutOfRangeError
    assert np.isfinite(kernel_truncated_edge(1000.0, 1.0, 1.0))
    with pytest.raises(OutOfRangeError, match="past the double range"):
        kernel_truncated_edge(2000.0, 1.0, 1.0)


@pytest.mark.parametrize("a,Z1,Z2", [(0.5, 800.0, 800.0), (0.0, 2000.0, 2000.0),
                                     (1.5, 1000 + 5j, 900 - 40j), (3.0, 1.0 + 161j, 1.0 - 161j),
                                     (-0.5, 160.0 + 0.5j, 160.5 - 0.5j)])
def test_truncated_edge_refuses_past_its_beta_bound(a, Z1, Z2):
    # its 64-node rule was 7.4e-7 off at (0.5, 800, 800) and 1.7e-2 at
    # (0, 2000, 2000); edge_strong answers there
    from ellipsegas import OutOfRangeError, edge_strong
    with pytest.raises(OutOfRangeError, match=r"\|beta\| <= 160"):
        kernel_truncated_edge(a, Z1, Z2)
    assert np.isfinite(edge_strong(a, Z1, Z2))
