import cmath
import itertools
import math
import time
import warnings

import numpy as np
import pytest

from ellipsegas import (DomainError, EllipseGeometry, FiniteKernel, GasFamily,
                        LimitKernelSpec, LimitKind, OutOfRangeError, PolyKind,
                        QuadratureSpec, SingularPointError, TailDivergenceError, bessel_kernel, bulk_from_edge_check,
                        bulk_strong, bulk_weak, edge_strong, edge_weak,
                        edge_weak_minus_cosine, edge_weak_minus_sine,
                        ginibre_kernel, global_kernel_t, global_kernel_u,
                        global_kernel_v, global_rot_t, global_rot_u, global_rot_v,
                        kernel_truncated_edge, make_kernel, sine_kernel)
from ellipsegas import kernels_limit
from ellipsegas.geometry import KERNEL_KINDS, _log_power
from ellipsegas.kernels_limit import (_FEATURES, _HALF_LINE_FEATURES, _build_feature, _feature,
                                      _half_line_feature, _weights)
from ellipsegas.quadrature import (_HALF_LINE_CAP, HALF_LINE, UNIT_INTERVAL, _c_rule, _gauss_rule,
                                   integrate_c)
from ellipsegas.specialfns import bessel_j, ln_gamma, log_i_ratio

B_OF = lambda a: math.sqrt(math.pi) * math.exp(math.lgamma(a + 1.5) - math.lgamma(a + 2.0))


def weak_tau(s, N):
    return 1.0 / (1.0 + s * s / (2.0 * N * N))


# ----------------------------------------------------------------- sine / ginibre

def test_sine_kernel_values():
    assert sine_kernel(0.4, 0.4) == pytest.approx(1 / math.pi, rel=1e-15)
    assert sine_kernel(math.pi, 0.0) == pytest.approx(0.0, abs=1e-16)
    assert sine_kernel(0.5, 0.0) == pytest.approx(math.sin(0.5) / (0.5 * math.pi), rel=1e-15)


def test_ginibre_kernel_values():
    assert ginibre_kernel(0, 0) == pytest.approx(2 / math.pi, rel=1e-15)
    u = 0.73 - 1.21j
    assert ginibre_kernel(u, u) == pytest.approx(2 / math.pi, rel=1e-13)
    assert ginibre_kernel(1.0, 0.0) == pytest.approx(2 / math.pi * math.exp(-1), rel=1e-14)


@pytest.mark.parametrize("kernel, args, expect", [
    # beta = (X1 + X2)/2 overflowed and the continued fraction never converged
    (edge_strong, (0.5, 1e308, 1e308), OutOfRangeError),
    # the gamma ratio underflows to 0 while the value, 1.2e-261, does not
    (edge_strong, (0.5, 1e130, 1e130), OutOfRangeError),
    # inf and nan were the divergence flag, nan or a RuntimeError
    (edge_strong, (0.5, math.inf, 1.0), DomainError),
    (edge_strong, (0.5, math.nan, 0.0), DomainError),
    (kernel_truncated_edge, (0.5, math.inf, 1.0), DomainError),
    # x1 - x2 overflows: math domain error from sin(inf)
    (sine_kernel, (1e308, -1e308), OutOfRangeError),
    (sine_kernel, (math.nan, 0.0), DomainError),
    # u1 conj u2 overflows, 2 Im(u1 conj u2) on the diagonal does not
    (ginibre_kernel, (1e200 + 1e200j, 1e200 + 1e200j), 2.0 / math.pi),
    (ginibre_kernel, (math.nan, 0.0), DomainError),
], ids=lambda v: repr(v) if isinstance(v, tuple) else None)
def test_closed_form_kernels_at_the_ends_of_the_double_range(kernel, args, expect):
    # each answers correctly or raises a named error that names the kernel,
    # a point outside its domain by the kernel's kind
    if isinstance(expect, type):
        name = kernel.__name__
        if expect is DomainError:
            name = next((kind for kind, row in KERNEL_KINDS.items() if row[1] == name), name)
        with pytest.raises(expect, match=name):
            kernel(*args)
    else:
        assert kernel(*args) == pytest.approx(expect, rel=1e-14)


# --------------------------------------------------------------------- bulk weak

def test_bulk_weak_diagonal_real_positive():
    val = bulk_weak(1.0, 1.0, 0.2, 0.2)
    assert abs(val.imag) < 1e-14
    assert val.real > 0


def test_bulk_weak_translation_invariance():
    # depends on z1 - conj z2 and the imaginary parts only
    a, s = 1.0, 2.0
    z1, z2 = 0.3 + 0.4j, -0.1 + 0.2j
    for shift in (0.7, -2.3):
        v1 = bulk_weak(a, s, z1, z2)
        v2 = bulk_weak(a, s, z1 + shift, z2 + shift)
        assert abs(v1 - v2) <= 1e-12 * abs(v1)


def test_bulk_weak_domain_error():
    with pytest.raises(DomainError):
        bulk_weak(1.0, 1.0, 0.6j, 0.0)


def test_bulk_weak_finite_N_oracle():
    # (1/N^2) K_N(z/N) at N = 400 within 2e-3
    a, s, N = 1.0, 1.0, 400
    kern = FiniteKernel(GasFamily(PolyKind.GEGENBAUER, a),
                        EllipseGeometry(weak_tau(s, N)), N)
    got = kern.eval(0.0, 0.0) / N ** 2
    ref = bulk_weak(a, s, 0.0, 0.0)
    assert abs(got - ref) <= 2e-3


def _bulk_weak_sum_in_40_digits(a, s, z1, z2):
    """The 64-node sum of bulk_weak, its weight G and cos(c(z1 - conj z2))
    taken in 40 digits at the rule's double nodes and weights."""
    mpmath = pytest.importorskip("mpmath")
    c, w = _gauss_rule(UNIT_INTERVAL, 64)
    with mpmath.workdps(40):
        a, s = mpmath.mpf(a), mpmath.mpf(s)
        d = mpmath.mpc(z1) - mpmath.conj(mpmath.mpc(z2))
        total = mpmath.mpf(0)
        for ci, wi in zip(c.tolist(), w.tolist()):
            x = mpmath.mpf(ci) * s
            g = 2 * (x / 2) ** (a + 0.5) / (s * mpmath.pi ** 1.5 * mpmath.gamma(a + 1)
                                            * mpmath.besseli(a + 0.5, x))
            total += mpmath.mpf(wi) * g * mpmath.cos(mpmath.mpf(ci) * d)
        for z in (z1, z2):
            total *= (1 - 4 * mpmath.mpf(z.imag) ** 2 / s ** 2) ** (a / 2)
        return complex(total)


def test_bulk_weak_answers_where_cos_cz_overflows():
    # past |Im z| of about 710 cos(cz) overflows while sqrt(W G) cos(cz) does
    # not; the features are formed in log space.  The 64-node rule itself is
    # 2.9e-5 off the integral here: 30-digit mpmath.quad gives 1.19627764459e-05
    a, s = 0.5, 3000.0
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        value = bulk_weak(a, s, 1400j, 1400j)
        z1, z2 = 0.3 + 700j, -0.2 - 700j
        pair = [bulk_weak(a, s, u, v) for u, v in ((z1, z1), (z1, z2), (z2, z2))]
    assert value.imag == 0.0 and 0.0 < value.real < math.inf
    assert abs(value - _bulk_weak_sum_in_40_digits(a, s, 1400j, 1400j)) <= 1e-13 * value.real
    scale = math.sqrt(pair[0].real * pair[2].real)
    assert (abs(pair[1] - _bulk_weak_sum_in_40_digits(a, s, z1, z2))
            <= 8 * np.finfo(float).eps * scale)


def test_bulk_density_depends_only_on_imaginary_part():
    a, s = 1.5, 1.3
    base = bulk_weak(a, s, 0.37j, 0.37j)
    for xhat in (0.0, 1.7, -4.2):
        assert abs(bulk_weak(a, s, xhat + 0.37j, xhat + 0.37j) - base) <= 1e-12 * abs(base)


def test_sine_reduction():
    # normalized bulk kernel at s = 1e-3 matches the sine kernel to 1e-3
    a, s = 1.0, 1e-3
    norm = s * math.pi / (2 * (a + 1) * B_OF(a))
    for dx in (0.3, 0.7, 1.5, 2.4, 3.1):
        got = norm * bulk_weak(a, s, dx, 0.0)
        assert abs(got - sine_kernel(dx, 0.0)) <= 1e-3


# --------------------------------------------------------------------- edge weak

def test_edge_weak_diagonal_and_symmetry():
    a, s = 1.0, 1.0
    v = edge_weak(a, s, 1.0, 1.0)
    assert abs(v.imag) < 1e-14 and v.real >= 0
    Z1, Z2 = 0.5 + 0.3j, 2.0 - 0.5j
    k12 = edge_weak(a, s, Z1, Z2)
    k21 = edge_weak(a, s, Z2, Z1)
    assert abs(k12 - np.conj(k21)) <= 1e-10 * abs(k12)


def test_edge_weak_domain_error():
    with pytest.raises(DomainError):
        edge_weak(1.0, 1.0, -0.3 + 0.8j, 0.0)
    # X = inf passes the parabola's inequality; it is refused, not summed
    for kernel in (edge_weak, edge_weak_minus_sine, edge_weak_minus_cosine):
        with pytest.raises(DomainError):
            kernel(0.5, 1.0, complex(math.inf, 0.0), 1.0)


def test_edge_weak_branch_flip_invariance():
    # flipping sqrt(Z) -> -sqrt(Z) leaves the kernel unchanged: its features
    # at -sqrt(Z) give the value of those at sqrt(Z)
    a, s = 1.5, 0.8
    Z1, Z2 = 0.6 + 0.4j, 1.3 - 0.2j
    rule = _c_rule(UNIT_INTERVAL, QuadratureSpec())
    w1, w2 = np.sqrt(Z1), np.sqrt(Z2)

    def phi(w):
        return kernels_limit._phi_nodes("edge-weak", a, s, rule, w)[0]

    base = np.sum(phi(w1) * np.conj(phi(w2)))
    for f1, f2 in ((-1, 1), (1, -1), (-1, -1)):
        flipped = np.sum(phi(f1 * w1) * np.conj(phi(f2 * w2)))
        assert abs(flipped - base) <= 1e-12 * abs(base)


def test_edge_weak_finite_N_oracle():
    a, s, N = 0.0, 1.0, 400
    kern = FiniteKernel(GasFamily(PolyKind.GEGENBAUER, a),
                        EllipseGeometry(weak_tau(s, N)), N)
    Z = 1.0
    z = 1.0 - Z / (2 * N * N)
    got = kern.eval(z, z) / (4.0 * N ** 4)
    ref = edge_weak(a, s, Z, Z)
    assert abs(got - ref) <= 2e-3


def test_edge_density_depends_on_both_coordinates():
    # witness of broken translation invariance along X
    a, s = 1.0, 1.0
    v1 = edge_weak(a, s, 0.5, 0.5)
    v2 = edge_weak(a, s, 1.5, 1.5)
    assert abs(v1 - v2) > 1e-3


# ------------------------------------------------------------------ bessel kernel

def test_bessel_reduction_from_edge():
    a, s = 1.0, 1e-3
    norm = s * math.pi / (2 * (a + 1) * B_OF(a))
    for X in (0.5, 1.0, 4.0):
        got = norm * edge_weak(a, s, X, X)
        assert abs(got - bessel_kernel(a, X, X)) <= 1e-3


def test_bessel_kernel_value_against_quadrature_oracle():
    # (1/4)(X1 X2)^{-1/4} int_0^1 c J_{1/2}(2c)^2 dc at a=0, X=4
    t = np.linspace(0.0, 1.0, 200_001)
    integrand = t * np.array([bessel_j(0.5, 2 * ti) for ti in t[:: 1]]) ** 2
    oracle = 0.25 * (16.0) ** (-0.25) * np.trapezoid(integrand, t)
    assert bessel_kernel(0.0, 4.0, 4.0) == pytest.approx(float(oracle.real), rel=1e-8)


def test_bessel_kernel_j0_diagonal_positive():
    val = bessel_kernel(-0.5, 1.3, 1.3)
    assert math.isfinite(val) and val > 0


def test_bessel_kernel_on_the_edge_X_zero():
    # a = 0: J_{1/2}(x) = sqrt(2/(pi x)) sin x gives the X1 -> 0 limit
    # K(0, X) = (1/(2 pi sqrt X)) int_0^1 c sin(c sqrt X) dc, at X = 1
    # (sin 1 - cos 1)/(2 pi)
    limit = (math.sin(1.0) - math.cos(1.0)) / (2.0 * math.pi)
    assert bessel_kernel(0.0, 0.0, 1.0) == pytest.approx(limit, rel=1e-13)
    assert bessel_kernel(0.0, 1.0, 0.0) == pytest.approx(limit, rel=1e-13)
    assert bessel_kernel(0.0, 1e-14, 1.0) == pytest.approx(limit, rel=1e-6)
    assert bessel_kernel(0.7, 0.0, 1.0) == 0.0
    assert bessel_kernel(2.0, 0.0, 0.0) == 0.0
    assert bessel_kernel(-0.4, 0.0, 1.0) == math.inf   # edge_strong's hard-edge flag
    assert isinstance(bessel_kernel(0.0, 0.0, 1.0), float)


def test_bessel_kernel_refuses_beyond_w_max_squared():
    # at X = 1e4 the integrand oscillates at ~200 rad on [0,1], which the
    # default c-nodes alias
    with pytest.raises(OutOfRangeError):
        bessel_kernel(0.0, 1e4, 1e4)
    with pytest.raises(OutOfRangeError):
        make_kernel(LimitKernelSpec(LimitKind.BESSEL, a=0.0))(1.0, complex(1e4, 0.0))
    # a point off the real line is refused before its size is looked at
    with pytest.raises(DomainError):
        make_kernel(LimitKernelSpec(LimitKind.BESSEL, a=0.0))(1.0, 1e4 + 0.5j)


@pytest.mark.parametrize("call", [lambda: edge_weak(100.0, 1.0, 1.0, 0.5 + 0.3j),
                                  lambda: bessel_kernel(100.0, 1.0, 2.0),
                                  lambda: bessel_kernel(200.0, 100.0, 100.0)],
                         ids=["edge_weak-a100", "bessel-a100", "bessel-a200"])
def test_quadrature_kernels_refuse_where_the_integrand_leaves_the_double_range(call):
    # the value, with a product of two J_nu(u) u^-nu of at most
    # 4^-nu / Gamma(nu+1)^2, is below the normal doubles
    with pytest.raises(OutOfRangeError):
        call()


def _rule_sum_40(kind, a, s, Z1, Z2):
    """A weak-edge or Bessel kernel as the 40-digit sum of its own integrand
    over the default 64-node c-rule, whose nodes and weights are taken as
    exact: it measures rounding alone."""
    mpmath = pytest.importorskip("mpmath")
    c, w = _gauss_rule(*_c_rule(UNIT_INTERVAL, QuadratureSpec()))
    with mpmath.workdps(40):
        a, s = mpmath.mpf(a), mpmath.mpf(s)
        nu = a + mpmath.mpf(1) / 2
        Z1, Z2 = mpmath.mpc(Z1), mpmath.mpc(Z2)
        w1, w2 = mpmath.sqrt(Z1), mpmath.sqrt(mpmath.conj(Z2))
        ratio = lambda c: (c * s / 2) ** nu / mpmath.besseli(nu, c * s)
        phi = lambda u: mpmath.hyp0f1(nu + 1, -u * u / 4) / (2 ** nu * mpmath.gamma(nu + 1))
        walls = [s * s / 4 + Z.real - (Z.imag / s) ** 2 for Z in (Z1, Z2)]
        pref = 1 / (s * mpmath.pi ** 1.5 * mpmath.gamma(a + 1))
        if kind == "bessel":
            pref, walls = (Z1.real * Z2.real) ** (a / 2) / 4, []
            f = lambda c: c ** (2 * a + 2) * phi(c * w1) * phi(c * w2)
        elif kind == "edge-weak":
            pref *= mpmath.pi / 2
            f = lambda c: ratio(c) * c ** (2 * a + 2) * phi(c * w1) * phi(c * w2)
        else:
            walls = [1 - 2 / (s * s) * (abs(Z) - Z.real) for Z in (Z1, Z2)]
            if kind == "edge-weak-minus-sine":
                f = lambda c: ratio(c) * mpmath.sin(c * w1) / w1 * mpmath.sin(c * w2) / w2
            else:
                pref /= mpmath.sqrt(abs(Z1) * abs(Z2))
                f = lambda c: ratio(c) * mpmath.cos(c * w1) * mpmath.cos(c * w2)
        for q in walls:
            pref *= q ** (a / 2)
        return complex(pref * mpmath.fsum(mpmath.mpf(wi) * f(mpmath.mpf(ci))
                                          for ci, wi in zip(c.tolist(), w.tolist())))


_EDGE_KERNELS = {"edge-weak": edge_weak, "edge-weak-minus-sine": edge_weak_minus_sine,
                 "edge-weak-minus-cosine": edge_weak_minus_cosine}


@pytest.mark.parametrize("kind", sorted(_EDGE_KERNELS))
@pytest.mark.parametrize("Z2", [1.749 - 4.358j, 0.3 + 0.4j])
def test_weak_edge_walls_near_the_boundary_against_40_digits(kind, Z2):
    # Z1 is 0.0089 from the parabola's wall in q = s^2/4 + X - (Y/s)^2,
    # whose terms are of size 3.2: q summed in doubles is 4e-14 off, so the
    # kernels were 57-156 eps off the 40-digit sum of the same rule; with q
    # summed exactly they are within 2.3 eps
    a, s, Z1 = -0.817, 2.43, 1.749 - 4.358j
    ref = _rule_sum_40(kind, a, s, Z1, Z2)
    got = _EDGE_KERNELS[kind](a, s, Z1, Z2)
    assert abs(got - ref) <= 8 * np.finfo(float).eps * abs(ref)


def test_edge_wall_is_correctly_rounded():
    from fractions import Fraction
    rng = np.random.default_rng(7)
    for _ in range(300):
        s = float(rng.uniform(0.01, 5.0)) * 2.0 ** int(rng.integers(-20, 20))
        Y = float(rng.uniform(-50, 50))
        X = (Y / s) ** 2 - s * s / 4 + float(rng.choice([-1, 1]) * 10 ** rng.uniform(-12, 2))
        exact = Fraction(s) ** 2 / 4 + Fraction(X) - (Fraction(Y) / Fraction(s)) ** 2
        assert kernels_limit._edge_wall(s, complex(X, Y)) == float(exact)
    assert kernels_limit._edge_wall(2.0, complex(-1.0, 0.0)) == 0.0    # on the wall


@pytest.mark.parametrize("a", [83.0, 84.0, 84.3, 90.0, 150.0, 200.0])
def test_edge_and_bessel_kernels_answer_in_full_precision_or_refuse(a):
    # the kernels once returned subnormal values, edge_weak(84, ...) =
    # 6.7e-312 and bessel_kernel(83, 1, 0.5) = 1.9e-317, 1.6e-12 and 8e-4
    # off, and bessel_kernel(84.3, 3600, 3600) = 1.4e-20, normal but 6e-5
    # off, from an integral of subnormal terms; then refused every a from
    # 84.4, where phi(0)^2 underflows, bessel_kernel(90, 3600, 3600) =
    # 2.86e-25 included.  Each feature keeps phi(0) as a power of two apart,
    # so a value that is a normal double is within 2e-13 of the 40-digit sum
    # of the same rule, and any other is refused: its prefactor is the exp
    # of terms up to lnGamma(a+1) = 868 and a log X = 819, each rounded to
    # eps relative, which allows about 1.9e-13
    call = {"edge-weak": lambda s, Z1, Z2: edge_weak(a, s, Z1, Z2),
            "bessel": lambda s, Z1, Z2: bessel_kernel(a, Z1, Z2)}
    for kind, s, Z1, Z2 in [("edge-weak", 1.0, 1.0, 0.5 + 0.3j),
                            ("edge-weak", 1.0, 3600.0, 3600.0 + 0j),
                            ("edge-weak", 2.0, 2500.0 + 60j, 3600.0 - 40j),
                            ("bessel", 1.0, 1.0, 0.5), ("bessel", 1.0, 1000.0, 1000.0),
                            ("bessel", 1.0, 3600.0, 3600.0), ("bessel", 1.0, 3600.0, 2500.0)]:
        ref = _rule_sum_40(kind, a, s, Z1, Z2)
        if not abs(ref) >= np.finfo(float).tiny:
            with pytest.raises(OutOfRangeError):
                call[kind](s, Z1, Z2)
            continue
        got = call[kind](s, Z1, Z2)
        assert abs(got - ref) <= 2e-13 * abs(ref), (kind, a, Z1, got, ref)
    # a point on the hard wall gives the wall's limit at any order
    assert edge_weak(89.5, 2.0, -1.0, 0.5 + 0.3j) == 0.0
    assert bessel_kernel(90.0, 0.0, 0.7) == 0.0


@pytest.mark.parametrize("a", [1e17, 1e300, 2e305])
def test_phi_kernels_refuse_by_name_at_any_order(a):
    # phi(0) = m 2^k with k below -10^18: every value off the wall is below
    # the doubles and refused as such, without a warning or a bare
    # OverflowError from the split of e^(l1 + l2) or of Gamma(a + 3/2), whose
    # log2 passes the doubles at 2e305; on the wall the value is its limit
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for call in (lambda: bessel_kernel(a, 1.0, 1.0), lambda: edge_weak(a, 1.0, 1.0, 1.0),
                     lambda: edge_weak(a, 1.0, 1e-3, 0.3 + 0.1j)):
            with pytest.raises(OutOfRangeError, match="outside the normal double range"):
                call()
        assert edge_weak(a, 2.0, -1.0, 0.5 + 0.3j) == 0.0
        assert bessel_kernel(a, 0.0, 0.7) == 0.0


def test_real_point_kernels_reject_complex_points():
    # a point of the real line is a number whose imaginary part is +-0.0;
    # make_kernel used to pass the real part of any other
    with pytest.raises(DomainError):
        sine_kernel(0.3 + 0.2j, 0.0)
    with pytest.raises(DomainError):
        bessel_kernel(0.0, 1.0 + 0.5j, 1.0)
    kern = make_kernel(LimitKernelSpec(LimitKind.SINE))
    with pytest.raises(DomainError):
        kern(0.3 + 0.2j, 0.0)
    assert kern(complex(0.3, -0.0), 0j) == sine_kernel(0.3, 0.0)
    assert make_kernel(LimitKernelSpec(LimitKind.BESSEL, a=0.5))(1 + 0j, 2.0) == \
        bessel_kernel(0.5, 1.0, 2.0)


# --------------------------------------------------------------------- strong bulk

def test_bulk_strong_matches_weak_at_large_s():
    a, s = 1.0, 40.0
    for zt in (0.0, 0.1 + 0.2j, -0.3 + 0.25j):
        kw = s ** 2 * bulk_weak(a, s, s * zt, s * zt, QuadratureSpec(c_nodes=256))
        ks = bulk_strong(a, zt, zt)
        assert abs(kw - ks) <= 1e-3


def test_bulk_strong_diagonal_positive():
    assert bulk_strong(0.5, 0.1 + 0.2j, 0.1 + 0.2j).real > 0


def test_bulk_strong_domain_error():
    with pytest.raises(DomainError):
        bulk_strong(1.0, 0.6j, 0.0)


def test_bulk_strong_ginibre_equivalence():
    # gauge-invariant product at a = 200 within 1e-2
    a = 200.0
    ra = math.sqrt(a)
    for u1, u2 in [(0.2 + 0.1j, -0.1 + 0.3j), (0.0, 0.5)]:
        k12 = bulk_strong(a, u1 / ra, u2 / ra) / a
        k21 = bulk_strong(a, u2 / ra, u1 / ra) / a
        got = k12 * k21
        ref = ginibre_kernel(u1, u2) * ginibre_kernel(u2, u1)
        assert abs(got - ref) <= 1e-2 * max(1.0, abs(ref))


def test_bulk_strong_refuses_past_the_half_line_node_cap():
    # its rule has 16(a+2) nodes; a = 3000 used to take 33 s for its first
    # value and a = 1e8 would ask for 1.6e9 nodes
    for a in (1023.0, 3000.0, 1e8, 1e300):
        start = time.perf_counter()
        with pytest.raises(OutOfRangeError, match="half-line rule needs more than 16384 nodes"):
            bulk_strong(a, 0.1, 0.1)
        assert time.perf_counter() - start < 1.0
    with pytest.raises(OutOfRangeError):       # also where a wall would give 0
        bulk_strong(1e8, 0.5j, 0.0)
    with pytest.raises(OutOfRangeError):
        integrate_c(np.cos, HALF_LINE, QuadratureSpec(), truncation=1e6, panel=1.0)
    assert _gauss_rule(HALF_LINE, 64, 5120.0, 5.0)[0].size == 16384   # a = 1022 answers


def test_bulk_strong_refuses_the_tail_where_its_integral_does():
    # the tail test reads the last panel of the feature product: it refuses
    # exactly where the per-value integral of the half line does, and the
    # values agree within rounding of the terms' sum
    rng = np.random.default_rng(27)
    refused = answered = 0
    for _ in range(520):
        a = float(3.0 - 4.0 * rng.random())
        z1, z2 = (complex(6.0 * rng.random() - 3.0, rng.random() - 0.5) for _ in range(2))
        try:
            reference = _uncached_bulk_strong(a, z1, z2)
        except TailDivergenceError:
            with pytest.raises(TailDivergenceError):
                bulk_strong(a, z1, z2)
            refused += 1
            continue
        value = bulk_strong(a, z1, z2)
        assert abs(value - reference) <= 1e-14 * _bulk_strong_term_moduli(a, z1, z2)
        answered += 1
    assert refused >= 50 and answered >= 50


def test_half_line_feature_cache_stays_within_its_bound():
    # a point's features are two complex numbers a node: 20 kB on the
    # default 640-node rule and 512 KiB at the half-line node cap, so the
    # kept features hold at most _HALF_LINE_FEATURES of them, 3 MiB
    assert _HALF_LINE_FEATURES * _HALF_LINE_CAP * 32 <= 4e6
    assert _kept_feature("strong", 0.5, None, 0.1 + 0.2j, 1.0, 1.0)[0].nbytes == 640 * 32
    assert (_kept_feature("strong", 1022.0, None, 0.1 + 0.2j, 1.0, 1.0)[0].nbytes
            == _HALF_LINE_CAP * 32)
    rng = np.random.default_rng(9)
    for _ in range(12):
        z1, z2 = (complex(2.0 * rng.random(), 0.4 * rng.random() - 0.2) for _ in range(2))
        bulk_strong(0.5, z1, z2)
        info = _half_line_feature.cache_info()
        assert info.maxsize == _HALF_LINE_FEATURES and info.currsize <= _HALF_LINE_FEATURES


# --------------------------------------------------------------------- strong edge

def test_edge_strong_value():
    assert edge_strong(0.0, 0.0, 0.0) == pytest.approx(1 / (8 * math.pi), rel=1e-13)


def test_edge_strong_matches_weak_at_large_s():
    a, s = 1.0, 50.0
    for Zt in (0.5, 1.0 + 0.5j, 2.0 - 1.0j):
        X = (Zt.real - s / 2) * s / 2
        Y = Zt.imag * s / 2
        kw = (s ** 2 / 4) * edge_weak(a, s, complex(X, Y), complex(X, Y),
                                      QuadratureSpec(c_nodes=512))
        ks = edge_strong(a, Zt, Zt)
        assert abs(kw - ks) <= 1e-3


@pytest.mark.parametrize("a", [0.0, 1.0, 2.5, -0.5])
def test_edge_strong_equals_truncated_unitary_path(a):
    # identical integral, two independent code paths, 1e-10
    pairs = [(0.5 + 0.2j, 1.0 - 0.4j), (3.0 + 1.0j, 0.7 + 2.0j)]
    if a >= 0:
        pairs.append((0.0, 0.0))
    for Z1, Z2 in pairs:
        v1 = edge_strong(a, Z1, Z2)
        v2 = kernel_truncated_edge(a, Z1, Z2)
        assert abs(v1 - v2) <= 1e-10 * max(1.0, abs(v1))
    if a < 0:
        # both paths flag the hard-edge divergence identically
        assert edge_strong(a, 0.0, 0.0).real == math.inf
        assert kernel_truncated_edge(a, 0.0, 0.0).real == math.inf


@pytest.mark.parametrize("a", [-0.5, 0.0, 2.0])
def test_edge_strong_matches_its_closed_form_in_40_digits(a):
    # (X1 X2)^{a/2} / (4 pi Gamma(a+1)) gamma_low(a+2, beta) / beta^{a+2}; at
    # X = 0 the prefactor is the hard-wall limit, inf for a < 0
    mpmath = pytest.importorskip("mpmath")
    for X1, X2 in itertools.product((0.0, 1.0, 3.0), repeat=2):
        for Y1, Y2 in ((0.0, 0.0), (0.5, -1.0)):
            got = edge_strong(a, complex(X1, Y1), complex(X2, Y2))
            if X1 * X2 == 0.0 and a < 0:
                assert got == complex(math.inf, 0.0)
                continue
            with mpmath.workdps(40):
                beta = mpmath.mpc(0.5 * (X1 + X2), 0.5 * (Y1 - Y2))
                pref = mpmath.mpf(X1 * X2) ** (a / 2) / (4 * mpmath.pi * mpmath.gamma(a + 1))
                ref = complex(pref * (mpmath.gammainc(a + 2, 0, beta) / beta ** (a + 2)
                                      if beta else 1 / mpmath.mpf(a + 2)))
            assert abs(got - ref) <= 1e-14 * abs(ref)


def test_edge_strong_underflows_outside_the_double_range():
    # (X1 X2)^{a/2} alone overflows at a = 500, X = 5; the whole prefactor
    # underflows to 0
    assert edge_strong(500.0, 5.0, 5.0) == 0.0
    # at X1 = X2 = X >> a the value is (a+1)/(4 pi X^2): in range, and answered,
    # at X = 1e100 (past X ~ 1e120 the gamma ratio underflows and it is refused)
    assert edge_strong(0.5, 1e100, 1e100) == pytest.approx(1.5 / (4.0 * math.pi) * 1e-200,
                                                           rel=1e-14)


def _edge_strong_40_digits(a, Z1, Z2):
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        beta = mpmath.mpc(0.5 * (Z1.real + Z2.real), 0.5 * (Z1.imag - Z2.imag))
        pref = (mpmath.mpf(Z1.real * Z2.real) ** (mpmath.mpf(a) / 2)
                / (4 * mpmath.pi * mpmath.gamma(a + 1)))
        return complex(pref * mpmath.gammainc(a + 2, 0, beta) / beta ** (a + 2))


@pytest.mark.parametrize("a, Z1, Z2", [
    (0.5, 800.0, 800.0), (0.5, 710.0, 720.0 + 3.0j), (1.5, 1000.0 + 5.0j, 900.0 - 40.0j),
    (0.0, 2000.0, 2000.0), (2.0, 30.0, 30.0 + 50.0j), (-0.5, 0.2 + 40.0j, 0.3 - 35.0j),
    (7.0, 12.0 + 9.0j, 3.0 - 4.0j), (30.0, 40.0, 45.0 + 60.0j)])
def test_edge_strong_answers_past_the_series_range(a, Z1, Z2):
    # past |beta| = 5 the continued fraction of Gamma(s, beta) takes over where
    # the series cancels or overflows: edge_strong(0.5, 800, 800) used to be
    # refused, and at beta = 0.25 + 37.5i the series was 3.1% off
    got = edge_strong(a, Z1, Z2)
    assert abs(got - _edge_strong_40_digits(a, complex(Z1), complex(Z2))) <= 1e-12 * abs(got)


def test_edge_strong_keeps_the_series_up_to_beta_5():
    # the benchmark's points have |beta| <= 5: there the value is the plain
    # ascending series, bit for bit
    def series(s, z):
        term = total = 1.0 / s
        k = 1
        while True:
            term *= z / (s + k)
            total += term
            if abs(term) < 1e-17 * abs(total):
                return total * np.exp(-z)
            k += 1

    rng = np.random.default_rng(5)
    for _ in range(200):
        s = 1.0 + 4.0 * rng.random()
        z = complex(4.0 * rng.random(), 6.0 * rng.random() - 3.0)
        assert kernels_limit._lower_gamma_ratio(s, z) == series(s, z)


@pytest.mark.parametrize("kernel", [edge_strong, kernel_truncated_edge])
@pytest.mark.parametrize("X", [3000.0, 1e6])
def test_strong_edge_kernels_refuse_a_prefactor_past_the_double_range(kernel, X):
    # (X1 X2)^{a/2}/Gamma(a+1) is e^984 at a = 300, X = 3000; it used to
    # raise a bare OverflowError from math.exp
    with pytest.raises(OutOfRangeError, match="leaves the double range"):
        kernel(300.0, X, X)


# ------------------------------------------------------------------ left focus

def test_left_focus_kernels_diagonal_real():
    a, s = 1.0, 1.0
    for Z in (0.5, 1.0 + 0.3j):
        v = edge_weak_minus_sine(a, s, Z, Z)
        assert abs(v.imag) <= 1e-13 and v.real >= 0
        v = edge_weak_minus_cosine(a, s, Z, Z)
        assert abs(v.imag) <= 1e-13 and v.real >= 0


def test_left_focus_sine_reduces_to_bessel_a0():
    # s -> 0 reduction lands on the a = 0 Bessel kernel for ANY a
    s = 1e-3
    for a in (0.0, 1.0, 2.5):
        norm = s * math.pi / (2 * (a + 1) * B_OF(a))
        for X in (0.5, 2.0):
            got = norm * edge_weak_minus_sine(a, s, X, X)
            ref = bessel_kernel(0.0, X, X)
            assert abs(got - ref) <= 1e-3


def test_left_focus_cosine_singular_at_focus():
    with pytest.raises(SingularPointError):
        edge_weak_minus_cosine(1.0, 1.0, 0.0, 1.0)


def test_left_focus_domain_error():
    with pytest.raises(DomainError):
        edge_weak_minus_sine(1.0, 1.0, -0.3 + 0.8j, 0.5)


# -------------------------------------------------------------- bulk from edge

def test_bulk_from_edge_formula_identity_at_kappa_one():
    # the closed form at kappa = 1 IS bulk_weak
    a, s = 1.0, 1.0
    _, closed = bulk_from_edge_check(a, s, 1.0, 0.1 + 0.2j, 0.1 + 0.2j, h=100.0)
    direct = bulk_weak(a, s, 0.1 + 0.2j, 0.1 + 0.2j)
    assert abs(closed - direct) <= 1e-12 * abs(direct)


def test_bulk_from_edge_convergence():
    a, s, kappa = 0.0, 1.0, 1.0
    spec = QuadratureSpec(c_nodes=1024)
    first, second = bulk_from_edge_check(a, s, kappa, 0.0, 0.0, h=1e4, spec=spec)
    assert abs(first - second) <= 1e-2
    # h-doubling shrinks the discrepancy
    d1 = abs(np.subtract(*bulk_from_edge_check(a, s, kappa, 0.0, 0.0, h=400.0, spec=spec)))
    d2 = abs(np.subtract(*bulk_from_edge_check(a, s, kappa, 0.0, 0.0, h=1600.0, spec=spec)))
    assert d2 < d1


# ------------------------------------------------------------------- global

def test_global_u_diagonal_series_at_origin():
    # independent summation of the z = 0 closed series
    tau = 0.5
    v = EllipseGeometry(tau).v
    acc = 0.0
    for j in range(200):
        term = v ** (-4 * j) * (1 + v ** (-8 * j - 4)) / (1 - v ** (-8 * j - 4)) ** 2
        acc += term
        if term < 1e-18 * acc:
            break
    ref = 2.0 / (math.pi * tau * v * v) * acc
    assert global_kernel_u(tau, 0.0, 0.0).real == pytest.approx(ref, rel=1e-12)


@pytest.mark.parametrize("fn,kind", [(global_kernel_u, PolyKind.CHEBYSHEV_U),
                                     (global_kernel_t, PolyKind.CHEBYSHEV_T),
                                     (global_kernel_v, PolyKind.CHEBYSHEV_V)])
def test_global_kernels_match_finite_N(fn, kind):
    tau, N = 0.5, 2000
    geo = EllipseGeometry(tau)
    kern = FiniteKernel(GasFamily(kind), geo, N)
    sc = math.sqrt(2 * tau)
    for z1, z2 in [(0.1 + 0.05j, 0.1 + 0.05j), (0.5 - 0.1j, 0.5 - 0.1j),
                   (0.3 + 0.1j, -0.2 + 0.25j)]:
        got = kern.eval(z1 / sc, z2 / sc) / (2 * tau)
        ref = fn(tau, z1, z2)
        assert abs(got - ref) <= 1e-8 * max(1.0, abs(ref))


def test_global_u_rotational_limit():
    for z in (0.05, 0.1 + 0.05j, 0.2, -0.15 + 0.1j):
        got = global_kernel_u(1e-3, z, z)
        ref = global_rot_u(z, z)
        assert abs(got - ref) <= 1e-4


def test_global_rot_values():
    z1, z2 = 0.3 + 0.1j, -0.2 + 0.25j
    q = z1 * np.conj(z2)
    assert global_rot_u(z1, z2) == pytest.approx(1 / (math.pi * (1 - q) ** 2), rel=1e-14)
    assert global_rot_t(z1, z2) == pytest.approx(
        q / (math.pi * abs(z1) * abs(z2) * (1 - q) ** 2), rel=1e-14)
    assert global_rot_v(z1, z2) == pytest.approx(
        (1 + q) / (2 * math.pi * math.sqrt(abs(z1) * abs(z2)) * (1 - q) ** 2), rel=1e-14)


def test_global_domain_errors():
    with pytest.raises(DomainError):
        global_kernel_u(0.5, 2.0, 0.0)       # outside the rescaled ellipse
    with pytest.raises(DomainError):
        global_kernel_u(0.5, 1.0, 0.1 + 0.1j)  # rescaled focus, degenerate frame
    with pytest.raises(DomainError):
        global_rot_t(0.0, 0.5)
    # the open branch segment itself is evaluable by continuity (cf. the
    # z = 0 diagonal closed series)
    assert global_kernel_u(0.5, 0.1, 0.1).real > 0


def test_global_hermitian_symmetry():
    tau = 0.4
    for fn in (global_kernel_u, global_kernel_t, global_kernel_v):
        k12 = fn(tau, 0.3 + 0.1j, -0.2 + 0.25j)
        k21 = fn(tau, -0.2 + 0.25j, 0.3 + 0.1j)
        assert abs(k12 - np.conj(k21)) <= 1e-12 * abs(k12)


# ------------------------------------------------------------- phenomenology

def test_squeeze_and_repulsion_phenomenology():
    # growing s presses mass off the real axis: the diagonal at yhat = 0
    # drops, and the near-wall/center ratio grows
    a = 1.0
    c1 = bulk_weak(a, 1.0, 0.0, 0.0).real
    c10 = bulk_weak(a, 10.0, 0.0, 0.0).real
    assert c10 < c1
    r1 = (bulk_weak(a, 1.0, 0.45j, 0.45j) / c1).real
    r10 = (bulk_weak(a, 10.0, 4.5j, 4.5j) / c10).real
    assert r10 > r1
    # growing a repels mass from the wall: center grows, near-wall ratio drops
    centers = [bulk_weak(av, 1.0, 0.0, 0.0).real for av in (0.0, 1.0, 5.0)]
    ratios = [(bulk_weak(av, 1.0, 0.45j, 0.45j).real / c)
              for av, c in zip((0.0, 1.0, 5.0), centers)]
    assert centers[0] < centers[1] < centers[2]
    assert ratios[0] > ratios[1] > ratios[2]


def test_hermitian_symmetry_all_limit_kernels(rng):
    # bit for bit, with a real diagonal, but for the three series kernels
    # (ROADMAP item 14); global_rot_t's abs(z1) * abs(z2) once rounded apart
    # from abs(z2) * abs(z1) in about 3 pairs of 10
    specs = [
        LimitKernelSpec(LimitKind.BULK_WEAK, a=1.0, s=1.0),
        LimitKernelSpec(LimitKind.EDGE_WEAK, a=0.5, s=2.0),
        LimitKernelSpec(LimitKind.EDGE_WEAK_MINUS_SINE, a=1.0, s=1.0),
        LimitKernelSpec(LimitKind.EDGE_WEAK_MINUS_COSINE, a=1.0, s=1.0),
        LimitKernelSpec(LimitKind.BULK_STRONG, a=1.0),
        LimitKernelSpec(LimitKind.EDGE_STRONG, a=1.5),
        LimitKernelSpec(LimitKind.GINIBRE),
        LimitKernelSpec(LimitKind.GLOBAL_U, tau=0.5),
        LimitKernelSpec(LimitKind.GLOBAL_T, tau=0.5),
        LimitKernelSpec(LimitKind.GLOBAL_V, tau=0.5),
        LimitKernelSpec(LimitKind.SINE),
        LimitKernelSpec(LimitKind.BESSEL, a=0.5),
        LimitKernelSpec(LimitKind.GLOBAL_ROT_U),
        LimitKernelSpec(LimitKind.GLOBAL_ROT_T),
        LimitKernelSpec(LimitKind.GLOBAL_ROT_V),
    ]
    disc = lambda: cmath.rect(rng.uniform(0.05, 0.95), rng.uniform(-math.pi, math.pi))
    admissible = {
        LimitKind.BULK_WEAK: lambda: complex(rng.uniform(-2, 2), rng.uniform(-0.45, 0.45)),
        LimitKind.EDGE_WEAK: lambda: complex(rng.uniform(0.2, 2), rng.uniform(-0.5, 0.5)),
        LimitKind.EDGE_WEAK_MINUS_SINE: lambda: complex(rng.uniform(0.2, 2), rng.uniform(-0.5, 0.5)),
        LimitKind.EDGE_WEAK_MINUS_COSINE: lambda: complex(rng.uniform(0.2, 2), rng.uniform(-0.5, 0.5)),
        LimitKind.BULK_STRONG: lambda: complex(rng.uniform(-2, 2), rng.uniform(-0.45, 0.45)),
        LimitKind.EDGE_STRONG: lambda: complex(rng.uniform(0, 3), rng.uniform(-2, 2)),
        LimitKind.GINIBRE: lambda: complex(rng.uniform(-1, 1), rng.uniform(-1, 1)),
        LimitKind.GLOBAL_U: lambda: complex(rng.uniform(0.1, 0.6), rng.uniform(0.05, 0.4)),
        LimitKind.GLOBAL_T: lambda: complex(rng.uniform(0.1, 0.6), rng.uniform(0.05, 0.4)),
        LimitKind.GLOBAL_V: lambda: complex(rng.uniform(0.1, 0.6), rng.uniform(0.05, 0.4)),
        LimitKind.SINE: lambda: complex(rng.uniform(-3, 3), 0.0),
        LimitKind.BESSEL: lambda: complex(rng.uniform(0, 4), 0.0),
        LimitKind.GLOBAL_ROT_U: disc,
        LimitKind.GLOBAL_ROT_T: disc,
        LimitKind.GLOBAL_ROT_V: disc,
    }
    series = {LimitKind.GLOBAL_U, LimitKind.GLOBAL_T, LimitKind.GLOBAL_V}
    assert [spec.kind for spec in specs] == list(admissible) and set(admissible) == set(LimitKind)
    for i, spec in enumerate(specs):
        kern = make_kernel(spec)
        draw = admissible[spec.kind]
        # the closed forms and the real line are cheap: 20 pairs each
        for _ in range(2 if i < 10 else 20):
            z1, z2 = draw(), draw()
            k12, k21 = complex(kern(z1, z2)), complex(kern(z2, z1))
            if spec.kind in series:
                assert abs(k12 - k21.conjugate()) <= 1e-10 * max(1.0, abs(k12))
            else:
                assert k21 == k12.conjugate(), (spec.kind, z1, z2)
                try:
                    assert complex(kern(z1, z1)).imag == 0.0, (spec.kind, z1)
                except TailDivergenceError:     # bulk_strong near its wall
                    pass


def test_limit_spec_validation():
    with pytest.raises(DomainError):
        LimitKernelSpec(LimitKind.BULK_WEAK, a=1.0)          # missing s
    with pytest.raises(DomainError):
        LimitKernelSpec(LimitKind.GLOBAL_U, tau=1.5)
    with pytest.raises(DomainError):
        LimitKernelSpec(LimitKind.BESSEL, a=-2.0)
    spec = LimitKernelSpec(LimitKind.SINE)
    assert make_kernel(spec)(0.5, 0.0) == pytest.approx(sine_kernel(0.5, 0.0))


def test_limit_spec_takes_a_kind_by_its_name():
    # the name used to raise a bare KeyError from the spec's check
    assert LimitKernelSpec("bulk-weak", a=1.0, s=1.0) == \
        LimitKernelSpec(LimitKind.BULK_WEAK, a=1.0, s=1.0)
    assert make_kernel(LimitKernelSpec("sine"))(0.5, 0.0) == sine_kernel(0.5, 0.0)
    with pytest.raises(ValueError, match="is not a valid LimitKind"):
        LimitKernelSpec("finite", tau=0.5)
    with pytest.raises(DomainError, match="^bulk-weak needs finite s > 0$"):
        LimitKernelSpec("bulk-weak", a=1.0)


def test_bulk_strong_takes_its_half_line_rule_from_c_rule(monkeypatch):
    # the one owner of the half-line rule is quadrature._c_rule at the
    # kernel's a, whatever the spec's node counts
    rules = []
    real = kernels_limit._feature_kernel

    def spy(*args):
        rules.append(args[-1])
        return real(*args)

    monkeypatch.setattr(kernels_limit, "_feature_kernel", spy)
    for a, spec in ((-0.5, None), (0.5, None), (9.0, None), (40.0, QuadratureSpec(c_nodes=32))):
        bulk_strong(a, 0.1 + 0.05j, 0.1 + 0.05j, spec)
        assert rules[-1] == _c_rule(HALF_LINE, spec or QuadratureSpec(), a)
    assert rules == [(HALF_LINE, 64, 50.0, 1.25), (HALF_LINE, 64, 50.0, 1.25),
                     (HALF_LINE, 64, 55.0, 1.375), (HALF_LINE, 32, 210.0, 5.0)]


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_bulk_strong_refuses_a_point_whose_node_products_leave_the_doubles():
    # c z at the half line's last node c ~ 50 passes the doubles from
    # x ~ 3.6e306; the closest point below answers
    assert cmath.isfinite(bulk_strong(1.0, 3e306, 3e306))
    for z in (4e306, -4e306 + 0.1j, 1.7e308):
        with pytest.raises(OutOfRangeError, match=r"^bulk-strong needs c z in the doubles"):
            bulk_strong(1.0, z, 0.1)


def test_global_kernel_dispatch():
    from ellipsegas import LimitKind, global_kernel
    tau, z = 0.5, 0.3 + 0.1j
    assert global_kernel(LimitKind.GLOBAL_U, tau, z, z) == global_kernel_u(tau, z, z)
    assert global_kernel("global-t", tau, z, z) == global_kernel_t(tau, z, z)
    with pytest.raises(DomainError):
        global_kernel(LimitKind.SINE, tau, z, z)


def test_left_focus_kernels_converge_monotonically():
    # weak kernels approach their finite-N origins monotonically in N
    a, s = 1.0, 1.0
    Z = 0.8 + 0.3j
    sups = []
    for N in (100, 200, 400):
        tau = weak_tau(s, N)
        kern = FiniteKernel(GasFamily(PolyKind.JACOBI_PLUS, a), EllipseGeometry(tau), N)
        z = -1.0 + Z / (2.0 * N * N)
        got = kern.eval(z, z) / (4.0 * N ** 4)
        sups.append(abs(got - edge_weak_minus_sine(a, s, Z, Z)))
    assert sups[0] > sups[1] > sups[2]


def test_bulk_kernels_on_strip_boundary():
    # exactly on the wall: zero for a > 0, finite for a = 0, flagged for a < 0
    assert bulk_weak(1.0, 2.0, 1.0j, 0.0) == 0.0
    assert bulk_strong(1.0, 0.5j, 0.0) == 0.0
    assert abs(bulk_weak(0.0, 2.0, 1.0j, 1.0j)) > 0
    assert math.isinf(abs(bulk_strong(-0.5, 0.5j, 0.5j)))


@pytest.mark.parametrize("inside, call", [
    (True, lambda: bulk_weak(0.5, 1e300, 4e299j, 4e299j)),
    (True, lambda: bulk_weak(0.5, 1e200, 0, 0)),
    (True, lambda: edge_weak(0.5, 1e200, 1e300, 1e300)),
    (True, lambda: edge_weak_minus_sine(0.5, 1e200, 1e300j, 1e300j)),
    (False, lambda: bulk_strong(0.5, 1e200j, 0)),
    (False, lambda: bulk_weak(0.5, 1.0, 0, 1e300j)),
    (False, lambda: edge_weak(0.5, 1.0, 1 + 1e200j, 1)),
    (False, lambda: edge_weak_minus_cosine(0.5, 1e-200, 1, 1e300j))])
def test_huge_finite_inputs_answer_or_refuse_by_name(inside, call):
    # Im z, s or Y/s whose squares pass the double range, where ** raises a
    # bare OverflowError: points inside their domain answer or are refused
    # as past the double range, points outside it raise DomainError
    if not inside:
        with pytest.raises(DomainError):
            call()
        return
    try:
        assert cmath.isfinite(call())
    except OutOfRangeError:
        pass


def test_bulk_features_near_the_wall_answer_past_the_old_overflow_refusal():
    # near the wall at large a the products of a point's features, up to
    # about e^760 (strong bulk, a = 500, y = 0.45), e^2020 (a = 1000,
    # y = 0.49) and e^2670 (a = 200, s = 1e8), pass the doubles, and such a
    # value was refused.  Its exponents are lowered by whole powers of two
    # now, so a value in range answers, and a point on the wall still gives
    # the wall's limit.  The strong bulk's diagonal there meets the tail
    # test: T = 5(a+2) is short of the integrand's peak near a/(1 - 2|y|);
    # paired with y = 0 its value is 4.0e-129 at a = 500 (3.0e-13 off a
    # 40-digit sum over the 2803 of its 8032 nodes within e^-50 of the
    # largest term, too slow to run here) and below the doubles, about
    # e^-1635, at a = 1000 and 1022
    for a, y in ((500.0, 0.45), (1000.0, 0.49), (1022.0, 0.49)):
        z = complex(0.1, y)
        with pytest.raises(TailDivergenceError):
            bulk_strong(a, z, z)
        assert bulk_strong(a, 0.1 + 0.5j, z) == bulk_strong(a, z, -0.5j) == 0.0
        if a == 500.0:
            value = bulk_strong(a, 0.1, z)
            assert 4.0e-129 < value.real < 4.1e-129 and value == bulk_strong(a, z, 0.1).conjugate()
        else:
            with pytest.raises(OutOfRangeError, match="outside the normal double range"):
                bulk_strong(a, 0.1, z)
    # against 40 digits: 4.3e-13 off at s = 2000; at s = 1e8 the exponents
    # L -+ cy of the leading nodes are near 1.7e4, each rounded to eps
    # relative (2e-12), and the value is 1.6e-11 off
    for a, s, y, tol in ((1000.0, 2000.0, 900.0, 1e-12), (200.0, 1e8, 4.99e7, 5e-11)):
        z = complex(0.0, y)
        value = bulk_weak(a, s, z, z)
        assert abs(value - _bulk_weak_sum_in_40_digits(a, s, z, z)) <= tol * abs(value)
        assert bulk_weak(a, s, complex(0.0, s / 2), z) == 0.0


# ------------------------------------------------------- dispatch and series cap

# the spec parameters each kind takes, with admissible values and points
_NEEDS = {
    LimitKind.BULK_WEAK: ("a", "s"), LimitKind.EDGE_WEAK: ("a", "s"),
    LimitKind.EDGE_WEAK_MINUS_SINE: ("a", "s"), LimitKind.EDGE_WEAK_MINUS_COSINE: ("a", "s"),
    LimitKind.BULK_STRONG: ("a",), LimitKind.EDGE_STRONG: ("a",), LimitKind.SINE: (),
    LimitKind.BESSEL: ("a",), LimitKind.GINIBRE: (), LimitKind.GLOBAL_U: ("tau",),
    LimitKind.GLOBAL_T: ("tau",), LimitKind.GLOBAL_V: ("tau",), LimitKind.GLOBAL_ROT_U: (),
    LimitKind.GLOBAL_ROT_T: (), LimitKind.GLOBAL_ROT_V: (),
}
_VALID = {"a": 0.7, "s": 1.3, "tau": 0.4}
_INVALID = {"a": -1.0, "s": 0.0, "tau": 1.0}


@pytest.mark.parametrize("kind", list(LimitKind))
def test_make_kernel_equals_direct_call(kind):
    a, s, tau = _VALID["a"], _VALID["s"], _VALID["tau"]
    z1, z2 = 0.3 + 0.2j, 0.5 - 0.1j
    direct = {
        LimitKind.BULK_WEAK: lambda: bulk_weak(a, s, z1, z2),
        LimitKind.EDGE_WEAK: lambda: edge_weak(a, s, z1, z2),
        LimitKind.EDGE_WEAK_MINUS_SINE: lambda: edge_weak_minus_sine(a, s, z1, z2),
        LimitKind.EDGE_WEAK_MINUS_COSINE: lambda: edge_weak_minus_cosine(a, s, z1, z2),
        LimitKind.BULK_STRONG: lambda: bulk_strong(a, z1, z2),
        LimitKind.EDGE_STRONG: lambda: edge_strong(a, z1, z2),
        LimitKind.SINE: lambda: sine_kernel(z1.real, z2.real),
        LimitKind.BESSEL: lambda: bessel_kernel(a, z1.real, z2.real),
        LimitKind.GINIBRE: lambda: ginibre_kernel(z1, z2),
        LimitKind.GLOBAL_U: lambda: global_kernel_u(tau, z1, z2),
        LimitKind.GLOBAL_T: lambda: global_kernel_t(tau, z1, z2),
        LimitKind.GLOBAL_V: lambda: global_kernel_v(tau, z1, z2),
        LimitKind.GLOBAL_ROT_U: lambda: global_rot_u(z1, z2),
        LimitKind.GLOBAL_ROT_T: lambda: global_rot_t(z1, z2),
        LimitKind.GLOBAL_ROT_V: lambda: global_rot_v(z1, z2),
    }[kind]
    kern = make_kernel(LimitKernelSpec(kind, a=a, s=s, tau=tau))
    if kind in (LimitKind.SINE, LimitKind.BESSEL):
        z1, z2 = z1.real, z2.real
    assert kern(z1, z2) == direct()


@pytest.mark.parametrize("kind", list(LimitKind))
def test_limit_spec_rejects_each_missing_or_invalid_parameter(kind):
    LimitKernelSpec(kind, **{p: _VALID[p] for p in _NEEDS[kind]})
    for p in _NEEDS[kind]:
        others = {q: _VALID[q] for q in _NEEDS[kind] if q != p}
        with pytest.raises(DomainError):
            LimitKernelSpec(kind, **others)
        with pytest.raises(DomainError):
            LimitKernelSpec(kind, **others, **{p: _INVALID[p]})


@pytest.mark.parametrize("kind", list(LimitKind))
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_limit_kernels_refuse_points_that_are_not_finite(kind, bad):
    # global_kernel_u returned nan+nanj at a nan point, bessel_kernel raised
    # a bare ValueError and bulk_weak an overflow warning at an inf one; a
    # real kind's points lie on the real line
    kern = make_kernel(LimitKernelSpec(kind, **{p: _VALID[p] for p in _NEEDS[kind]}))
    real = kind in (LimitKind.SINE, LimitKind.BESSEL)
    good = 0.3 + (0j if real else 0.2j)
    kern(good, good)
    points = [complex(bad, 0.0)] if real else [complex(bad, 0.1), complex(0.1, bad)]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for z in points:
            for pair in ((z, good), (good, z)):
                with pytest.raises(DomainError):
                    kern(*pair)


def test_global_series_refuses_past_its_term_cap():
    # tau this close to 1 needs more than 500 terms; the sum used to stop
    # there silently (8e-9 relative off for U at tau = 0.9999)
    with pytest.raises(OutOfRangeError):
        global_kernel_u(0.9999, 0.1, 0.1)
    with pytest.raises(OutOfRangeError):
        global_kernel_v(0.999, 0.01, 0.01)
    with pytest.raises(OutOfRangeError):
        make_kernel(LimitKernelSpec(LimitKind.GLOBAL_T, tau=0.9999))(0.1, 0.1)


def test_global_v_matches_independent_fsum_of_its_series():
    # the V series decays like v^{-2j}, half the rate of U and T
    tau, z1, z2 = 0.869, 0.3 + 0.1j, -0.2 + 0.25j
    v = (math.sqrt(1 + tau) + math.sqrt(1 - tau)) / math.sqrt(2 * tau)

    def omega(z):
        zeta = z / math.sqrt(2 * tau)
        root = cmath.sqrt(zeta * zeta - 1)
        return max(zeta + root, zeta - root, key=abs)

    o1, o2c = omega(z1), omega(z2).conjugate()
    r1, r2 = cmath.sqrt(o1), cmath.sqrt(o2c.conjugate()).conjugate()

    def G(q):
        return (1 + q) / (1 - q) ** 2

    terms = []
    for j in range(3000):
        e = v ** (-(1 + 2 * j))
        terms.append(e * (r1 * r2 * G(e * e * o1 * o2c) - r1 / r2 * G(e * e * o1 / o2c)
                          - r2 / r1 * G(e * e * o2c / o1) + G(e * e / (o1 * o2c)) / (r1 * r2)))
    tot = complex(math.fsum(t.real for t in terms), math.fsum(t.imag for t in terms))
    zeta1, zeta2 = z1 / math.sqrt(2 * tau), z2 / math.sqrt(2 * tau)
    ref = (tot / ((r1 - 1 / r1) * (r2 - 1 / r2)) / (2 * math.pi * tau)
           / math.sqrt(abs(1 + zeta1) * abs(1 + zeta2.conjugate())))
    got = global_kernel_v(tau, z1, z2)
    assert abs(got - ref) <= 1e-12 * abs(ref)


def _global_by_fsum(kind, tau, z1, z2):
    """A global kernel from its own series: each term in plain complex
    arithmetic, S(q) = q/(1-q)^2 for U and T and G(q) = (1+q)/(1-q)^2 for V,
    3000 terms summed with math.fsum."""
    v = (math.sqrt(1 + tau) + math.sqrt(1 - tau)) / math.sqrt(2 * tau)
    zeta1, zeta2 = z1 / math.sqrt(2 * tau), z2 / math.sqrt(2 * tau)

    def omega(zeta):
        root = cmath.sqrt(zeta * zeta - 1)
        return max(zeta + root, zeta - root, key=abs)

    def S(q):
        return q / (1 - q) ** 2

    def G(q):
        return (1 + q) / (1 - q) ** 2

    o1, o2c = omega(zeta1), omega(zeta2).conjugate()
    r1, r2 = cmath.sqrt(o1), cmath.sqrt(o2c.conjugate()).conjugate()
    sign = 1 if kind == "t" else -1
    terms = []
    for j in range(3000):
        e = v ** (-(1 + 2 * j))
        eta = e * e
        if kind == "v":
            terms.append(e * (r1 * r2 * G(eta * o1 * o2c) - r1 / r2 * G(eta * o1 / o2c)
                              - r2 / r1 * G(eta * o2c / o1) + G(eta / (o1 * o2c)) / (r1 * r2)))
        else:
            terms.append(S(eta * o1 * o2c) + sign * S(eta * o1 / o2c)
                         + sign * S(eta * o2c / o1) + S(eta / (o1 * o2c)))
    tot = complex(math.fsum(t.real for t in terms), math.fsum(t.imag for t in terms))
    if kind == "u":
        return 2 / (math.pi * tau) * tot / ((o1 - 1 / o1) * (o2c - 1 / o2c))
    if kind == "t":
        return ((tot + 1 / (2 * math.log(v))) / (2 * math.pi * tau)
                / math.sqrt(abs(1 - zeta1 ** 2) * abs(1 - zeta2 ** 2)))
    return (tot / ((r1 - 1 / r1) * (r2 - 1 / r2)) / (2 * math.pi * tau)
            / math.sqrt(abs(1 + zeta1) * abs(1 + zeta2)))


def _global_point(tau, radius, angle):
    """z = sqrt(2 tau) J(omega) at |omega| = 1 + radius (v - 1), arg omega = angle."""
    v = (math.sqrt(1 + tau) + math.sqrt(1 - tau)) / math.sqrt(2 * tau)
    om = (1 + radius * (v - 1)) * cmath.exp(1j * angle)
    return math.sqrt(2 * tau) * (om + 1 / om) / 2


@pytest.mark.parametrize("kind,fn", [("u", global_kernel_u), ("t", global_kernel_t),
                                     ("v", global_kernel_v)])
@pytest.mark.parametrize("tau", [0.05, 0.5, 0.95, 0.999])
@pytest.mark.parametrize("place", ["off-diagonal", "near-wall diagonal"])
def test_global_kernels_match_independent_fsum_of_their_series(kind, fn, tau, place):
    # U and T read one image sum with signs -1 and +1; V reads it at +-e through
    # sqrt(q) G(q) = [S(sqrt q) - S(-sqrt q)]/2, checked here against G itself
    if place == "off-diagonal":
        z1, z2 = _global_point(tau, 0.4, 0.7), _global_point(tau, 0.6, -2.1)
    else:                                   # 0.1% of the annulus width from the wall
        z1 = z2 = _global_point(tau, 0.999, 1.1)
    if kind == "v" and tau == 0.999:        # past the V cap of 0.9976
        with pytest.raises(OutOfRangeError):
            fn(tau, z1, z2)
        return
    scale = math.sqrt(abs(_global_by_fsum(kind, tau, z1, z1) * _global_by_fsum(kind, tau, z2, z2)))
    assert abs(fn(tau, z1, z2) - _global_by_fsum(kind, tau, z1, z2)) <= 1e-12 * scale


def _per_value_series_frame(kind, tau, z1, z2, decay):
    """The global series frame built afresh for every value: geometry, term
    count, cap and powers."""
    geo = EllipseGeometry(tau)
    (zeta1, o1), (zeta2, o2) = (kernels_limit._interior_omega(kind, tau, geo.v, z)
                                for z in (z1, z2))
    v = geo.v
    terms = math.ceil(math.log(1.0 / 1e-15) / (decay * math.log(v))) + 1
    if terms > 500:
        raise OutOfRangeError(f"the tau={tau} global series needs {terms} terms")
    e = v ** -(1.0 + 2.0 * np.arange(terms))
    return v, zeta1, zeta2, o1, np.conj(o2), e ** (decay // 2)


def _per_value_images(p, x1, x2, sign):
    """The image sum with its weight rows and divisors from nested lists."""
    q = np.outer((x1, x1, x2, 1.0), p)
    q[0] *= x2
    q[1:] /= [[x2], [x1], [x1 * x2]]
    return np.sum(np.sum([[1.0], [sign], [sign], [1.0]] * (q / (1.0 - q) ** 2), axis=0))


@pytest.mark.parametrize("tau", [0.05, 0.5, 0.95])
def test_global_kernels_keep_the_bits_of_a_per_value_frame(monkeypatch, tau):
    points = [_global_point(tau, radius, angle)
              for radius, angle in ((0.4, 0.7), (0.6, -2.1), (0.999, 1.1), (0.0, 0.3))]
    kernels = (global_kernel_u, global_kernel_t, global_kernel_v)
    kept = [repr(fn(tau, z1, z2)) for fn in kernels for z1 in points for z2 in points]
    assert not kernels_limit._tau_frame(tau, 4)[2].flags.writeable
    monkeypatch.setattr(kernels_limit, "_series_frame", _per_value_series_frame)
    monkeypatch.setattr(kernels_limit, "_images", _per_value_images)
    assert kept == [repr(fn(tau, z1, z2)) for fn in kernels for z1 in points for z2 in points]


def test_global_refusals_keep_their_order_and_kind():
    # a point outside the ellipse is refused by DomainError before the term
    # cap, on every call, also once the frame of that tau is kept
    for _ in range(2):
        for z1, z2 in ((10.0, 0.1), (0.1, 10.0)):
            with pytest.raises(DomainError) as refusal:
                global_kernel_u(0.9999, z1, z2)
            assert refusal.type is DomainError
        with pytest.raises(OutOfRangeError):
            global_kernel_u(0.9999, 0.1, 0.1)


# ------------------------------------------------------------------ feature caches

def _uncached_ratio_integral(a, s, walls, f, log_factor, domain=UNIT_INTERVAL, **half_line):
    """The Bessel-ratio integral with log_i_ratio run on every call."""
    lpref = log_factor - math.log(s) - 1.5 * math.log(math.pi) - ln_gamma(a + 1)
    for q in walls:
        lpref += _log_power(0.5 * a, q)

    def g(c):
        return np.exp(log_i_ratio(a + 0.5, c * s) + lpref) * f(c)

    return complex(integrate_c(g, domain, QuadratureSpec(), **half_line))


def _closure_bulk_weak(a, s, z1, z2):
    """bulk_weak as one integrand of c, cos(c(z1 - conj z2)), per value."""
    d = z1 - z2.conjugate()
    walls = (1.0 - 4.0 * z1.imag ** 2 / s ** 2, 1.0 - 4.0 * z2.imag ** 2 / s ** 2)
    return _uncached_ratio_integral(a, s, walls, lambda c: np.cos(c * d), math.log(2.0))


def _strong_half_line(a):
    """The truncation and panel of bulk_strong's half-line rule."""
    _, _, truncation, panel = _c_rule(HALF_LINE, QuadratureSpec(), a)
    return {"truncation": truncation, "panel": panel}


def _uncached_bulk_strong(a, z1, z2):
    """bulk_strong as one integrand of t, cos(t(z1 - conj z2)), per value."""
    d = z1 - z2.conjugate()
    walls = (1.0 - 4.0 * z1.imag ** 2, 1.0 - 4.0 * z2.imag ** 2)
    return _uncached_ratio_integral(a, 1.0, walls, lambda t: np.cos(t * d), math.log(2.0),
                                    HALF_LINE, **_strong_half_line(a))


def _bulk_strong_term_moduli(a, z1, z2):
    """The sum of the moduli of the terms of `_uncached_bulk_strong`'s node
    sum, walls included: the scale of its rounding."""
    t, w = _gauss_rule(*_c_rule(HALF_LINE, QuadratureSpec(), a))
    lpref = (math.log(2.0) - 1.5 * math.log(math.pi) - ln_gamma(a + 1)
             + _log_power(0.5 * a, 1.0 - 4.0 * z1.imag ** 2)
             + _log_power(0.5 * a, 1.0 - 4.0 * z2.imag ** 2))
    terms = np.exp(log_i_ratio(a + 0.5, t) + lpref) * np.cos(t * (z1 - z2.conjugate()))
    return float(np.sum(w.ravel() * np.abs(terms)))


def _uncached(monkeypatch):
    """Take the memo of the features and of sqrt(W G) and its log out of the
    kernels."""
    for cache in (_feature, _half_line_feature, _weights):
        monkeypatch.setattr(kernels_limit, cache.__name__, cache.__wrapped__)


_CACHE_POINTS = [0.1 + 0.05j, -0.4 + 0.2j, 0.7 - 0.1j, 1.3 + 0.3j, -0.9 - 0.25j, 0.0j]


@pytest.mark.parametrize("kind, a, s", [("bulk-weak", 0.37, 1.31), ("bulk-strong", -0.43, None)])
def test_one_log_i_ratio_call_per_kernel_and_values_unchanged(monkeypatch, kind, a, s):
    # the kept features give the bits of features built afresh, and the
    # per-value integrand, with log_i_ratio run on every call, within
    # rounding of the bulk's own scale sqrt(K(z1,z1) K(z2,z2))
    calls = []

    def counting(nu, x):
        calls.append(nu)
        return log_i_ratio(nu, x)

    for cache in (_weights, _feature, _half_line_feature):
        cache.cache_clear()
    monkeypatch.setattr(kernels_limit, "log_i_ratio", counting)
    kern = make_kernel(LimitKernelSpec(LimitKind(kind), a=a, s=s))
    pairs = [(z1, z2) for z1 in _CACHE_POINTS for z2 in _CACHE_POINTS[:4]]
    values = [kern(z1, z2) for z1, z2 in pairs]
    assert len(values) == 24 and calls == [a + 0.5]
    monkeypatch.undo()
    _uncached(monkeypatch)
    assert [repr(kern(z1, z2)) for z1, z2 in pairs] == [repr(v) for v in values]
    for (z1, z2), val in zip(pairs, values):
        scale = math.sqrt(kern(z1, z1).real * kern(z2, z2).real)
        closure = (_closure_bulk_weak(a, s, z1, z2) if kind == "bulk-weak"
                   else _uncached_bulk_strong(a, z1, z2))
        assert abs(val - closure) <= 8 * np.finfo(float).eps * scale


def test_cached_arrays_are_read_only():
    bulk_strong(0.5, 0.2j, 0.1)
    arrays = [_weights(0.5, 1.0, _c_rule(HALF_LINE, QuadratureSpec()), "log"),
              _weights(0.5, 1.0, _c_rule(UNIT_INTERVAL, QuadratureSpec()), "sqrt"),
              _weights(0.8, None, _c_rule(UNIT_INTERVAL, QuadratureSpec()), "phi")]
    for kind, s, z in _FEATURE_POINTS:
        arrays += _kept_feature(kind, 0.8, s, z, 1.0, 1.0)[:3]
    assert len(arrays) == 3 + 3 * 6
    for array in arrays:
        with pytest.raises(ValueError):
            array[0] = 0.0


# the features of the six kernels: kind -> (LimitKind, a, s, point
# function, node function); the strong bulk's features are the bulk's at
# s = 1 on its half line
_FEATURE_KERNELS = {
    "bulk": ("bulk-weak", 0.6, 1.4, "_bulk_point", "_bulk_nodes"),
    "strong": ("bulk-strong", 0.6, None, "_bulk_point", "_bulk_nodes"),
    "edge": ("edge-weak", 0.8, 1.7, "_edge_point", "_phi_nodes"),
    "sine": ("edge-weak-minus-sine", 0.3, 1.2, "_left_focus_point", "_sine_nodes"),
    "cosine": ("edge-weak-minus-cosine", -0.4, 2.1, "_cosine_point", "_cosine_nodes"),
    "bessel": ("bessel", 1.3, None, "_bessel_point", "_phi_nodes"),
}


def _functions(kind):
    """The point and node functions of a kind."""
    return tuple(getattr(kernels_limit, name) for name in _FEATURE_KERNELS[kind][3:])


def _kept_feature(kind, a, s, z, re_sign, im_sign, cache=None):
    """The kept (V, Re F, Im F, l) of a point, on the kernel's default rule,
    from `cache` if given: the strong bulk's on its half line at s = 1."""
    if kind == "strong":
        rule = _c_rule(HALF_LINE, QuadratureSpec(), a)
        s, cache = 1.0, cache or _half_line_feature
    else:
        rule, cache = _c_rule(UNIT_INTERVAL, QuadratureSpec()), cache or _feature
    return cache(_FEATURE_KERNELS[kind][0], *_functions(kind), a, s, rule, z, re_sign, im_sign)


# one point of each kernel's domain, off the real axis where it has one
_FEATURE_POINTS = [("bulk", 1.4, 0.3 + 0.2j), ("strong", None, 0.3 + 0.2j),
                   ("edge", 1.7, 0.9 + 0.4j), ("sine", 1.2, 0.9 + 0.4j),
                   ("cosine", 2.1, 0.9 + 0.4j), ("bessel", None, 0.9)]
# pairs of points: off the real axis, on it (sqrt Z = x + 0i and sqrt conj Z
# = x - 0i), and with a root past |root| = 4, where phi leaves the c^2k table
_FEATURE_PAIRS = {
    "bulk": [(0.4 + 0.3j, -0.2 - 0.5j), (9.0 + 0j, 0.25 + 0j), (0.6 + 0j, 0.3 - 0.2j),
             (20.0 + 0.1j, 3.0 + 0j)],
    "strong": [(0.4 + 0.1j, -0.2 - 0.15j), (0.9 + 0j, 0.25 + 0j), (0.6 + 0j, 0.3 - 0.2j),
               (2.0 + 0.1j, 1.0 + 0j)],
    "bessel": [(0.9, 0.2), (9.0, 0.25), (3.0, 0.6), (400.0, 2.0)],
}
_EDGE_PAIRS = [(0.9 + 0.4j, -0.2 - 0.3j), (9.0 + 0j, 0.25 + 0j), (0.6 + 0j, 0.3 - 0.2j),
               (20.0 + 1.0j, 3.0 + 0j)]


def _feature_pairs(kind):
    return _FEATURE_PAIRS.get(kind, _EDGE_PAIRS)


@pytest.mark.parametrize("kind", sorted(_FEATURE_KERNELS))
@pytest.mark.parametrize("pair", range(4))
def test_one_feature_build_per_distinct_point_of_a_pair(monkeypatch, kind, pair):
    # K(z1,z1), K(z1,z2), K(z2,z1) and K(z2,z2), twice over, build the
    # node functions of each point once
    node_name = _FEATURE_KERNELS[kind][4]
    nodes = getattr(kernels_limit, node_name)
    calls = []

    def counting(*args):
        calls.append(args)
        return nodes(*args)

    monkeypatch.setattr(kernels_limit, node_name, counting)
    _feature.cache_clear()
    _half_line_feature.cache_clear()
    name, a, s, _, _ = _FEATURE_KERNELS[kind]
    kern = make_kernel(LimitKernelSpec(LimitKind(name), a=a, s=s))
    z1, z2 = _feature_pairs(kind)[pair]
    for _ in range(2):
        for u, v in ((z1, z1), (z1, z2), (z2, z1), (z2, z2)):
            kern(u, v)
    assert len(calls) == 2


@pytest.mark.parametrize("kind", sorted(_FEATURE_KERNELS))
def test_memoized_features_give_the_bits_of_an_uncached_evaluation(monkeypatch, kind):
    name, a, s, _, _ = _FEATURE_KERNELS[kind]
    kern = make_kernel(LimitKernelSpec(LimitKind(name), a=a, s=s))
    calls = [(u, v) for z1, z2 in _feature_pairs(kind)
             for u, v in ((z1, z1), (z1, z2), (z2, z1), (z2, z2))]
    first = [repr(kern(u, v)) for u, v in calls]
    again = [repr(kern(u, v)) for u, v in calls]         # each feature read from the memo
    _uncached(monkeypatch)
    assert first == again == [repr(kern(u, v)) for u, v in calls]


@pytest.mark.parametrize("kind", ["bulk", "strong"])
def test_features_keep_signed_zeros_apart(kind):
    # 0.2i and -0 + 0.2i are equal keys to a dict; each is kept as its own
    # build.  The complex exps of the bulk features have +0 imaginary zeros
    # either way, as the bulk has no branch cut, on the c-rule and the half
    # line alike
    _feature.cache_clear()
    _half_line_feature.cache_clear()
    kept, fresh = [], []
    for z in (0.2j, complex(-0.0, 0.2)):
        signs = (math.copysign(1.0, z.real), 1.0)
        kept.append(_kept_feature(kind, 0.6, 1.4, z, *signs)[0])
        fresh.append(_kept_feature(kind, 0.6, 1.4, z, *signs, cache=_build_feature)[0])
    assert [repr(v.tolist()) for v in kept] == [repr(v.tolist()) for v in fresh]
    assert kept[0] is not kept[1]
    assert repr(kept[0].tolist()) == repr(kept[1].tolist())
    assert _feature.cache_info().currsize + _half_line_feature.cache_info().currsize == 2


def test_feature_cache_stays_within_its_bound():
    rng = np.random.default_rng(8)
    for _ in range(40):
        z1, z2 = (complex(2.0 * rng.random(), rng.random() - 0.5) for _ in range(2))
        bulk_weak(0.5, 1.5, z1, z2)
        edge_weak(0.5, 1.5, z1, z2)
        edge_weak_minus_sine(0.5, 1.5, z1, z2)
        edge_weak_minus_cosine(0.5, 1.5, z1, z2)
        bessel_kernel(0.5, 4.0 * rng.random(), 4.0 * rng.random())
        info = _feature.cache_info()
        assert info.maxsize == _FEATURES == 64 and info.currsize <= 64
    assert _weights.cache_info().currsize <= 64


def _hermitian_sweep_points(kind, s, rng):
    """Points of a kernel's domain: random ones, on the real axis, with the
    wall factor q -> 0 and on the wall."""
    if kind == "bessel":
        return [4.0 * rng.random(), float(rng.integers(1, 9)), 1e-300, 0.0]
    if kind in ("bulk", "strong"):
        x, y = 6.0 * rng.random() - 3.0, s / 2 * (2.0 * rng.random() - 1.0)
        return [complex(x, y), complex(6.0 * rng.random() - 3.0, y * rng.random()),
                complex(x, 0.0), complex(x, -0.0),
                complex(x, s / 2 * (1.0 - 1e-12)), complex(x, -s / 2)]
    Y = 4.0 * rng.random() - 2.0
    wall = (Y / s) ** 2 - s * s / 4.0
    X = 4.0 * rng.random()
    return [complex(wall + 3.0 * rng.random(), Y), complex(X, 0.0), complex(X, -0.0),
            complex(-s * s / 4.0 * rng.random(), 0.0), complex(-s * s / 4.0, 0.0),
            complex(wall + 1e-12 * max(1.0, abs(wall)), Y)]


@pytest.mark.parametrize("kind", sorted(_FEATURE_KERNELS))
def test_feature_kernels_are_hermitian_bit_for_bit(kind):
    # Re K = [Re F1, Im F1].[Re F2, Im F2] and Im K = Im F1.Re F2 - Re F1.Im F2:
    # K(z,z) is real and K(z2,z1) = conj K(z1,z2), with a > 0, a < 0 and at
    # a = 0, on and off the real axis, near and on the wall
    name = _FEATURE_KERNELS[kind][0]
    rng = np.random.default_rng(2026)
    checked = 0
    for trial in range(12):
        a = [-0.9 * rng.random(), 0.0, 3.0 * rng.random()][trial % 3]
        s = (None if kind == "bessel" else 1.0 if kind == "strong"
             else float(0.5 + 2.5 * rng.random()))
        kern = make_kernel(LimitKernelSpec(LimitKind(name), a=a, s=s))
        for z1, z2 in itertools.combinations_with_replacement(
                _hermitian_sweep_points(kind, s, rng), 2):
            try:
                k12 = complex(kern(z1, z2))
            except (OutOfRangeError, SingularPointError, TailDivergenceError) as exc:
                with pytest.raises(type(exc)):
                    kern(z2, z1)
                continue
            k21 = complex(kern(z2, z1))
            assert k21 == k12.conjugate(), (a, s, z1, z2, k12, k21)
            if z1 == z2:
                assert k12.imag == 0.0
            checked += 1
    assert checked >= 100


# every kernel that takes a, at a point with X = Re z = 0 and at an interior point
_A_KERNELS = {
    "bulk_weak": lambda a, z: bulk_weak(a, 1.0, z, z),
    "bulk_strong": lambda a, z: bulk_strong(a, z, z),
    "edge_weak": lambda a, z: edge_weak(a, 1.0, z, z),
    "edge_weak_minus_sine": lambda a, z: edge_weak_minus_sine(a, 1.0, z, z),
    "edge_weak_minus_cosine": lambda a, z: edge_weak_minus_cosine(a, 1.0, z, z),
    "bulk_from_edge_check": lambda a, z: bulk_from_edge_check(a, 1.0, 1.0, z, z, 30.0),
    "bessel_kernel": lambda a, z: bessel_kernel(a, z.real, z.real),
    "edge_strong": lambda a, z: edge_strong(a, z, z),
}


@pytest.mark.parametrize("name", sorted(_A_KERNELS))
@pytest.mark.parametrize("a", [-1.0, -1.5, math.nan])
@pytest.mark.parametrize("z", [0.2j, 0.5 + 0.2j])
def test_limit_kernels_refuse_a_at_most_minus_one(name, a, z):
    kernel = _A_KERNELS[name]
    kernel(0.5, z)          # the point itself is in the kernel's domain
    with pytest.raises(DomainError, match=r"a > -1, got "):
        kernel(a, z)


# every kernel that takes s, at a point of its domain for s = 1
_S_KERNELS = {
    "bulk_weak": lambda s, z: bulk_weak(0.5, s, z, z),
    "edge_weak": lambda s, z: edge_weak(0.5, s, z, z),
    "edge_weak_minus_sine": lambda s, z: edge_weak_minus_sine(0.5, s, z, z),
    "edge_weak_minus_cosine": lambda s, z: edge_weak_minus_cosine(0.5, s, z, z),
    "bulk_from_edge_check": lambda s, z: bulk_from_edge_check(0.5, s, 1.0, z, z, 30.0),
}


@pytest.mark.parametrize("name", sorted(_S_KERNELS))
@pytest.mark.parametrize("s", [0.0, -1.0, math.nan])
@pytest.mark.parametrize("z", [0.3, 0.5 + 0.2j])
def test_weak_kernels_refuse_s_not_positive(name, s, z):
    # refused by name before a wall term divides by s or log s is taken
    kernel = _S_KERNELS[name]
    kernel(1.0, z)          # the point itself is in the kernel's domain
    with pytest.raises(DomainError, match=r"s > 0, got "):
        kernel(s, z)
