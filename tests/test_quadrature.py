import dataclasses
import math
import warnings

import numpy as np
import pytest

from ellipsegas import (DomainError, EllipseGeometry, FiniteKernel, GasFamily, HALF_LINE,
                        OutOfRangeError, PolyKind, QuadratureSpec, TailDivergenceError,
                        UNIT_INTERVAL, integrate_c, integrate_ellipse,
                        rule_for_gas, weight, weight_values)
from ellipsegas.polynomials import log_raw_norms, log_squared_norms, monic_scaled_sequence
from ellipsegas.quadrature import _c_rule, _gauss_rule, _jacobi_rule, _product_rule, ellipse_rule

from conftest import gas_cases


def test_area_is_exact():
    geo = EllipseGeometry(0.6)
    spec = QuadratureSpec(48, 64, 16)
    val = integrate_ellipse(lambda z: np.ones_like(z, dtype=float), geo, spec)
    assert val.real == pytest.approx(geo.area, rel=1e-12)
    assert abs(val.imag) < 1e-14


def test_weight_normalization_example():
    # integral of the a=0 weight is the area: 2 pi/3 at tau = 0.6
    geo = EllipseGeometry(0.6)
    spec = QuadratureSpec(48, 64, 16)
    val = integrate_ellipse(lambda z: np.ones_like(z, dtype=float), geo, spec)
    assert val.real == pytest.approx(2 * math.pi / 3, rel=1e-12)
    # and for general a the closed form pi sqrt(1-tau^2)/(2 tau (a+1))
    a, tau = 2.5, 0.45
    geo = EllipseGeometry(tau)
    gas = GasFamily(PolyKind.GEGENBAUER, a)
    z, w = rule_for_gas(gas, geo, QuadratureSpec(48, 64, 16))
    val = np.sum(w * np.array([weight(gas, geo, p) for p in z]))
    ref = math.pi * math.sqrt(1 - tau ** 2) / (2 * tau * (a + 1))
    assert val.real == pytest.approx(ref, rel=1e-12)


def test_orthogonality_m1_m2_vanishes():
    # w * M_1 * conj(M_2) integrates to zero (orthogonality + parity)
    a, tau = 1.0, 0.5
    geo = EllipseGeometry(tau)
    gas = GasFamily(PolyKind.GEGENBAUER, a)
    z, w = rule_for_gas(gas, geo, QuadratureSpec())
    wv = np.array([weight(gas, geo, p) for p in z])
    mant, logs = monic_scaled_sequence(gas, 2, z)
    vals = mant * np.exp(logs)
    integral = np.sum(w * wv * vals[1] * np.conj(vals[2]))
    lh = log_squared_norms(gas, geo, 2)
    assert abs(integral) <= 1e-10 * math.exp((lh[1] + lh[2]) / 2)


def test_gegenbauer_orthogonality_rhs_n3():
    # int w C_3 C_3bar = (sqrt(1-tau^2)/2tau) pi/(n+a+1) C_3^{(a+1)}(1/tau)
    # at a=1, tau=0.5: C_3^{(2)}(2) = 32*8 - 12*2 = 232, RHS = 232 pi sqrt(3)/10
    a, tau = 1.0, 0.5
    geo = EllipseGeometry(tau)
    gas = GasFamily(PolyKind.GEGENBAUER, a)
    z, w = rule_for_gas(gas, geo, QuadratureSpec())
    wv = np.array([weight(gas, geo, p) for p in z])

    def c3(zz):
        return 32.0 * zz ** 3 - 12.0 * zz  # C_3^{(2)} expanded exactly

    integral = np.sum(w * wv * c3(z) * np.conj(c3(z)))
    assert integral.real == pytest.approx(232 * math.pi * math.sqrt(3) / 10, rel=1e-11)


def test_annulus_rule_focal_weights():
    # Chebyshev-I weight is integrable across the foci; compare against a
    # brute-force midpoint evaluation on a fine polar grid of the disc map
    tau = 0.5
    geo = EllipseGeometry(tau)
    gas = GasFamily(PolyKind.CHEBYSHEV_T)
    z, w = rule_for_gas(gas, geo, QuadratureSpec())
    val = np.sum(w * np.array([weight(gas, geo, p) for p in z]))
    # oracle: 2D midpoint rule in elliptic coordinates (rho, phi), 2000x2000
    v = geo.v
    rho = np.linspace(1, v, 2001)[:-1] + (v - 1) / 4000
    phi = np.linspace(0, 2 * math.pi, 2001)[:-1] + math.pi / 2000
    R, P = np.meshgrid(rho, phi, indexing="ij")
    om = R * np.exp(1j * P)
    zz = (om + 1 / om) / 2
    jac = np.abs(om ** 2 - 1) ** 2 / (4 * R ** 4) * R
    wI = 1.0 / np.abs(1 - zz ** 2)
    oracle = np.sum(wI * jac) * (v - 1) / 2000 * 2 * math.pi / 2000
    assert val.real == pytest.approx(oracle, rel=1e-6)


@pytest.mark.parametrize("gas,geo", gas_cases(a_values=(1.0,), taus=(0.5,)))
def test_trace_identity_every_family(gas, geo):
    # integral of K_N(z,z) over E equals N
    N = 16
    kern = FiniteKernel(gas, geo, N)
    z, w = rule_for_gas(gas, geo, QuadratureSpec())
    tr = np.sum(w * kern.diagonal(z))
    assert tr.real == pytest.approx(N, abs=1e-6)


@pytest.mark.parametrize("gas,geo", gas_cases(a_values=(1.0, -0.5), taus=(0.5,)))
def test_self_convergence_node_doubling(gas, geo):
    # doubling both node counts moves the trace integrand by < 1e-10
    kern = FiniteKernel(gas, geo, 6)
    vals = []
    for nr, nth in ((48, 64), (96, 128)):
        z, w = rule_for_gas(gas, geo, QuadratureSpec(nr, nth, 16))
        vals.append(np.sum(w * kern.diagonal(z)))
    assert abs(vals[0] - vals[1]) < 1e-10


def test_integrate_c_examples():
    spec = QuadratureSpec(16, 16, 64)
    assert integrate_c(lambda c: c, UNIT_INTERVAL, spec).real == pytest.approx(0.5, rel=1e-14)
    # small-s law: c^{a+1/2}/I_{a+1/2}(cs) * Gamma(a+3/2) (2/s)^{a+1/2} -> 1
    from ellipsegas import log_i_ratio
    a, s = 1.0, 1e-6
    nu = a + 0.5

    def g(c):
        return np.array([math.exp(log_i_ratio(nu, ci * s) - math.lgamma(nu + 1))
                         for ci in c])

    val = integrate_c(g, UNIT_INTERVAL, spec)
    assert val.real == pytest.approx(1.0, abs=1e-9)


def test_integrate_c_half_line_against_trapezoid_oracle():
    # g(t) = t^{1/2}/I_{1/2}(t) = sqrt(pi/2) t/sinh t; closed value pi^2/4 sqrt(pi/2)
    from ellipsegas import log_i_ratio

    def g(t):
        return np.array([math.exp(log_i_ratio(0.5, ti) + 0.5 * math.log(ti)
                                  - 0.5 * math.log(ti / 2)) for ti in t])

    spec = QuadratureSpec(16, 16, 64)
    val = integrate_c(g, HALF_LINE, spec).real
    # 10^6-node trapezoid oracle
    t = np.linspace(1e-9, 60.0, 1_000_001)
    oracle = np.trapezoid(np.sqrt(math.pi / 2) * t / np.sinh(t), t)
    assert val == pytest.approx(oracle, rel=1e-8)
    assert val == pytest.approx(math.pi ** 2 / 4 * math.sqrt(math.pi / 2), rel=1e-10)


def test_half_line_tail_divergence_detected():
    spec = QuadratureSpec(16, 16, 32)
    with pytest.raises(TailDivergenceError):
        integrate_c(lambda t: np.ones_like(t), HALF_LINE, spec, truncation=60.0)


def test_half_line_calls_its_integrand_once_on_all_panels():
    calls = []

    def g(t):
        calls.append(t)
        return np.exp(-t)

    val = integrate_c(g, HALF_LINE, QuadratureSpec(16, 16, 64), truncation=50.0, panel=1.25)
    assert val.real == pytest.approx(1.0, rel=1e-13)
    assert len(calls) == 1 and calls[0].shape == (40 * 16,)
    assert 0.0 < calls[0].min() and calls[0].max() < 50.0


@pytest.mark.parametrize("truncation, panel", [(50.0, 1.25), (17.3, 0.7), (33.0, 5.0)])
def test_half_line_equals_the_panel_by_panel_sum(truncation, panel):
    # reference: one Gauss-Legendre rule per panel, panel sums added in order
    def g(t):
        return np.exp(-2.5 * t) * np.cos((1.0 + 0.3j) * t)

    x, w = _jacobi_rule(16, 0.0, 0.0)
    total, t0 = 0.0 + 0.0j, 0.0
    while t0 < truncation:
        t1 = min(t0 + panel, truncation)
        tm, th = (t0 + t1) / 2.0, (t1 - t0) / 2.0
        total += complex(np.sum(w * th * g(tm + th * x)))
        t0 = t1
    got = integrate_c(g, HALF_LINE, QuadratureSpec(16, 16, 64), truncation=truncation,
                      panel=panel)
    assert got == total


def test_quadrature_spec_validation():
    from ellipsegas import DomainError
    with pytest.raises(DomainError):
        QuadratureSpec(radial_nodes=2)
    # node counts only: an exponent belongs to the gas or to the half-line rule
    assert [f.name for f in dataclasses.fields(QuadratureSpec)] == [
        "radial_nodes", "angular_nodes", "c_nodes"]


def test_rule_is_deterministic():
    geo = EllipseGeometry(0.5)
    spec = QuadratureSpec()
    z1, w1 = ellipse_rule(geo, spec)
    z2, w2 = ellipse_rule(geo, spec)
    assert np.array_equal(z1, z2) and np.array_equal(w1, w2)


@pytest.mark.parametrize("rule", [(UNIT_INTERVAL, 64), (HALF_LINE, 64, 50.0, 1.25),
                                  ("legendre", 16), ("jacobi", 64, 0.0, 1.5)])
def test_cached_rules_are_read_only_and_shared(rule):
    nodes, weights = _gauss_rule(*rule)
    for arr in (nodes, weights):
        with pytest.raises(ValueError):
            arr[0] = 1.0
    again = _gauss_rule(*rule)
    assert again[0] is nodes and again[1] is weights


def test_cached_rules_equal_a_fresh_build():
    x, w = _jacobi_rule(64, 0.0, 0.0)
    c, wc = _gauss_rule(UNIT_INTERVAL, 64)
    assert np.array_equal(c, (x + 1.0) / 2.0) and np.array_equal(wc, w / 2.0)
    xj, wj = _jacobi_rule(64, 0.0, 1.5)
    cj, wcj = _gauss_rule("jacobi", 64, 0.0, 1.5)
    assert np.array_equal(cj, xj) and np.array_equal(wcj, wj)


def test_integrate_c_passes_the_cached_nodes():
    seen = []

    def g(c):
        seen.append(c)
        return np.exp(-c)

    spec = QuadratureSpec(16, 16, 64)
    integrate_c(g, UNIT_INTERVAL, spec)
    integrate_c(g, HALF_LINE, spec, truncation=50.0, panel=1.25)
    integrate_c(g, HALF_LINE, spec)
    assert seen[0] is _gauss_rule(*_c_rule(UNIT_INTERVAL, spec))[0]
    assert seen[1] is _gauss_rule(HALF_LINE, 64, 50.0, 1.25)[0]
    # the default half line is the rule of a = 0
    assert seen[2] is seen[1]
    # the truncation is max(50, 5(a+2)) and the panel min(5, max(1, T/40))
    spec = QuadratureSpec(c_nodes=32)
    assert _c_rule(HALF_LINE, spec) == (HALF_LINE, 32, 50.0, 1.25)
    assert _c_rule(HALF_LINE, spec, 9.0) == (HALF_LINE, 32, 55.0, 1.375)
    assert _c_rule(HALF_LINE, spec, 1000.0) == (HALF_LINE, 32, 5010.0, 5.0)
    assert _c_rule(HALF_LINE, spec, 9.0, truncation=60.0) == (HALF_LINE, 32, 60.0, 1.5)
    assert _c_rule(HALF_LINE, spec, 9.0, panel=2.0) == (HALF_LINE, 32, 55.0, 2.0)
    with pytest.raises(DomainError):
        _c_rule("circle", spec)


@pytest.mark.parametrize("focal", [False, True])
def test_cached_ellipse_rules_are_read_only(focal):
    geo, spec = EllipseGeometry(0.5), QuadratureSpec()
    for arr in ellipse_rule(geo, spec, focal=focal):
        with pytest.raises(ValueError):
            arr[0] = 123.0
    gas = GasFamily(PolyKind.CHEBYSHEV_T if focal else PolyKind.GEGENBAUER)
    fresh = _product_rule.__wrapped__(gas, geo.tau, spec.radial_nodes, spec.angular_nodes)
    again = ellipse_rule(geo, spec, focal=focal)
    assert all(np.array_equal(x, y) for x, y in zip(again, fresh))


def test_ellipse_rule_and_the_gas_rules_share_one_builder():
    # the plain rule is the a = 0 Gegenbauer gas's, the focal one Chebyshev T's
    geo = EllipseGeometry(0.3)
    spec = QuadratureSpec(24, 32, 8)
    for focal, kind in ((False, PolyKind.GEGENBAUER), (True, PolyKind.CHEBYSHEV_T)):
        rule = ellipse_rule(geo, spec, focal=focal)
        assert rule[1] is rule_for_gas(GasFamily(kind), geo, spec)[1]


# ------------------------------------------------------ native Gauss rules
# scipy.special.roots_* is a test-only oracle; the exact moments of
# (1+x)^j, 2^(alpha+beta+j+1) B(alpha+1, beta+j+1), j < 2n, are the other

_RULE_CASES = [(n, a, b) for n in (4, 5, 16, 64, 97, 256)
               for a, b in ((0.0, 0.0), (-0.999, 0.0), (0.0, 1.5), (-0.5, -0.5), (50.0, 0.0),
                            (0.0, 50.0), (50.0, 49.9), (-0.9, 30.0), (2.5, 2.5), (0.3, -0.7),
                            # the disc rule at a = 300, kernel_truncated_edge at a = 300, and
                            # exponents where `_block_length` shortens the blocks
                            (300.0, 0.0), (0.0, 301.0), (1000.0, 0.0))]


def _moment_error(n, a, b, x, w):
    from scipy.special import betaln
    j = np.arange(2 * n)
    ref = np.exp((a + b + j + 1) * math.log(2.0) + betaln(a + 1, b + j + 1))
    got = np.array([np.sum(w * (1.0 + x) ** k) for k in j])
    return np.max(np.abs(got - ref) / ref)


@pytest.mark.parametrize("n, a, b", _RULE_CASES)
def test_native_gauss_rules_against_scipy_and_exact_moments(n, a, b):
    from scipy.special import roots_jacobi, roots_legendre
    x, w = _gauss_rule("legendre", n) if a == b == 0.0 else _gauss_rule("jacobi", n, a, b)
    xs, ws = roots_legendre(n) if a == b == 0.0 else roots_jacobi(n, a, b)
    assert np.all(np.diff(x) > 0) and -1.0 < x[0] and x[-1] < 1.0 and np.all(w > 0)
    assert np.max(np.abs(x - xs)) <= 4e-16
    # no worse than scipy's rule against the exact moments, up to rounding
    assert _moment_error(n, a, b, x, w) <= max(2.0 * _moment_error(n, a, b, xs, ws), 5e-14)


@pytest.mark.parametrize("n, a, b", [(96, 1040.0, 0.0), (64, 0.0, 2001.0), (16, 1100.0, 0.5)])
def test_gauss_jacobi_weights_past_the_double_range_are_refused(n, a, b):
    # they sum to 2^(a+b+1) B(a+1, b+1), which leaves the double range from
    # a + b of about 1033 when one exponent is 0, but not at a = b = 800
    with pytest.raises(OutOfRangeError, match="past the double range"):
        _jacobi_rule(n, a, b)
    assert np.all(np.isfinite(_jacobi_rule(n, 800.0, 800.0)[1]))


def test_gas_rules_answer_up_to_the_gauss_jacobi_refusal():
    # the factor 2^-(a+1) is applied by ldexp, so the disc rule answers past
    # a = 1023, and refuses by name where the Gauss-Jacobi weights do
    geo, spec = EllipseGeometry(0.5), QuadratureSpec()
    gas = GasFamily(PolyKind.GEGENBAUER, 1025.0)
    z, w = rule_for_gas(gas, geo, spec)
    h0 = np.sum(w * weight_values(gas, geo, z))
    assert h0 == pytest.approx(math.pi * geo.semi_x * geo.semi_y / 1026.0, rel=1e-13)
    with pytest.raises(OutOfRangeError, match="past the double range"):
        rule_for_gas(GasFamily(PolyKind.GEGENBAUER, 1040.0), geo, spec)


@pytest.mark.parametrize("kind", [PolyKind.GEGENBAUER, PolyKind.JACOBI_PLUS])
def test_gas_rules_give_no_weight_where_the_gas_weight_underflows(kind):
    # at a = 1000, 400 radial nodes reach t where (1-t)^a is below the
    # doubles: those nodes get W = 0, not 0/0, and h_0 = sum W w holds
    geo, gas = EllipseGeometry(0.5), GasFamily(kind, 1000.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        z, w = rule_for_gas(gas, geo, QuadratureSpec(400, 32, 8))
    wv = weight_values(gas, geo, z)
    assert np.any(wv == 0.0) and np.all(w[wv == 0.0] == 0.0)
    assert math.log(np.sum(w * wv)) == pytest.approx(log_raw_norms(gas, geo, 0)[0], abs=1e-13)


@pytest.mark.parametrize("n, alpha, beta", [(96, a, b) for a in (0.5, 30.0, 300.0, 1000.0)
                                             for b in (0.0, 1.0)] + [(16, 1000.0, 0.0)])
def test_gauss_jacobi_weights_sum_to_their_40_digit_total(n, alpha, beta):
    # 2^(alpha+beta+1) B(alpha+1, beta+1): log Gamma(alpha+1) and
    # log Gamma(alpha+beta+2) cancelled to 2.6e-13 at (96, 300, 0), and
    # 1.5e-13 at (96, 1000, 0); the weights are summed exactly
    mpmath = pytest.importorskip("mpmath")
    w = _gauss_rule("jacobi", n, alpha, beta)[1]
    with mpmath.workdps(40):
        total = mpmath.mpf(2) ** (alpha + beta + 1) * mpmath.beta(alpha + 1, beta + 1)
        got = mpmath.fsum(mpmath.mpf(v) for v in w.tolist())
        assert abs(got / total - 1) <= 1e-14


# ------------------------------------------------- the claimed domain as a grid
# six gases x a (where the gas has one) x tau, from 1e-6 to 1 - 1e-6, plus
# three Jacobi cells where a rule in the Joukowsky radius would need factors
# ((v-1)/2)^(a+1) or (v-rho)^a past the double range

def _h0(kind, a, geo):
    """int w over the ellipse in closed form, A = semi_x, B = semi_y and
    log v = asinh(B)."""
    A, B = geo.semi_x, geo.semi_y
    return {PolyKind.GEGENBAUER: math.pi * A * B / (a + 1),
            PolyKind.CHEBYSHEV_U: math.pi * A * B,
            PolyKind.JACOBI_MINUS: 2 * math.pi * B / (a + 1),
            PolyKind.CHEBYSHEV_V: 2 * math.pi * B,
            PolyKind.JACOBI_PLUS: 2 * math.pi * A * B / ((a + 1) * (a + 2)),
            PolyKind.CHEBYSHEV_T: 2 * math.pi * math.asinh(B)}[kind]


_DOMAIN_GRID = [(kind, a, tau) for kind in PolyKind
                for a in ((0.0,) if kind.value.startswith("chebyshev")
                          else (-0.999, 0.5, 30.0, 300.0, 1000.0))
                for tau in (1e-6, 1e-3, 0.5, 0.9, 1 - 1e-6)] + [
    (PolyKind.JACOBI_PLUS, 300.0, 1e-6), (PolyKind.JACOBI_MINUS, 100.0, 1e-6),
    (PolyKind.JACOBI_PLUS, 500.0, 0.9)]


@pytest.mark.parametrize("kind, a, tau", _DOMAIN_GRID)
def test_gas_rules_and_norms_on_the_claimed_domain(kind, a, tau):
    # the trace identity sum W K_N(z, z) = N through the default gas rule, and
    # log h_0 against its closed form; any RuntimeWarning fails the cell, and
    # so does a bare OverflowError, which is not caught
    gas, geo = GasFamily(kind, a), EllipseGeometry(tau)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        z, w = rule_for_gas(gas, geo, QuadratureSpec())
        for N in (1, 20):
            assert abs(np.sum(w * FiniteKernel(gas, geo, N).diagonal(z)) - N) <= 1e-12 * N
        assert abs(log_raw_norms(gas, geo, 0)[0] - math.log(_h0(kind, a, geo))) <= 1e-14


def test_large_legendre_rule_needs_no_eigenvalue_solve():
    # Tricomi's start and three Newton steps; the weights sum to 2 and
    # integrate x^(2n-2) exactly
    x, w = _jacobi_rule(1024, 0.0, 0.0)
    assert np.all(np.diff(x) > 0) and np.array_equal(x, -x[::-1])
    assert abs(np.sum(w) - 2.0) <= 1e-14
    assert np.sum(w * x ** 2046) == pytest.approx(2.0 / 2047.0, rel=1e-12)
