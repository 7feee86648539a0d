import dataclasses
import json
import math
import warnings

import numpy as np
import pytest

from ellipsegas import (DomainError, EllipseGeometry, FiniteKernel, GasFamily, HALF_LINE,
                        OutOfRangeError, PolyKind, QuadratureSpec, TailDivergenceError,
                        UNIT_INTERVAL, integrate_c, integrate_ellipse,
                        rule_for_gas, weight, weight_values)
from ellipsegas.cli import main
from ellipsegas.polynomials import log_raw_norms, log_squared_norms, monic_scaled_sequence
from ellipsegas.quadrature import _c_rule, _gauss_rule, _jacobi_rule, _product_rule, ellipse_rule

from conftest import gas_cases


def test_area_is_exact():
    geo = EllipseGeometry(0.6)
    spec = QuadratureSpec(48, 64)
    val = integrate_ellipse(lambda z: np.ones_like(z, dtype=float), geo, spec)
    assert val.real == pytest.approx(geo.area, rel=1e-12)
    assert abs(val.imag) < 1e-14


def test_weight_normalization_example():
    # integral of the a=0 weight is the area: 2 pi/3 at tau = 0.6
    geo = EllipseGeometry(0.6)
    spec = QuadratureSpec(48, 64)
    val = integrate_ellipse(lambda z: np.ones_like(z, dtype=float), geo, spec)
    assert val.real == pytest.approx(2 * math.pi / 3, rel=1e-12)
    # and for general a the closed form pi sqrt(1-tau^2)/(2 tau (a+1))
    a, tau = 2.5, 0.45
    geo = EllipseGeometry(tau)
    gas = GasFamily(PolyKind.GEGENBAUER, a)
    z, w = rule_for_gas(gas, geo, QuadratureSpec(48, 64))
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
        z, w = rule_for_gas(gas, geo, QuadratureSpec(nr, nth))
        vals.append(np.sum(w * kern.diagonal(z)))
    assert abs(vals[0] - vals[1]) < 1e-10


def test_integrate_c_examples():
    assert integrate_c(lambda c: c, UNIT_INTERVAL).real == pytest.approx(0.5, rel=1e-14)
    # small-s law: c^{a+1/2}/I_{a+1/2}(cs) * Gamma(a+3/2) (2/s)^{a+1/2} -> 1
    from ellipsegas import log_i_ratio
    a, s = 1.0, 1e-6
    nu = a + 0.5

    def g(c):
        return np.array([math.exp(log_i_ratio(nu, ci * s) - math.lgamma(nu + 1))
                         for ci in c])

    val = integrate_c(g, UNIT_INTERVAL)
    assert val.real == pytest.approx(1.0, abs=1e-9)


def test_integrate_c_half_line_against_trapezoid_oracle():
    # g(t) = t^{1/2}/I_{1/2}(t) = sqrt(pi/2) t/sinh t; closed value pi^2/4 sqrt(pi/2)
    from ellipsegas import log_i_ratio

    def g(t):
        return np.array([math.exp(log_i_ratio(0.5, ti) + 0.5 * math.log(ti)
                                  - 0.5 * math.log(ti / 2)) for ti in t])

    val = integrate_c(g, HALF_LINE).real
    # 10^6-node trapezoid oracle
    t = np.linspace(1e-9, 60.0, 1_000_001)
    oracle = np.trapezoid(np.sqrt(math.pi / 2) * t / np.sinh(t), t)
    assert val == pytest.approx(oracle, rel=1e-8)
    assert val == pytest.approx(math.pi ** 2 / 4 * math.sqrt(math.pi / 2), rel=1e-10)


@pytest.mark.parametrize("a", [0.0, 9.0, 300.0])
def test_half_line_tail_divergence_detected(a):
    # the tail refusal is reached through a, the one input of the half-line rule
    with pytest.raises(TailDivergenceError):
        integrate_c(lambda t: np.ones_like(t), HALF_LINE, a)


def test_half_line_refuses_past_its_node_cap_through_a():
    # on its first rung the rule takes 63 panels of 256 nodes and a final
    # panel of 32 up to a = 1309.4 (T = 6557), 16,160 nodes, and passes the
    # 16,384-node cap from there, refused before g is called
    calls = []
    assert integrate_c(lambda t: calls.append(t) or np.exp(-t), HALF_LINE, 1309.0) != 0.0
    assert calls[0].size == 63 * 256 + 32
    for a in (1310.0, 3000.0, 1e8, 1e300, math.inf):
        with pytest.raises(OutOfRangeError, match="half-line rule needs more than 16384 nodes"):
            integrate_c(lambda t: calls.append(t) or np.exp(-t), HALF_LINE, a)
    assert len(calls) == 1


def test_half_line_calls_its_integrand_once_on_all_panels():
    calls = []

    def g(t):
        calls.append(t)
        return np.exp(-t)

    val = integrate_c(g, HALF_LINE)       # a = 0: 144 nodes on [0, 48.75], 16 on [48.75, 50]
    assert val.real == pytest.approx(1.0, rel=1e-13)
    assert len(calls) == 1 and calls[0].shape == (144 + 16,)
    assert 0.0 < calls[0].min() and calls[0].max() < 50.0
    assert np.sum(calls[0] > 48.75) == 16


@pytest.mark.parametrize("a, omega", [(-0.5, 0.0), (0.0, 0.0), (0.0, 20.0), (9.0, 3.0),
                                      (17.3, 0.0), (33.0, 40.0), (100.0, 0.0), (1000.0, 8.0)])
def test_half_line_rule_is_its_panels_in_order(a, omega):
    # reference: `panels` equal panels of [0, T - P] of n Gauss-Legendre
    # nodes each, then the final panel [T - P, T] of its own count, from the
    # rule that `_c_rule` sets at (a, omega)
    rule = _c_rule(HALF_LINE, a, omega=omega)
    kind, n, truncation, panels, final, final_nodes = rule
    assert truncation == max(50.0, 5.0 * (a + 2.0))
    assert final == min(5.0, max(1.0, truncation / 40.0))
    edges = [(truncation - final) * k / panels for k in range(panels + 1)] + [truncation]
    t, w = _gauss_rule(*rule)
    assert t.shape == w.shape == (panels * n + final_nodes,)
    start = 0
    for k, nodes in enumerate([n] * panels + [final_nodes]):
        x, wx = _jacobi_rule(nodes, 0.0, 0.0)
        half = (edges[k + 1] - edges[k]) / 2.0
        np.testing.assert_allclose(t[start:start + nodes], edges[k] + half * (x + 1.0),
                                   rtol=4e-16, atol=4e-16 * truncation)
        # a width is a difference of edges, rounded as such
        np.testing.assert_allclose(w[start:start + nodes], half * wx, rtol=1e-14)
        start += nodes

    # integrate_c sums the weighted terms as one array, and the tail is the
    # final panel's share
    def g(t):
        return np.exp((-0.5 + 1.3j) * t)

    rule0 = _c_rule(HALF_LINE, a)
    t0, w0 = _gauss_rule(*rule0)
    assert integrate_c(g, HALF_LINE, a) == complex(np.sum(w0 * g(t0)))


def test_quadrature_spec_validation():
    from ellipsegas import DomainError
    with pytest.raises(DomainError):
        QuadratureSpec(radial_nodes=2)
    # node counts only: an exponent belongs to the gas or to the half-line rule
    assert [f.name for f in dataclasses.fields(QuadratureSpec)] == [
        "radial_nodes", "angular_nodes"]


@pytest.mark.parametrize("nr, nth", [(2049, 4), (1_000_000, 128), (96, 100_000_000_000),
                                     (512, 513), (4, 2 ** 16 + 1)])
def test_quadrature_spec_refuses_an_oversized_rule_by_name(nr, nth):
    # at most 2048 radial nodes, whose Golub-Welsch solve is dense, and 2^18
    # nodes in all; refused before any rule is built
    with pytest.raises(DomainError, match=r"^QuadratureSpec needs node counts >= 4, "
                                          r"radial_nodes <= 2048 and radial_nodes \* "
                                          r"angular_nodes <= 262144, got "):
        QuadratureSpec(nr, nth)


@pytest.mark.parametrize("nr, nth", [(48, 64), (96, 128), (400, 32), (20, 24), (2048, 128),
                                     (512, 512), (4, 2 ** 16)])
def test_quadrature_spec_takes_the_rules_in_use(nr, nth):
    # the benchmark's (48, 64), orthocheck's default (96, 128), the tests'
    # rules and the largest of each cap
    spec = QuadratureSpec(nr, nth)
    assert (spec.radial_nodes, spec.angular_nodes) == (nr, nth)


def test_rule_is_deterministic():
    geo = EllipseGeometry(0.5)
    spec = QuadratureSpec()
    z1, w1 = ellipse_rule(geo, spec)
    z2, w2 = ellipse_rule(geo, spec)
    assert np.array_equal(z1, z2) and np.array_equal(w1, w2)


@pytest.mark.parametrize("rule", [(UNIT_INTERVAL, 64), (HALF_LINE, 144, 50.0, 1, 1.25, 16),
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

    integrate_c(g, UNIT_INTERVAL)
    integrate_c(g, HALF_LINE, 0.0)
    integrate_c(g, HALF_LINE)
    integrate_c(g, HALF_LINE, 9.0)
    assert seen[0] is _gauss_rule(*_c_rule(UNIT_INTERVAL))[0]
    assert seen[1] is _gauss_rule(HALF_LINE, 144, 50.0, 1, 1.25, 16)[0]
    # the default half line is the rule of a = 0
    assert seen[2] is seen[1]
    assert seen[3] is _gauss_rule(*_c_rule(HALF_LINE, 9.0))[0]
    # integrate_c takes the first rung, omega <= 8, at its a: the truncation
    # max(50, 5(a+2)) and the final panel min(5, max(1, T/40)) are as they were
    assert _c_rule(HALF_LINE) == (HALF_LINE, 144, 50.0, 1, 1.25, 16)
    assert _c_rule(HALF_LINE, 9.0) == (HALF_LINE, 144, 55.0, 1, 1.375, 16)
    assert _c_rule(HALF_LINE, 1000.0) == (HALF_LINE, 256, 5010.0, 49, 5.0, 32)
    with pytest.raises(DomainError):
        _c_rule("circle")


@pytest.mark.parametrize("knob", ["truncation", "panel"])
def test_the_half_line_rule_takes_no_truncation_or_panel(knob):
    with pytest.raises(TypeError):
        _c_rule(HALF_LINE, 9.0, **{knob: 60.0})
    with pytest.raises(TypeError):
        integrate_c(np.exp, HALF_LINE, **{knob: 60.0})


@pytest.mark.parametrize("a, omega, rule", [
    (0.0, 0.0, (144, 50.0, 1, 1.25, 16)), (-0.999, 8.0, (144, 50.0, 1, 1.25, 16)),
    (3.0, 8.5, (256, 50.0, 1, 1.25, 32)), (3.0, 60.0, (256, 50.0, 4, 1.25, 48)),
    (16.0, 0.0, (224, 90.0, 1, 2.25, 32)), (35.0, 16.0, (240, 185.0, 4, 4.625, 48)),
    (300.0, 32.0, (256, 1510.0, 58, 5.0, 64)), (1000.0, 8.0, (256, 5010.0, 49, 5.0, 32))])
def test_half_line_rule_is_sized_from_a_and_omega(a, omega, rule):
    # the rung omega_j = 8 2^j, j the least with omega <= omega_j; kappa =
    # omega_j L/2 per panel of length L: the fewest equal panels of [0, T - P]
    # whose kappa 256 nodes reach, 2n - 6 sqrt(n) >= kappa for each n
    assert _c_rule(HALF_LINE, a, omega=omega) == (HALF_LINE, *rule)
    n, truncation, panels, final, final_nodes = rule
    rung = 8.0 * 2 ** max(0, math.ceil(math.log2(max(omega, 1.0) / 8.0)))
    for nodes, length in ((n, (truncation - final) / panels), (final_nodes, final)):
        assert 2 * nodes - 6 * math.sqrt(nodes) >= rung * length / 2
        assert nodes == 16 or 2 * (nodes - 16) - 6 * math.sqrt(nodes - 16) < rung * length / 2


@pytest.mark.parametrize("a, omega", [(0.0, 1200.0), (0.0, math.inf), (0.0, math.nan),
                                      (300.0, 33.0), (1000.0, 8.5), (1310.0, 0.0)])
def test_half_line_rule_refuses_past_its_node_cap_by_name(a, omega):
    with pytest.raises(OutOfRangeError, match="the half-line rule needs more than 16384 nodes"):
        _c_rule(HALF_LINE, a, omega=omega)


@pytest.mark.parametrize("a", [0.0, 35.0, 300.0])
def test_half_line_rungs_resolve_their_oscillation_against_closed_forms(a):
    # the worst integrand of the rule: poles at +-i pi/2, those of the strong
    # bulk's weight at a -> -1, times cos(omega t).  Closed forms (Gradshteyn
    # and Ryzhik 3.981.3, 3.986.2): int_0^inf cos(w t)/cosh t dt =
    # (pi/2) sech(pi w/2) and int_0^inf t cos(w t)/sinh t dt =
    # (pi^2/4) sech^2(pi w/2); within 1e-14 of their value at w = 0 on every
    # rung that the rule at a admits, up to the rung's top
    for omega in (0.0, 1.0, 4.0, 7.9, 8.0, 8.1, 12.0, 16.0, 31.0, 32.0, 60.0, 64.0, 100.0, 128.0):
        try:
            t, w = _gauss_rule(*_c_rule(HALF_LINE, a, omega=omega))
        except OutOfRangeError:
            assert a == 300.0 and omega > 32.0
            continue
        sech = 1.0 / math.cosh(math.pi * omega / 2.0)
        decay = np.exp(-t)          # 1/cosh t and t/sinh t without overflow
        got = np.sum(w * np.cos(omega * t) * 2.0 * decay / (1.0 + decay * decay))
        assert abs(got - math.pi / 2.0 * sech) <= 1e-14 * math.pi / 2.0
        got = np.sum(w * t * np.cos(omega * t) * 2.0 * decay / -np.expm1(-2.0 * t))
        assert abs(got - math.pi ** 2 / 4.0 * sech ** 2) <= 1e-14 * math.pi ** 2 / 4.0


@pytest.mark.parametrize("s, u, nodes", [
    (0.0, 0.0, 64), (50.0, 60.0, 64), (50.5, 1.0, 128), (1.0, 60.5, 128), (100.0, 120.0, 128),
    (300.0, 0.0, 512), (1e3, 3.0, 2048), (3.0, 316.3, 512), (3200.0, 3840.0, 4096)])
def test_unit_interval_rule_is_sized_from_s_and_u(s, u, nodes):
    # 64 2^j nodes, j the least with s <= 50 2^j and |u| <= 60 2^j
    assert _c_rule(UNIT_INTERVAL, s=s, u=u) == (UNIT_INTERVAL, nodes)


@pytest.mark.parametrize("s, u", [(3200.5, 0.0), (1.0, 3841.0), (1e4, 0.0), (math.nan, 0.0),
                                  (1.0, math.inf)])
def test_unit_interval_rule_refuses_past_its_node_cap_by_name(s, u):
    with pytest.raises(OutOfRangeError, match=r"bulk-weak needs s <= 3200 and \|u\| <= 3840"):
        _c_rule(UNIT_INTERVAL, s=s, u=u, name="bulk-weak")


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
    spec = QuadratureSpec(24, 32)
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
        z, w = rule_for_gas(gas, geo, QuadratureSpec(400, 32))
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
def test_gas_rules_and_norms_on_the_claimed_domain(kind, a, tau, capsys):
    # through the default gas rule: the trace identity sum W K_N(z, z) = N;
    # the projection identity sum W K(z1, w) K(w, z2) = K(z1, z2) at N = 20,
    # z1 and z2 the heaviest nodes of W K(z, z) in Re z >= 0 and Re z < 0
    # (the worst cell is 2.7e-14 of sqrt(K11 K22)); and `orthocheck`'s Gram
    # of the normalised polynomials to degree 8 against I (the worst is
    # 5.8e-13, at a = -0.999).  log h_0 against its closed form.  Any
    # RuntimeWarning fails the cell, and so does a bare OverflowError, which
    # is not caught.  The 93 cells take about 3 s
    gas, geo = GasFamily(kind, a), EllipseGeometry(tau)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        z, w = rule_for_gas(gas, geo, QuadratureSpec())
        for N in (1, 20):
            kern = FiniteKernel(gas, geo, N)
            assert abs(np.sum(w * kern.diagonal(z)) - N) <= 1e-12 * N
        heavy = w * kern.diagonal(z).real
        z1, z2 = (z[np.argmax(np.where(side, heavy, -1.0))] for side in (z.real >= 0, z.real < 0))
        projection = np.sum(w * kern.eval_batch(z1, z) * np.conj(kern.eval_batch(z2, z)))
        scale = math.sqrt(kern.eval(z1, z1).real * kern.eval(z2, z2).real)
        assert abs(projection - kern.eval(z1, z2)) <= 1e-13 * scale
        assert abs(log_raw_norms(gas, geo, 0)[0] - math.log(_h0(kind, a, geo))) <= 1e-14
        assert main(["orthocheck", "--family", kind.value, "--a", repr(a), "--tau", repr(tau),
                     "--max-degree", "8"]) == 0
    gram = json.loads(capsys.readouterr().out)
    assert max(gram["max_offdiagonal"], gram["max_diagonal_error"]) <= 1e-12


def test_large_legendre_rule_needs_no_eigenvalue_solve():
    # Tricomi's start and three Newton steps; the weights sum to 2 and
    # integrate x^(2n-2) exactly
    x, w = _jacobi_rule(1024, 0.0, 0.0)
    assert np.all(np.diff(x) > 0) and np.array_equal(x, -x[::-1])
    assert abs(np.sum(w) - 2.0) <= 1e-14
    assert np.sum(w * x ** 2046) == pytest.approx(2.0 / 2047.0, rel=1e-12)
