"""Quadrature over the ellipse and over the scaling variables c and t.

One builder, `_product_rule`, serves every weight: Gauss-Jacobi (a, 0) in
t on [0, 1] times the trapezoid in an angle theta (exact for trigonometric
polynomials), sent through one of three maps, with A, B the semi-axes and
v = A + B the Joukowsky radius.  In each, w d2z is (1-t)^a dt dtheta times a
factor R(t, theta) in closed form.  On the disc and the focal ray, R times a
product p conj q of polynomials of degree n is a trigonometric polynomial
of degree 2n in theta and, once the angles have summed away the odd powers
of sqrt(t) on the disc, a polynomial of degree at most 2n + 1 in t, so
n + 1 nodes in t and 2n + 1 angles integrate it exactly; on the log annulus
it is a sum of e^(k t log v), on which Gauss-Legendre converges
geometrically:

* disc (Gegenbauer, Chebyshev U) -- z = sqrt(t) (A cos theta + i B sin
  theta): the wall deficit is 1 - t and R = AB/2.
* focal ray (both Jacobi gases, Chebyshev V) -- z = -1 + t (A cos theta + 1
  + i B sin theta), the ray from the focus -1 to the wall: 1 - mu = 1 - t,
  |1+z| = t (A + cos theta) and d2z = t B (A + cos theta) dt dtheta, so
  R = B where the weight has 1/|1+z|, and t B (A + cos theta) for
  jacobi-plus.
* log annulus (Chebyshev T) -- omega = v^t e^(i theta), z = (omega +
  1/omega)/2: w d2z = log v dt dtheta and R = log v.

The rule's weights are W = wt (2 pi/nth) R / w(z), with w(z) the gas weight
at the rounded nodes, so callers pass the raw integrand including the
weight, which cancels to rounding.  `rule_for_gas` gives a gas's rule, and
`ellipse_rule` that of the a = 0 disc gas or, for a focal integrand, of
the Chebyshev-T gas: an exponent belongs to the gas, and `QuadratureSpec`
holds node counts only.  The rules in c on [0, 1] and on the half line
[0, inf) are set in one place, `_c_rule`.  On [0, 1] a kernel's rule is
sized from its s and the argument u of its node functions: 64 2^j
Gauss-Legendre nodes, j the least with s <= 50 2^j and |u| <= 60 2^j, up to
4096 nodes, past which the kernel is refused by name; `integrate_c` takes
the 64-node rule.  The half line of an integrand of exponent a times an
oscillation of frequency omega, the strong bulk's |x1 - x2|, is truncated at
T = max(50, 5(a+2)), with a final panel of min(5, max(1, T/40)), and sized
for the rung omega <= 8 2^j: equal Gauss-Legendre panels of up to 256
nodes, each given as many nodes as its oscillation omega_j L/2 asks, so 160
nodes at a below 8 on the first rung (there were 640), for `bulk_strong`
and, on the first rung, for `integrate_c` at the a it is given.  The
Gauss-Jacobi rules, and the Legendre rules of the c-rules, run no
recurrence of their own: `_jacobi_rule` takes
the Jacobi coefficients and the block core, with its rescale window, from
`polynomials`.  Summation order is fixed (numpy pairwise over a frozen node
ordering), making results independent of any data-parallel evaluation.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError, OutOfRangeError, TailDivergenceError
from .geometry import EllipseGeometry, GasFamily, PolyKind, weight_values
from .polynomials import _block_length, _blocks, _jacobi_coefficients
from .specialfns import _LN2, _LOG_MAX, _log_beta, _read_only

UNIT_INTERVAL = "unit_interval"
HALF_LINE = "half_line"
# Gauss rules kept per process; each is a few kB
_RULE_CACHE = 128
# nodes of a half-line rule past which it is refused, before it is built.  It
# no longer guards a slow path: on a 2-vCPU VM a first bulk_strong call took
# 0.013 s on 9,632 nodes (a = 600) and 0.008 s on 16,032 (a = 1000) of the
# 16-node panels this rule replaced, and log_i_ratio 0.017 s on 48,032
# (a = 3000); it bounds the kept features (32 B a node) and the oscillation
# the rule is asked to resolve
_HALF_LINE_CAP = 2 ** 14
# the unit-interval c-rules of `_c_rule`, (rule, largest s, largest |u|):
# 64 2^j nodes up to s = 50 2^j and |u| = 60 2^j, j <= 6.  Against an
# 8192-node rule, at a in {-0.5, 0.5, 30}, 64 nodes were within 2.6e-14 of
# the kernels' scale up to s = 70 and |u| = 80, and 2e-8 and 8e-8 off at
# s = 200 and |u| = 100; 128 nodes were within 1.1e-13 at s = 300 and
# 2.7e-15 at |u| = 150.  A first bulk_weak call took 0.13 s on 2048 nodes
# and 0.23 s on 4096 on a 2-vCPU VM
_C_RULES = tuple(((UNIT_INTERVAL, 64 << j), 50.0 * 2 ** j, 60.0 * 2 ** j) for j in range(7))
# the half-line rule's rungs: the pair's frequency |x1 - x2| up to 8 2^j.  An
# n-node Gauss-Legendre panel is given at most kappa = omega L/2, L its
# length, with 2n - 6 sqrt(n) >= kappa, and at most _PANEL_NODES nodes: on
# [-1, 1] the n-node rule integrates e^(i kappa x) to within 1e-14 up to
# kappa = 9.2, 31, 83, 197, 435 and 926 at n = 16, 32, 64, 128, 256 and 512,
# where the bound gives 8, 30, 80, 188, 416 and 888
_OMEGA_RUNG = 8.0
_PANEL_NODES = 256


# the largest radial node count and product rule that a QuadratureSpec takes.
# On a 2-vCPU VM the dense Golub-Welsch solve of 2048 radial nodes took 1.0 s
# and 67 MB, and it grows as n^3 and n^2; `orthocheck` at 512 x 512 = 2^18
# nodes took 0.35 s and 179 MB, about 700 B a node
_MAX_RADIAL = 2048
_MAX_NODES = 2 ** 18


@dataclass(frozen=True)
class QuadratureSpec:
    radial_nodes: int = 96
    angular_nodes: int = 128

    def __post_init__(self):
        nr, nth = self.radial_nodes, self.angular_nodes
        if not (min(nr, nth) >= 4 and nr <= _MAX_RADIAL and nr * nth <= _MAX_NODES):
            raise DomainError(f"QuadratureSpec needs node counts >= 4, radial_nodes <= "
                              f"{_MAX_RADIAL} and radial_nodes * angular_nodes <= "
                              f"{_MAX_NODES}, got {nr}, {nth}")


def _top_degree(coefs, x: np.ndarray):
    """(v, bits) with v 2^bits the last degree of the recurrence `coefs` at
    the nodes x, from the block core of `polynomials`."""
    for _, block, bits, _ in _blocks(coefs, x, _block_length(coefs, 1.0)):
        pass
    return block[-1], bits


def _jacobi_rule(n: int, alpha: float, beta: float):
    """n-node Gauss-Jacobi rule for (1-x)^alpha (1+x)^beta on [-1, 1].

    The recurrence is the one of `polynomials`: its coefficients give the
    Golub-Welsch matrix, whose eigenvalues are the nodes, and its block core
    gives P_n and, by DLMF 18.9.15, P_n' = (n+alpha+beta+1)/2
    P_(n-1)^(alpha+1, beta+1) at them, for two Newton steps.  The Legendre
    nodes start instead from Tricomi's approximation, off by O(n^-4), and
    take three Newton steps: the dense eigenvalue solve costs O(n^3), 0.1-7 s
    at n = 1024 depending on the load of a 2-vCPU VM.  The weights are
    proportional to 1/((1-x^2) P_n'(x)^2), with the run's exponent applied by
    ldexp, so no power 2^bits is formed, and sum to 2^(alpha+beta+1)
    B(alpha+1, beta+1): the power of two by ldexp, and log B from
    `_log_beta`, whose log-gammas do not cancel (as a plain sum they were
    2.6e-13 off at alpha = 300).  OutOfRangeError where the sum leaves the
    double range (alpha or beta past about 1033 when the other is 0).  A
    symmetric weight gets symmetric nodes and weights.
    """
    ab = alpha + beta
    log_beta = float(_log_beta(alpha + 1.0, beta + 1.0))
    log_total = (ab + 1.0) * _LN2 + log_beta
    if log_total > _LOG_MAX:
        raise OutOfRangeError(f"the Gauss-Jacobi weights for alpha = {alpha:g}, beta = {beta:g} "
                              f"sum to e^{log_total:.6g}, past the double range")
    coefs = _jacobi_coefficients(alpha, beta, n)
    derivative = _jacobi_coefficients(alpha + 1.0, beta + 1.0, n - 1)
    if alpha == beta == 0.0:
        theta = math.pi * (4.0 * np.arange(n, 0, -1) - 1.0) / (4.0 * n + 2.0)
        x = (1.0 - 1.0 / (8.0 * n * n) + 1.0 / (8.0 * n ** 3)) * np.cos(theta)
        newton = 3
    else:
        lin0, lin1, quad = coefs
        off = np.sqrt(-quad[2:] / (lin1[1:-1] * lin1[2:]))
        x = np.linalg.eigvalsh(np.diag(-lin0[1:] / lin1[1:]) + np.diag(off, 1) + np.diag(off, -1))
        newton = 2
    for _ in range(newton):
        (p, p_bits), (q, q_bits) = _top_degree(coefs, x), _top_degree(derivative, x)
        x = x - np.ldexp(p / q, (p_bits - q_bits).astype(int)) / (0.5 * (n + ab + 1.0))
    # w = C / ((1-x^2) P_n'^2), with C set by the known sum: as in scipy, that
    # sets the weight of a node next to an endpoint where alpha or beta is
    # near -1, whose 1 - x^2 the nodes' last bits leave uncertain.  With P_n'
    # a multiple of m 2^(e + bits), m in [1/2, 1), C = c 2^k and the sum
    # 2^(alpha+beta+1) B = 2^(j + i) e^rest, j and i integers and rest in
    # [0, ln 2), every power of two is an integer exponent that ldexp applies
    # exactly, and the ln 2 of 2^(alpha+beta+1) cancels no log B
    q, q_bits = _top_degree(derivative, x)
    m, e = np.frexp(q)
    e = -2 * (e + q_bits.astype(int))
    r = 1.0 / ((1.0 - x) * (1.0 + x) * m * m)
    j = math.floor(ab + 1.0)
    rest = (ab + 1.0 - j) * _LN2 + log_beta
    i = math.floor(rest / _LN2)
    c, k = math.frexp(math.exp(rest - i * _LN2) / np.sum(np.ldexp(r, e - e.max())))
    w = np.ldexp(r * c, e - e.max() + k + j + i)
    if alpha == beta:
        x, w = (x - x[::-1]) / 2.0, (w + w[::-1]) / 2.0
    return x, w


@lru_cache(maxsize=_RULE_CACHE)
def _gauss_rule(kind: str, n: int, *params: float):
    """Read-only (nodes, weights) of one Gauss rule, built once per process.

    "legendre": n-node Gauss-Legendre on [-1, 1].  "jacobi", params
    (alpha, beta): n-node Gauss-Jacobi for the weight (1-x)^alpha (1+x)^beta.
    UNIT_INTERVAL: the n-node Legendre rule moved to [0, 1].  HALF_LINE,
    params (truncation, panels, final, final_nodes): the n-node Legendre rule
    on each of `panels` equal panels of [0, truncation - final], then the
    final_nodes-node rule on [truncation - final, truncation], as flat nodes
    and weights, the final panel's last.  The arguments of every c-rule come
    from `_c_rule`.
    """
    if kind == "legendre":
        return _read_only(*_jacobi_rule(n, 0.0, 0.0))
    if kind == "jacobi":
        return _read_only(*_jacobi_rule(n, *params))
    if kind == UNIT_INTERVAL:
        x, w = _gauss_rule("legendre", n)
        return _read_only((x + 1.0) / 2.0, w / 2.0)
    truncation, panels, final, final_nodes = params
    edges = np.append(np.linspace(0.0, truncation - final, panels + 1), truncation)
    t, w = [], []
    for t0, t1, nodes in zip(edges[:-1], edges[1:], [n] * panels + [final_nodes]):
        x, wx = _gauss_rule("legendre", nodes)
        t.append((t0 + t1) / 2.0 + (t1 - t0) / 2.0 * x)
        w.append((t1 - t0) / 2.0 * wx)
    return _read_only(np.concatenate(t), np.concatenate(w))


def _panel_nodes(kappa: float) -> int:
    """The least multiple of 16 Gauss-Legendre nodes n with
    2n - 6 sqrt(n) >= kappa, the most oscillation kappa = omega L/2 that a
    panel of length L is given at frequency omega."""
    root = (6.0 + math.sqrt(36.0 + 8.0 * kappa)) / 4.0
    return max(16, 16 * math.ceil(root * root / 16.0))


def _c_rule(domain: str, a=0.0, *, s=0.0, u=0.0, omega=0.0, name="c-rule"):
    """The `_gauss_rule` arguments of the c-rule on `domain`, the one place
    that sets them.  On [0, 1], for a weight in cs and node functions of
    c u, the first rule of `_C_RULES` that reaches s and |u|, and
    OutOfRangeError naming `name` past the last.  The half line [0, inf) of
    an integrand of exponent a, which peaks near t = a, times an oscillation
    of frequency omega: truncated at T = max(50, 5(a+2)), with a final panel
    of P = min(5, max(1, T/40)) whose share is the tail that
    `_check_tail` tests, and sized for the rung omega_j = 8 2^j, j the least
    with omega <= omega_j: [0, T - P] in the fewest equal panels whose
    kappa = omega_j L/2 a panel of _PANEL_NODES nodes reaches, each of the
    nodes `_panel_nodes` gives for its kappa, and the final panel of the
    nodes it gives for omega_j P/2 (16 on the first rung up to a = 14).
    OutOfRangeError, before the rule is built, past _HALF_LINE_CAP nodes."""
    if domain == UNIT_INTERVAL:
        for rule, hi_s, hi_u in _C_RULES:
            if s <= hi_s and u <= hi_u:
                return rule
        raise OutOfRangeError(f"{name} needs s <= {hi_s:g} and |u| <= {hi_u:g}, got {s:g}, {u:.6g}")
    if domain != HALF_LINE:
        raise DomainError(f"unknown domain {domain!r}")
    T = max(50.0, 5.0 * (a + 2.0))
    P = min(5.0, max(1.0, T / 40.0))
    rung, nodes = _OMEGA_RUNG, math.inf
    # an n-node panel resolves no kappa past 2n: that bound first, which also
    # refuses an omega or T that is not finite
    if omega * (T - P) <= 4.0 * _HALF_LINE_CAP:
        while rung < omega:
            rung *= 2.0
        kappa = rung * (T - P) / 2.0
        panels = math.ceil(kappa / (2.0 * _PANEL_NODES - 6.0 * math.sqrt(_PANEL_NODES)))
        n, final_nodes = _panel_nodes(kappa / panels), _panel_nodes(rung * P / 2.0)
        nodes = panels * n + final_nodes
    if not nodes <= _HALF_LINE_CAP:
        raise OutOfRangeError(f"the half-line rule needs more than {_HALF_LINE_CAP} nodes")
    return HALF_LINE, n, T, panels, P, final_nodes


@lru_cache(maxsize=64)
def _product_rule(gas: GasFamily, tau: float, nr: int, nth: int):
    """Read-only nodes z and weights W of the gas's product rule, built once
    per process: Gauss-Jacobi (a, 0) in t on [0, 1] times the trapezoid in
    the angle, sent through the gas's map, with W = wt (2 pi/nth) R / w(z)
    and R = w |dz/d(t, theta)| / (1-t)^a in closed form; nodes where w(z)
    underflows to 0 get W = 0."""
    geo = EllipseGeometry(tau)
    A, B = geo.semi_x, geo.semi_y
    xj, wj = _gauss_rule("jacobi", nr, gas.a, 0.0)
    # sum wt F(t) = int_0^1 (1-t)^a F dt; the power of two by ldexp
    j = math.floor(gas.a + 1.0)
    t, wt = ((xj + 1.0) / 2.0)[:, None], np.ldexp(wj * 2.0 ** (j - gas.a - 1.0), -j)[:, None]
    th = (np.arange(nth) + 0.5) * 2.0 * math.pi / nth
    cos, sin = np.cos(th), np.sin(th)
    if gas.kind in (PolyKind.GEGENBAUER, PolyKind.CHEBYSHEV_U):
        z, R = np.sqrt(t) * (A * cos + 1j * B * sin), A * B / 2.0
    elif gas.kind is PolyKind.CHEBYSHEV_T:
        log_v = math.asinh(B)
        z, R = np.cosh(t * log_v) * cos + 1j * np.sinh(t * log_v) * sin, log_v
    else:
        z = -1.0 + t * (A * cos + 1.0 + 1j * B * sin)
        R = t * B * (A + cos) if gas.kind is PolyKind.JACOBI_PLUS else B
    wz = weight_values(gas, geo, z)
    W = np.divide(wt * (2.0 * math.pi / nth) * R, wz, out=np.zeros(z.shape), where=wz > 0.0)
    return _read_only(z.ravel(), W.ravel())


def ellipse_rule(geometry: EllipseGeometry, spec: QuadratureSpec, focal: bool = False):
    """Nodes z and weights W with  integral_E f d2z ~ sum W f(z); read-only,
    because each rule is built once per process and shared: the rule of the
    a = 0 disc gas or, with focal=True, for an f that may carry 1/|1 +- z|,
    of the Chebyshev-T gas.  An f with the factor (1-rho^2)^a of the
    Gegenbauer weight takes that gas's rule from `rule_for_gas`."""
    gas = GasFamily(PolyKind.CHEBYSHEV_T if focal else PolyKind.GEGENBAUER)
    return rule_for_gas(gas, geometry, spec)


def rule_for_gas(gas: GasFamily, geometry: EllipseGeometry, spec: QuadratureSpec):
    """The gas's product rule: sum W w f(z) over its nodes integrates w f,
    with the weight w = `weight_values` at the nodes."""
    return _product_rule(gas, geometry.tau, spec.radial_nodes, spec.angular_nodes)


def integrate_ellipse(f, geometry: EllipseGeometry, spec: QuadratureSpec,
                      focal: bool = False) -> complex:
    """Integral over the hard-wall ellipse of a vectorized integrand f(z),
    on the rule of `ellipse_rule`: with focal=True f may carry integrable
    1/|1 +- z| focal singularities.
    """
    z, w = ellipse_rule(geometry, spec, focal=focal)
    vals = np.asarray(f(z), dtype=complex)
    if not np.all(np.isfinite(vals)):
        raise DomainError("integrand is non-finite at an interior quadrature node")
    return complex(np.sum(w * vals))


def _check_tail(last: float, total: float) -> None:
    """TailDivergenceError where the last panel of a half-line sum, of
    modulus `last`, passes 1e-8 of the whole, of modulus `total`: the
    integrand has not decayed by the truncation point."""
    if last > 1e-8 * max(total, 1e-300):
        raise TailDivergenceError(f"final panel contributes {last:.3g} of {total:.3g}; "
                                  "the integrand has not decayed by the truncation")


def integrate_c(g, domain: str, a=0.0) -> complex:
    """Integrate g over c in [0,1] or t in [0,inf) (paneled, truncated).

    [0, 1] takes the 64-node rule of `_c_rule`, and the half line the rule
    that `_c_rule` sets for an integrand of exponent a on its first rung,
    the one `bulk_strong` sums on at its a for a pair with |x1 - x2| <= 8:
    at a = 0 truncated at 50, 144 nodes on [0, 48.75] and 16 on its final
    panel.  The final panel must be negligible or the integrand is flagged as
    non-decaying (TailDivergenceError), and a rule past _HALF_LINE_CAP
    nodes is refused (OutOfRangeError).
    An integrand that is not finite at a node, such as an underflowed factor
    times an overflowed one, or a sum that overflows, raises OutOfRangeError
    rather than return nan.  g sees the nodes as one flat array, the same
    read-only array on every call with the same rule.
    """
    rule = _c_rule(domain, a)
    c, w = _gauss_rule(*rule)
    terms = w * np.asarray(g(c), dtype=complex)
    total = complex(terms.sum())
    if domain == HALF_LINE:
        _check_tail(abs(terms[-rule[-1]:].sum()), abs(total))
    # the weights are positive, so a value that is not finite at any node
    # leaves the sum not finite; checking the sum is the cheaper test
    if not cmath.isfinite(total):
        raise OutOfRangeError("integrand leaves the double range at a quadrature node")
    return total
