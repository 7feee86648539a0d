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
[0, inf) are set in one place, `_c_rule`: the half line of an integrand of
exponent a is truncated at T = max(50, 5(a+2)), in panels of
min(5, max(1, T/40)), for `bulk_strong` at its a and for `integrate_c` at
a = 0.  The Gauss-Jacobi rules, and the
Legendre rules of `integrate_c`, run no recurrence of their own:
`_jacobi_rule` takes the Jacobi coefficients and the block core, with its
rescale window, from `polynomials`.  Summation order is fixed (numpy
pairwise over a frozen node ordering), making results independent of any
data-parallel evaluation.
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
# nodes of a half-line rule past which it is refused, which bulk_strong
# reaches past a = 1022.  It no longer guards a slow path: on a 2-vCPU VM a
# first bulk_strong call takes 0.013 s on 9,632 nodes (a = 600) and 0.008 s
# on 16,032 (a = 1000), and log_i_ratio 0.017 s on the 48,032 of a = 3000,
# where the per-node series it replaced took 0.39 s, 0.37 s and 31 s; the
# kernel's values past a = 1022 are unchecked, so the refusal stays
_HALF_LINE_CAP = 2 ** 14


@dataclass(frozen=True)
class QuadratureSpec:
    radial_nodes: int = 96
    angular_nodes: int = 128
    c_nodes: int = 64

    def __post_init__(self):
        if min(self.radial_nodes, self.angular_nodes, self.c_nodes) < 4:
            raise DomainError("all node counts must be >= 4")


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
    params (truncation, panel): the max(16, n // 4)-node Legendre rule on
    each panel of [0, truncation], nodes as one flat array and weights as
    [panels, nodes]; OutOfRangeError, before it is built, past
    _HALF_LINE_CAP nodes.
    """
    if kind == "legendre":
        return _read_only(*_jacobi_rule(n, 0.0, 0.0))
    if kind == "jacobi":
        return _read_only(*_jacobi_rule(n, *params))
    if kind == UNIT_INTERVAL:
        x, w = _gauss_rule("legendre", n)
        return _read_only((x + 1.0) / 2.0, w / 2.0)
    truncation, panel = params
    x, w = _gauss_rule("legendre", max(16, n // 4))
    if not truncation / panel * x.size <= _HALF_LINE_CAP:
        raise OutOfRangeError(f"the half-line rule needs more than {_HALF_LINE_CAP} nodes")
    edges = [0.0]
    while edges[-1] < truncation:
        edges.append(min(edges[-1] + panel, truncation))
    t0, t1 = np.array(edges[:-1]), np.array(edges[1:])
    tm, th = (t0 + t1) / 2.0, (t1 - t0) / 2.0
    return _read_only((tm[:, None] + th[:, None] * x).ravel(), np.outer(th, w))


def _c_rule(domain: str, spec: QuadratureSpec, a: float = 0.0,
            truncation: float | None = None, panel: float | None = None) -> tuple:
    """The `_gauss_rule` arguments of the c-rule on `domain`, the one place
    that sets the half-line rule: the half line [0, inf) of an integrand of
    exponent a, which peaks near t = a, is truncated at T = max(50, 5(a+2))
    and cut into panels of min(5, max(1, T/40)), or of the truncation and
    panel given."""
    if domain == UNIT_INTERVAL:
        return UNIT_INTERVAL, spec.c_nodes
    if domain != HALF_LINE:
        raise DomainError(f"unknown domain {domain!r}")
    T = truncation or max(50.0, 5.0 * (a + 2.0))
    return HALF_LINE, spec.c_nodes, T, panel or min(5.0, max(1.0, T / 40.0))


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
                                  "increase truncation or check integrand decay")


def integrate_c(g, domain: str, spec: QuadratureSpec, truncation: float | None = None,
                panel: float | None = None) -> complex:
    """Integrate g over c in [0,1] or t in [0,inf) (paneled, truncated).

    The half line takes the rule of `_c_rule` at a = 0, truncated at 50 in
    panels of 1.25, or at the truncation and in the panels given; the final
    panel must be negligible or the integrand is flagged as non-decaying.
    An integrand that is not finite at a node, such as an underflowed factor
    times an overflowed one, or a sum that overflows, raises OutOfRangeError
    rather than return nan.  g sees the nodes as one flat array, the same
    read-only array on every call with the same rule.
    """
    c, w = _gauss_rule(*_c_rule(domain, spec, 0.0, truncation, panel))
    vals = np.asarray(g(c), dtype=complex)
    if domain == UNIT_INTERVAL:
        total = complex((w * vals).sum())
    else:
        # one composite rule, weights [panels, nodes]
        parts = (w * vals.reshape(w.shape)).sum(axis=1).tolist()
        total = 0.0 + 0.0j
        for part in parts:
            total += part
        _check_tail(abs(parts[-1]), abs(total))
    # the weights are positive, so a value that is not finite at any node
    # leaves the sum not finite; checking the sum is the cheaper test
    if not cmath.isfinite(total):
        raise OutOfRangeError("integrand leaves the double range at a quadrature node")
    return total
