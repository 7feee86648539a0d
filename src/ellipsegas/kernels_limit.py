"""Limiting kernels: weak/strong non-Hermitian bulk and edge, sine, Bessel,
Ginibre, truncated-unitary edge, and the global Joukowsky-series kernels.

Square roots of the edge variables follow the principal branch with
Re sqrt(Z) >= 0.  Every kernel depends on sqrt(Z) only through even
combinations (J_nu(c sqrt(Z)) (sqrt(Z))^{-nu} is entire in Z), so the branch
choice drops out; `_edge_weak_with_roots` exposes the root explicitly so the
flip invariance is testable.

The weak edge kernels and the Bessel kernel integrate products of two node
functions, one per root: J_nu(c w) (c w)^-nu (`_phi`), sin(c w)/w or
cos(c w), at the nodes c of the c-rule.  Each such table is kept per root by
`specialfns._per_root`, 16 tables of about 1 kB on the default 64-node rule,
keyed on the root's bits.  The node functions have real coefficients, so the
table at sqrt(conj Z) is the conjugate of the table at sqrt(Z): K(z1,z1),
K(z1,z2), K(z2,z1) and K(z2,z2) build two tables, one per point, instead of
eight.  The power c^(2a+2) is kept per (a, rule) by `_node_power`, and the
Bessel ratio per (a, s, rule) by `_node_log_ratio`.  Every kept array is
read-only, and a kernel value reads the same bits as one from tables built
afresh.
"""

from __future__ import annotations

import cmath
import functools
import math
import sys
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DomainError, OutOfRangeError, SingularPointError
from .geometry import (_PARAMETERS, EllipseGeometry, _check, _exp_in_range, _log_power,
                       bulk_domain_contains, edge_domain_contains, joukowsky_inverse)
from .quadrature import (HALF_LINE, UNIT_INTERVAL, QuadratureSpec, _c_rule, _gauss_rule,
                         integrate_c)
from .specialfns import W_MAX, _per_root, _phi, ln_gamma, log_i_ratio

_DEFAULT = QuadratureSpec()
# |beta| up to which edge_strong always sums the series of gamma_low(s, beta)
_GAMMA_SERIES_MAX = 5.0


@functools.lru_cache(maxsize=64)
def _node_log_ratio(nu: float, s: float, rule: tuple) -> np.ndarray:
    """Read-only log_i_ratio(nu, c s) at the nodes c of `_gauss_rule(*rule)`;
    each is 0.5-5 kB."""
    lr = log_i_ratio(nu, _gauss_rule(*rule)[0] * s)
    lr.flags.writeable = False
    return lr


@functools.lru_cache(maxsize=64)
def _node_power(a: float, rule: tuple) -> np.ndarray:
    """Read-only c^(2a+2) at the nodes c of `_gauss_rule(*rule)`, the power
    of the edge and Bessel kernels' integrands."""
    p = _gauss_rule(*rule)[0] ** (2.0 * a + 2.0)
    p.flags.writeable = False
    return p


def _ratio_integral(a: float, s: float, walls, f, spec, log_factor: float = 0.0,
                    domain: str = UNIT_INTERVAL, **half_line) -> complex:
    """The shared form of the deformed sine and Bessel kernels:

        exp(log_factor) / (s pi^{3/2} Gamma(a+1)) * prod_q q^{a/2}
            * int dc (cs/2)^{a+1/2} / I_{a+1/2}(cs) f(c),

    over `domain`, c in [0,1] by default; `half_line` carries the truncation
    and panel of `integrate_c` for the half line.  A wall factor q <= 0 takes the
    hard-wall limit: the kernel is 0 for a > 0 and, for a < 0, an integrable
    divergence flagged as inf.  A half-line rule past its node cap is refused
    first, whatever the walls, and a value below the normal doubles after.
    """
    _check("a", a)
    spec = spec or _DEFAULT
    lr = _node_log_ratio(a + 0.5, s, _c_rule(domain, spec, **half_line))
    lpref = log_factor - math.log(s) - 1.5 * math.log(math.pi) - ln_gamma(a + 1)
    for q in walls:
        lpref += _log_power(0.5 * a, q)
    if lpref == -math.inf:
        return 0.0 + 0.0j
    if lpref == math.inf:
        return complex(math.inf, 0.0)

    def g(c):
        return np.exp(lr + lpref) * f(c)

    return _normal(complex(integrate_c(g, domain, spec, **half_line)))


def _normal(value, name: str = "kernel"):
    """value, or OutOfRangeError where its modulus is below the smallest
    normal double: a subnormal kernel value, or one summed from subnormal
    terms, has lost bits to the exponent range."""
    if abs(value) < sys.float_info.min:
        raise OutOfRangeError(f"{name} value {value!r} is below the normal double range")
    return value


def sine_kernel(x1: float, x2: float) -> float:
    """sin(x1-x2)/(pi (x1-x2)); the s -> 0 bulk limit.  DomainError for an x
    that is not finite; OutOfRangeError for a value below the normal doubles,
    as past |x1 - x2| = 1/(pi 2^-1022), where x1 - x2 may also overflow."""
    if not (math.isfinite(x1) and math.isfinite(x2)):
        raise DomainError(f"sine_kernel requires finite x, got {x1!r}, {x2!r}")
    d = x1 - x2
    if d == 0.0:
        return 1.0 / math.pi
    if math.isinf(d):
        raise OutOfRangeError("sine_kernel value is below the normal double range")
    return _normal(math.sin(d) / (math.pi * d), "sine_kernel")


def ginibre_kernel(u1: complex, u2: complex) -> complex:
    """(2/pi) exp(-|u1|^2 - |u2|^2 + 2 u1 conj(u2)).

    Written as exp(-|d|^2 + 2i Im(d conj m)), d = u1 - u2, m = (u1 + u2)/2,
    so the diagonal is 2/pi exactly, also where u1 conj u2 overflows, and
    swapping u1 and u2 conjugates the value exactly.  DomainError for a u
    that is not finite; OutOfRangeError for a phase past the double range.
    """
    u1, u2 = complex(u1), complex(u2)
    if not (cmath.isfinite(u1) and cmath.isfinite(u2)):
        raise DomainError(f"ginibre_kernel requires finite u, got {u1!r}, {u2!r}")
    d, m = u1 - u2, 0.5 * u1 + 0.5 * u2
    phase = 2.0 * (d.imag * m.real - d.real * m.imag)
    if not math.isfinite(phase):
        raise OutOfRangeError("ginibre_kernel phase 2 Im(u1 conj u2) leaves the double range")
    return 2.0 / math.pi * cmath.exp(complex(-(d.real * d.real + d.imag * d.imag), phase))


def bulk_weak(a: float, s: float, z1: complex, z2: complex,
              spec: QuadratureSpec | None = None) -> complex:
    """Deformed sine kernel of the weak bulk limit at the origin.

    K(z1,z2) = (2/(s pi^{3/2} Gamma(a+1))) prod_j (1-4 yhat_j^2/s^2)^{a/2}
               * int_0^1 dc (cs/2)^{a+1/2}/I_{a+1/2}(cs) cos(c(z1 - conj z2)).
    """
    _check("s", s)
    z1, z2 = complex(z1), complex(z2)
    if not (bulk_domain_contains(s, z1) and bulk_domain_contains(s, z2)):
        raise DomainError("point outside the weak-bulk strip |Im z| <= s/2")
    d = z1 - z2.conjugate()
    walls = (1.0 - 4.0 * z1.imag ** 2 / s ** 2, 1.0 - 4.0 * z2.imag ** 2 / s ** 2)
    return _ratio_integral(a, s, walls, lambda c: np.cos(c * d), spec, math.log(2.0))


def bulk_strong(a: float, z1: complex, z2: complex,
                spec: QuadratureSpec | None = None) -> complex:
    """Strong non-Hermitian bulk kernel on the unit-width strip.

    The half-line integral int_0^infty dt (t/2)^{a+1/2}/I_{a+1/2}(t)
    cos(t(z1 - conj z2)) is truncated at max(50, 5(a+2)) where the integrand
    has decayed below machine relevance.  With the default spec that rule has
    16(a+2) nodes from a = 38 on, so past a = 1022 it exceeds the half-line
    node cap of `quadrature` and the kernel raises OutOfRangeError.
    """
    z1, z2 = complex(z1), complex(z2)
    if abs(z1.imag) > 0.5 or abs(z2.imag) > 0.5:
        raise DomainError("point outside the strong-bulk strip |Im z| <= 1/2")
    d = z1 - z2.conjugate()
    walls = (1.0 - 4.0 * z1.imag ** 2, 1.0 - 4.0 * z2.imag ** 2)
    T = max(50.0, 5.0 * (a + 2.0))
    return _ratio_integral(a, 1.0, walls, lambda t: np.cos(t * d), spec, math.log(2.0),
                           HALF_LINE, truncation=T, panel=min(5.0, max(1.0, T / 40.0)))


def _edge_points(s: float, Z1: complex, Z2: complex):
    """(Z1, Z2, sqrt Z1, sqrt conj Z2) of two points of the weak edge kernels;
    DomainError outside the parabolic edge domain."""
    _check("s", s)
    Z1, Z2 = complex(Z1), complex(Z2)
    if not (edge_domain_contains(s, Z1) and edge_domain_contains(s, Z2)
            and cmath.isfinite(Z1) and cmath.isfinite(Z2)):
        raise DomainError("point outside the parabolic edge domain")
    return Z1, Z2, np.sqrt(Z1), np.sqrt(np.conj(Z2))


@functools.lru_cache(maxsize=1024)
def _edge_wall(s: float, Z: complex) -> float:
    """The weak-edge wall factor q = s^2/4 + X - (Y/s)^2 at Z = X + iY,
    correctly rounded.  Its terms cancel near the wall q = 0, and a root of Z
    carries the same rounding, so q is summed exactly over the integers:
    each double is an integer over a power of two.  That takes 2-3 us, so
    the factor of each point is kept for the kernel's other calls there."""
    a, b = s.as_integer_ratio()
    c, d = Z.real.as_integer_ratio()
    e, f = Z.imag.as_integer_ratio()
    aa, bb, ff = a * a, b * b, f * f
    # over the common denominator 4 a^2 b^2 d f^2
    return ((aa * d + 4 * c * bb) * aa * ff - 4 * e * e * bb * bb * d) / (4 * aa * bb * d * ff)


def _edge_weak_with_roots(a: float, s: float, Z1: complex, Z2: complex,
                          w1: complex, w2: complex,
                          spec: QuadratureSpec | None = None) -> complex:
    nu = a + 0.5
    walls = [_edge_wall(s, Z) for Z in (Z1, Z2)]
    rule = _c_rule(UNIT_INTERVAL, spec or _DEFAULT)

    def f(c):       # the tables are at the nodes c of `rule`
        return _node_power(a, rule) * _phi(nu, rule, w1) * _phi(nu, rule, w2)

    return _ratio_integral(a, s, walls, f, spec, math.log(math.pi / 2.0))


def edge_weak(a: float, s: float, Z1: complex, Z2: complex,
              spec: QuadratureSpec | None = None) -> complex:
    """Deformed Bessel kernel of the weak edge limit at the +1 focus."""
    return _edge_weak_with_roots(a, s, *_edge_points(s, Z1, Z2), spec)


def bessel_kernel(a: float, X1: float, X2: float,
                  spec: QuadratureSpec | None = None) -> float:
    """Hard-edge Bessel kernel
    (1/4)(X1 X2)^{-1/4} int_0^1 c J_nu(c sqrt X1) J_nu(c sqrt X2) dc, nu = a + 1/2.

    Evaluated as (1/4)(X1 X2)^{a/2} int_0^1 c^{2a+2} phi(c sqrt X1) phi(c sqrt X2) dc
    with the entire phi(u) = J_nu(u) u^{-nu}, which also holds on X = 0: there
    the kernel is 0 for a > 0, its continuous limit for a = 0 and, for a < 0,
    an integrable divergence flagged as inf.  Refused past X = W_MAX^2: the
    integrand oscillates at frequency sqrt(X1) + sqrt(X2) on [0,1], beyond
    what the c-nodes resolve; refused too where the integral or the value
    falls below the normal doubles.
    """
    if X1 < 0 or X2 < 0:
        raise DomainError("bessel_kernel requires X >= 0")
    if max(X1, X2) > W_MAX ** 2:
        raise OutOfRangeError(f"bessel_kernel requires X <= W_MAX^2 = {W_MAX ** 2:g}")
    _check("a", a)
    lpref = _log_power(0.5 * a, X1) + _log_power(0.5 * a, X2)
    if lpref == math.inf:
        return math.inf
    if lpref == -math.inf:
        return 0.0
    spec = spec or _DEFAULT
    rule = _c_rule(UNIT_INTERVAL, spec)
    val = integrate_c(lambda c: _node_power(a, rule) * _phi(a + 0.5, rule, math.sqrt(X1))
                      * _phi(a + 0.5, rule, math.sqrt(X2)), UNIT_INTERVAL, spec)
    return _normal(0.25 * math.exp(lpref) * _normal(val.real))


def edge_strong(a: float, Z1: complex, Z2: complex) -> complex:
    """Strong edge kernel on the right half plane (closed form).

    (X1 X2)^{a/2}/(4 pi Gamma(a+1)) * gamma_low(a+2, beta)/beta^{a+2} with
    beta = (X1+X2)/2 + i (Y1-Y2)/2; matches the truncated-unitary edge.
    Where the gamma ratio falls below the normal doubles and the prefactor
    does not, their product is not known and OutOfRangeError is raised: at
    a = 0.5 and X1 = X2 = X the ratio is in range up to X ~ 1e120, the value
    (a+1)/(4 pi X^2) up to X ~ 1e150.  So is |beta| past 2^1022.
    """
    Z1, Z2 = complex(Z1), complex(Z2)
    if not (Z1.real >= 0 and Z2.real >= 0 and cmath.isfinite(Z1) and cmath.isfinite(Z2)):
        raise DomainError("edge_strong requires finite Z with X >= 0")
    _check("a", a)
    lpref = (_log_power(0.5 * a, Z1.real) + _log_power(0.5 * a, Z2.real)
             - math.log(4.0 * math.pi) - ln_gamma(a + 1))
    if lpref == math.inf:
        return complex(math.inf, 0.0)   # integrable hard-edge divergence, flagged
    pref = _exp_in_range(lpref)
    beta = complex(0.5 * Z1.real + 0.5 * Z2.real, 0.5 * Z1.imag - 0.5 * Z2.imag)
    if abs(beta) < 1e-14:
        return pref / (a + 2.0)
    if abs(beta) > 2.0 ** 1022:     # the continued fraction's 1/beta would be subnormal
        raise OutOfRangeError(f"edge_strong needs |beta| <= 2^1022, got {abs(beta):.6g}")
    ratio = _lower_gamma_ratio(a + 2.0, beta)
    if pref and abs(ratio) < sys.float_info.min:
        raise OutOfRangeError(f"edge_strong gamma ratio {ratio!r} at |beta| = {abs(beta):.6g} "
                              f"is below the normal double range")
    return pref * ratio


def _lower_gamma_ratio(s: float, z: complex) -> complex:
    """gamma_low(s, z) / z^s, Re z >= 0, by the ascending series, or by
    Gamma(s) z^-s - Gamma(s, z) z^-s with Gamma(s, z) from its continued
    fraction (DLMF 8.9.2) where the series cancels or overflows.

    Off the real axis the series' partial sums grow like e^|z| while the
    value goes like e^-Re z |z|^-1: up to 2e-13 relative off at |z| = 10 and 220%
    at 40.  The fraction form loses eps (log Gamma(s) + s log|z|) to its
    exponentials instead.  So past |z| = max(_GAMMA_SERIES_MAX, s + 1), where
    the fraction converges fast, it takes over where e^(|z| - Re z) is the
    larger loss, where e^-z underflows, or where a partial sum overflows.
    """
    r = abs(z)
    if r > max(_GAMMA_SERIES_MAX, s + 1.0) and (
            z.real > 700.0 or r - z.real > math.log(1.0 + ln_gamma(s) + s * math.log(r))):
        return _lower_gamma_ratio_cf(s, z)
    term = 1.0 / s
    total = term
    k = 1
    while True:
        term *= z / (s + k)
        total += term
        if not abs(total) < math.inf:       # inf, or nan from inf - inf
            return _lower_gamma_ratio_cf(s, z)
        if abs(term) < 1e-17 * abs(total):
            break
        k += 1
        if k > 100_000:
            raise RuntimeError("incomplete gamma series did not converge")
    return total * np.exp(-z)


def _lower_gamma_ratio_cf(s: float, z: complex) -> complex:
    """Gamma(s) z^-s - e^-z h, h = e^z z^-s Gamma(s, z) by the modified Lentz
    method on 1/(z+1-s- 1(1-s)/(z+3-s- 2(2-s)/(z+5-s- ...)))."""
    tiny = 1e-300
    b = z + 1.0 - s
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, 100_000):
        an = -i * (i - s)
        b += 2.0
        d = an * d + b
        d = 1.0 / (d if abs(d) > tiny else tiny)
        c = b + an / c
        c = c if abs(c) > tiny else tiny
        step = d * c
        h *= step
        if abs(step - 1.0) < 1e-16:
            return cmath.exp(ln_gamma(s) - s * cmath.log(z)) - cmath.exp(-z) * h
    raise RuntimeError("incomplete gamma continued fraction did not converge")


def _left_focus_walls(s: float, Z1: complex, Z2: complex, w1: complex, w2: complex):
    """1 - 2 (|Z| - X)/s^2 at two edge points Z with roots w, which is
    q / (s^2/4 + (Re w)^2) for the weak-edge wall factor q of Z."""
    return [_edge_wall(s, Z) / (s * s / 4.0 + w.real ** 2) for Z, w in ((Z1, w1), (Z2, w2))]


def _sinc_nodes(rule: tuple, w: complex) -> np.ndarray:
    """sin(c w)/w at the nodes c of `_gauss_rule(*rule)`; c at w = 0."""
    c = _gauss_rule(*rule)[0]
    if w == 0:
        return c + 0j * c
    return np.sin(c * w) / w


def _cos_nodes(rule: tuple, w: complex) -> np.ndarray:
    """cos(c w) at the nodes c of `_gauss_rule(*rule)`."""
    return np.cos(_gauss_rule(*rule)[0] * w)


def edge_weak_minus_sine(a: float, s: float, Z1: complex, Z2: complex,
                         spec: QuadratureSpec | None = None) -> complex:
    """Left-focus weak edge kernel of the (a+1/2, +1/2) Jacobi gas.

    Sine-type integrand: the J_{1/2} pair collapses to sin(c sqrt(Z))/sqrt(Z),
    kept per root by `_per_root`.
    """
    Z1, Z2, w1, w2 = _edge_points(s, Z1, Z2)
    rule = _c_rule(UNIT_INTERVAL, spec or _DEFAULT)
    return _ratio_integral(a, s, _left_focus_walls(s, Z1, Z2, w1, w2),
                           lambda c: _per_root(_sinc_nodes, rule, w1)
                           * _per_root(_sinc_nodes, rule, w2), spec)


def edge_weak_minus_cosine(a: float, s: float, Z1: complex, Z2: complex,
                           spec: QuadratureSpec | None = None) -> complex:
    """Left-focus weak edge kernel of the (a+1/2, -1/2) Jacobi gas
    (cosine-type); also the Chebyshev-I edge kernel at a = 0.  cos(c sqrt(Z))
    is kept per root by `_per_root`."""
    Z1, Z2, w1, w2 = _edge_points(s, Z1, Z2)
    if Z1 == 0 or Z2 == 0:
        raise SingularPointError("cosine edge kernel diverges at the focus Z = 0")
    rule = _c_rule(UNIT_INTERVAL, spec or _DEFAULT)
    return _ratio_integral(a, s, _left_focus_walls(s, Z1, Z2, w1, w2),
                           lambda c: _per_root(_cos_nodes, rule, w1)
                           * _per_root(_cos_nodes, rule, w2), spec,
                           -0.5 * (math.log(abs(Z1)) + math.log(abs(Z2))))


def bulk_from_edge_check(a: float, s: float, kappa: float, z1: complex, z2: complex,
                         h: float, spec: QuadratureSpec | None = None):
    """Pair (4h * edge_weak at Z = kappa h - 2 sqrt(h) zhat, closed bulk form).

    The caller asserts closeness; at kappa = 1 the closed form is bulk_weak.
    The edge integrand oscillates at frequency ~ sqrt(kappa h), so spec.c_nodes
    must grow with sqrt(h).
    """
    _check("s", s)
    if kappa <= 0 or h <= 0:
        raise DomainError("kappa and h must be positive")
    z1, z2 = complex(z1), complex(z2)
    if z1.imag ** 2 > kappa * s * s / 4.0 or z2.imag ** 2 > kappa * s * s / 4.0:
        raise DomainError("point outside the kappa-scaled bulk strip")
    Z1 = kappa * h - 2.0 * math.sqrt(h) * z1
    Z2 = kappa * h - 2.0 * math.sqrt(h) * z2
    first = 4.0 * h * edge_weak(a, s, Z1, Z2, spec)
    d = (z1 - z2.conjugate()) / math.sqrt(kappa)
    walls = (kappa - 4 * z1.imag ** 2 / s ** 2, kappa - 4 * z2.imag ** 2 / s ** 2)
    second = _ratio_integral(a, s, walls, lambda c: np.cos(c * d), spec,
                             math.log(2.0) - (a + 1.0) * math.log(kappa))
    return first, second


# ---------------------------------------------------------------------------
# global (Joukowsky-series) kernels
# ---------------------------------------------------------------------------

_SERIES_TOL = 1e-15
_SERIES_CAP = 500


def _interior_omega(geometry: EllipseGeometry, z: complex):
    """(zeta, omega) for a rescaled global point z, zeta = z/sqrt(2 tau);
    requires 1 <= |omega| < v.

    The series extends continuously onto the open branch cut (|omega| = 1
    with Im omega >= 0); only the degenerate focal points omega = +-1, where
    the Joukowsky frame collapses, are rejected.
    """
    zeta = complex(z) / math.sqrt(2.0 * geometry.tau)
    om = joukowsky_inverse(zeta)
    if abs(om) >= geometry.v:
        raise DomainError(f"point {z} is outside the open rescaled ellipse")
    if abs(om * om - 1.0) < 1e-13:
        raise DomainError(f"point {z} sits at a focus of the rescaled ellipse")
    return zeta, om


def _series_frame(tau: float, z1: complex, z2: complex, decay: int):
    """(v, zeta_1, zeta_2, omega_1, conj omega_2, p) for a global kernel, with
    p_j = e_j^{decay/2}, e_j = v^{-(1+2j)}, the powers of its image sum.

    The j-th series term shrinks like v^{-decay j}; p holds as many terms as
    that takes to fall below _SERIES_TOL.  Past _SERIES_CAP terms (tau close
    to 1) the sum is refused rather than truncated.
    """
    geo = EllipseGeometry(tau)
    (zeta1, o1), (zeta2, o2) = (_interior_omega(geo, z) for z in (z1, z2))
    v = geo.v
    terms = math.ceil(math.log(1.0 / _SERIES_TOL) / (decay * math.log(v))) + 1
    if terms > _SERIES_CAP:
        raise OutOfRangeError(f"the tau={tau} global series needs {terms} terms, "
                              f"more than {_SERIES_CAP}")
    e = v ** -(1.0 + 2.0 * np.arange(terms))
    return v, zeta1, zeta2, o1, np.conj(o2), e ** (decay // 2)


def _images(p, x1: complex, x2: complex, sign: float) -> complex:
    """The Joukowsky image sum of every global kernel,

        sum_j S(p_j x1 x2) + sign S(p_j x1/x2) + sign S(p_j x2/x1) + S(p_j/(x1 x2)),

    with S(q) = q/(1-q)^2, evaluated as one S over a [4, terms] array."""
    q = np.outer((x1, x1, x2, 1.0), p)
    q[0] *= x2
    q[1:] /= [[x2], [x1], [x1 * x2]]
    return np.sum(np.sum([[1.0], [sign], [sign], [1.0]] * (q / (1.0 - q) ** 2), axis=0))


def global_kernel_u(tau: float, z1: complex, z2: complex) -> complex:
    """Global kernel of the flat (a=0, Chebyshev-U) gas, rescaled coordinates."""
    _, _, _, o1, o2, eta = _series_frame(tau, z1, z2, 4)
    tot = _images(eta, o1, o2, -1.0)
    return complex(2.0 / (math.pi * tau) * tot / ((o1 - 1.0 / o1) * (o2 - 1.0 / o2)))


def global_kernel_t(tau: float, z1: complex, z2: complex) -> complex:
    """Global kernel of the Chebyshev-I gas (weight 1/|1-z^2|), rescaled
    coordinates; includes the 1/(2 log v) zero-mode term."""
    v, zeta1, zeta2, o1, o2, eta = _series_frame(tau, z1, z2, 4)
    pref = 1.0 / (2.0 * math.pi * tau) / math.sqrt(abs(1 - zeta1 ** 2) * abs(1 - zeta2 ** 2))
    return complex(pref * (_images(eta, o1, o2, 1.0) + 1.0 / (2.0 * math.log(v))))


def global_kernel_v(tau: float, z1: complex, z2: complex) -> complex:
    """Global kernel of the Chebyshev gas with weight 1/|1+z|, rescaled
    coordinates.

    Built from V_n(zeta) = (r^{2n+1} - r^{-2n-1})/(r - 1/r) with r the
    principal sqrt of omega; all half-integer powers below use these fixed
    roots, which keeps the series single-valued and Hermitian.  Each term is
    sqrt(q) G(q), G(q) = (1+q)/(1-q)^2, at sqrt(q) = e_j r1^{+-1} r2^{+-1} with
    e_j = v^{-(1+2j)}; since sqrt(q) G(q) = [S(sqrt q) - S(-sqrt q)]/2, the
    series is half the difference of the image sums over e and -e.  Its
    terms shrink like v^{-2j} only: G(q) -> 1 leaves the factor e_j.
    """
    _, zeta1, zeta2, o1, o2c, e = _series_frame(tau, z1, z2, 2)
    r1, r2 = np.sqrt(o1), np.conj(np.sqrt(np.conj(o2c)))
    tot = 0.5 * (_images(e, r1, r2, -1.0) - _images(-e, r1, r2, -1.0))
    pref = 1.0 / (2.0 * math.pi * tau) / math.sqrt(abs(1 + zeta1) * abs(1 + zeta2))
    return complex(pref * tot / ((r1 - 1.0 / r1) * (r2 - 1.0 / r2)))


def global_kernel(kind: LimitKind | str, tau: float, z1: complex, z2: complex) -> complex:
    """Dispatch to one of the three global kernels by kind."""
    name, params, _, _ = _KERNELS[LimitKind(kind)]
    if params != ("tau",):
        raise DomainError(f"{kind} is not a global kernel kind")
    return globals()[name](tau, z1, z2)


def global_rot_u(z1: complex, z2: complex) -> complex:
    """tau -> 0 limit of the flat-gas global kernel: 1/(pi (1 - z1 conj z2)^2)."""
    if not (abs(z1) < 1 and abs(z2) < 1):
        raise DomainError("rotational global kernel requires |z| < 1")
    return 1.0 / (math.pi * (1.0 - z1 * np.conj(z2)) ** 2)


def global_rot_t(z1: complex, z2: complex) -> complex:
    if not (0 < abs(z1) < 1 and 0 < abs(z2) < 1):
        raise DomainError("rotational Chebyshev-I kernel requires 0 < |z| < 1")
    q = z1 * np.conj(z2)
    return q / (math.pi * abs(z1) * abs(z2) * (1.0 - q) ** 2)


def global_rot_v(z1: complex, z2: complex) -> complex:
    if not (0 < abs(z1) < 1 and 0 < abs(z2) < 1):
        raise DomainError("rotational 1/|1+z| kernel requires 0 < |z| < 1")
    q = z1 * np.conj(z2)
    return (1.0 + q) / (2.0 * math.pi * math.sqrt(abs(z1) * abs(z2)) * (1.0 - q) ** 2)


# ---------------------------------------------------------------------------
# kernel factory
# ---------------------------------------------------------------------------

class LimitKind(Enum):
    BULK_WEAK = "bulk-weak"
    EDGE_WEAK = "edge-weak"
    EDGE_WEAK_MINUS_SINE = "edge-weak-minus-sine"
    EDGE_WEAK_MINUS_COSINE = "edge-weak-minus-cosine"
    BULK_STRONG = "bulk-strong"
    EDGE_STRONG = "edge-strong"
    SINE = "sine"
    BESSEL = "bessel"
    GINIBRE = "ginibre"
    GLOBAL_U = "global-u"
    GLOBAL_T = "global-t"
    GLOBAL_V = "global-v"
    GLOBAL_ROT_U = "global-rot-u"
    GLOBAL_ROT_T = "global-rot-t"
    GLOBAL_ROT_V = "global-rot-v"


# kind -> (kernel name, spec parameters it takes before (z1, z2), whether
# it takes a QuadratureSpec, whether it takes real points; make_kernel passes
# those the real parts of z1, z2).  Kernels are looked up by name so that a
# module attribute swapped in later (a wrapper, a patch) is the one called.
_KERNELS = {
    LimitKind.BULK_WEAK: ("bulk_weak", ("a", "s"), True, False),
    LimitKind.EDGE_WEAK: ("edge_weak", ("a", "s"), True, False),
    LimitKind.EDGE_WEAK_MINUS_SINE: ("edge_weak_minus_sine", ("a", "s"), True, False),
    LimitKind.EDGE_WEAK_MINUS_COSINE: ("edge_weak_minus_cosine", ("a", "s"), True, False),
    LimitKind.BULK_STRONG: ("bulk_strong", ("a",), True, False),
    LimitKind.EDGE_STRONG: ("edge_strong", ("a",), False, False),
    LimitKind.SINE: ("sine_kernel", (), False, True),
    LimitKind.BESSEL: ("bessel_kernel", ("a",), True, True),
    LimitKind.GINIBRE: ("ginibre_kernel", (), False, False),
    LimitKind.GLOBAL_U: ("global_kernel_u", ("tau",), False, False),
    LimitKind.GLOBAL_T: ("global_kernel_t", ("tau",), False, False),
    LimitKind.GLOBAL_V: ("global_kernel_v", ("tau",), False, False),
    LimitKind.GLOBAL_ROT_U: ("global_rot_u", (), False, False),
    LimitKind.GLOBAL_ROT_T: ("global_rot_t", (), False, False),
    LimitKind.GLOBAL_ROT_V: ("global_rot_v", (), False, False),
}


@dataclass(frozen=True)
class LimitKernelSpec:
    """Which limiting kernel, plus its parameters."""

    kind: LimitKind
    a: float | None = None
    s: float | None = None
    tau: float | None = None

    def __post_init__(self):
        for p in _KERNELS[self.kind][1]:
            valid, need = _PARAMETERS[p]
            if getattr(self, p) is None or not valid(getattr(self, p)):
                raise DomainError(f"{self.kind.value} needs {need}")


def make_kernel(spec: LimitKernelSpec, quad: QuadratureSpec | None = None):
    """An evaluable K(z1, z2) for any limiting-kernel spec."""
    name, params, quadrature, real = _KERNELS[spec.kind]
    kernel = functools.partial(globals()[name], *(getattr(spec, p) for p in params))
    if quadrature:
        kernel = functools.partial(kernel, spec=quad)
    if real:
        return lambda z1, z2: kernel(complex(z1).real, complex(z2).real)
    return kernel
