"""Limiting kernels: weak/strong non-Hermitian bulk and edge, sine, Bessel,
Ginibre, truncated-unitary edge, and the global Joukowsky-series kernels.

Square roots of the edge variables follow the principal branch with
Re sqrt(Z) >= 0.  Every kernel depends on sqrt(Z) only through even
combinations (J_nu(c sqrt(Z)) (sqrt(Z))^{-nu} is entire in Z), so the branch
choice drops out.

The deformed sine and Bessel kernels on c in [0,1] -- `bulk_weak`,
`edge_weak`, `edge_weak_minus_sine`, `edge_weak_minus_cosine` and
`bessel_kernel` -- and `bulk_strong`, on the panels of its half line, are sums
over the nodes c_i of their rule of a product of two node functions, one per
point:

    K(z1, z2) = e^(l(z1) + l(z2)) 2^(k(z1) + k(z2)) sum_i F_i(z1) conj F_i(z2),
    F_i(z) 2^k(z) = sqrt(W_i G(c_i)) u(c_i, z),

with W the rule's weights, G the kernel's weight in c, l the point's log
wall factor (the cosine kernel's also holds -log|Z|/2, the Bessel kernel's
-log 2) and k an exact power of two that keeps F of modest size at any a.
The node functions u are [e^(icz), e^(-icz)]/sqrt 2 for the bulk, whose
cos(c(z1 - conj z2)) is their product, with F formed in log space as
exp(log sqrt(W G/2) -+ c y +- i c x), one complex exp per entry: cos(cz)
alone overflows past |Im z| of about 710 where F does not; J_nu(c w)
(c w)^-nu for `edge_weak` and `bessel_kernel`, as psi(c w) (`_phi`) times
phi(0) = m 2^k (`_phi_zero`); sin(c w)/w and cos(c w), w = sqrt(Z), for the
left-focus kernels.  Only the phi features and the bulk features near the
wall, whose exponents are then lowered by whole powers of two, have k != 0.
sqrt(W G), or its log for the bulk, is kept per (a, s, rule) by `_weights`,
and each point's (F, l, k) by `_feature`, in one LRU cache of
_FEATURES = 64 entries keyed on the kernel, a, s, the rule and the point's
bits, signed zeros apart: 0.5-2 kB each, at most 128 kB, on the default
64-node rule.  The half-line features of `bulk_strong` are 20 kB on the
default 640-node rule and up to 512 KiB at the rule's node cap, so they
have their own LRU cache of _HALF_LINE_FEATURES = 6 entries, at most
3 MiB.  One call is two lookups, three real dot products, one exp and
one ldexp per part, by 2^(k1 + k2) and, where e^(l1 + l2) is not a normal
double, its power of two:
Re K = (Re F1, Im F1) . (Re F2, Im F2), the parts interleaved, and
Im K = Im F1 . Re F2 - Re F1 . Im F2, so K(z,z) is real and
K(z2,z1) = conj K(z1,z2) bit for bit.  A value is refused only where it, or
the product of the features, is outside the normal doubles.  On the half
line the same product over the last panel's nodes is the tail that
`quadrature._check_tail` tests against the whole.  The bulk's products
cancel at most down to sqrt(K(z1,z1) K(z2,z2)).  Every kept array is
read-only, and a value reads the same bits as one from features built
afresh.
"""

from __future__ import annotations

import cmath
import functools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, OutOfRangeError, SingularPointError
from .geometry import (KERNEL_KINDS, EllipseGeometry, LimitKind, _check, _check_point,
                       _kernel_of, _kind_arguments, _log_power, _times_exp, joukowsky_inverse)
from .quadrature import HALF_LINE, UNIT_INTERVAL, QuadratureSpec, _c_rule, _check_tail, _gauss_rule
from .specialfns import (_LN2, _LOG_MAX, _LOG_TINY, W_MAX, _phi, _phi_zero, _read_only, ln_gamma,
                         log_i_ratio)

_DEFAULT = QuadratureSpec()
# |beta| up to which edge_strong always sums the series of gamma_low(s, beta)
_GAMMA_SERIES_MAX = 5.0
# per-point features kept by `_feature`, 0.5-2 kB each on the default rule;
# a pair of points reads two
_FEATURES = 64
# per-point half-line features kept by `_half_line_feature`: 20 kB each on the
# default 640-node rule, 512 KiB at the node cap of `quadrature`
_HALF_LINE_FEATURES = 6


@functools.lru_cache(maxsize=64)
def _weights(a: float, s: float | None, rule: tuple, form: str) -> np.ndarray:
    """Read-only weights at the nodes c of `_gauss_rule(*rule)`, W its
    weights, of the deformed kernels' weight in c,

        G(c) = (cs/2)^{a+1/2} / (s pi^{3/2} Gamma(a+1) I_{a+1/2}(cs)):

    form "log" gives log sqrt(W G), the bulk's, whose G leaves the doubles
    at large s (0.5-128 kB, s = 1 on the strong bulk's half line); "sqrt"
    gives sqrt(W G), the left-focus kernels'; "phi" gives
    sqrt(W c^(2a+2) G pi/2), `edge_weak`'s, and without s sqrt(W c^(2a+2)),
    `bessel_kernel`'s.  W c^(2a+2) is one product under the root, which
    keeps bessel_kernel(83, 1000, 1000) 5e-15 off the 40-digit sum of its
    rule, where sqrt(W) c^(a+1) is 2.5e-14 off.  DomainError for an a
    outside its rule, before the rule is built."""
    _check("a", a)
    c, w = _gauss_rule(*rule)
    w = w.ravel() * c ** (2.0 * a + 2.0) if form == "phi" else w.ravel()
    if s is None:
        return _read_only(np.sqrt(w))
    log_g = log_i_ratio(a + 0.5, c * s)
    const = ((math.log(math.pi / 2.0) if form == "phi" else 0.0) - math.log(s)
             - 1.5 * math.log(math.pi) - ln_gamma(a + 1))
    return _read_only(0.5 * (np.log(w) + log_g + const) if form == "log"
                      else np.sqrt(w * np.exp(log_g + const)))


# the feature kernels: a point function takes (kind, a, s, z), checks s and
# z, the point by the kind's row, and gives (l, the argument of the node
# function); a node function gives F at the nodes of `rule` from
# (kind, a, s, rule, argument), after the check of a

def _bulk_point(kind: str, a: float, s: float, z: complex):
    _check("s", s)
    _check_point(kind, z, params=(s,))
    u = 2.0 * abs(z.imag) / s                  # in [0, 1]: squares neither s nor y
    return _log_power(0.5 * a, (1.0 - u) * (1.0 + u)), z


def _bulk_nodes(kind: str, a: float, s: float, rule: tuple, z: complex):
    """[exp(L + icz), exp(L - icz)] per node, L = log sqrt(W G) from
    `_weights`, each one complex exp of its exponent L -+ cy +- icx:
    sqrt(W G) and cos(cz) are not formed apart, so neither overflows where
    the feature does not.  Where a product of two features, or the sum of
    those of a value, could overflow, the exponents are first lowered by
    k ln2, k the whole number of ln2 in the largest, top = k ln2 + r
    (divmod, so r is exact), as L -+ cy - top + r, and k is returned with
    the node values; else k = 0.  The exponents' imaginary zeros are +0,
    whatever the sign of a zero part of z: the bulk has no branch cut.
    OutOfRangeError where c z passes the doubles at the rule's last node c,
    as it can on the half line."""
    log_weights = _weights(a, s, rule, "log")     # checks a before the rule is built
    c = _gauss_rule(*rule)[0]
    if not float(c[-1]) * max(abs(z.real), abs(z.imag)) < math.inf:
        raise OutOfRangeError(f"{kind} needs c z in the doubles at every node, got {z!r}")
    icz = c * complex(-z.imag, z.real)
    arg = np.empty((icz.size, 2), complex)
    np.add(log_weights, icz, out=arg[:, 0])
    np.subtract(log_weights, icz, out=arg[:, 1])
    top, k = arg.real.max(), 0
    if 2.0 * top + math.log(2 * arg.size) > _LOG_MAX:
        k, r = divmod(top, _LN2)
        arg.real -= top
        arg.real += r
    return np.exp(arg, out=arg), int(k)


def _edge_wall(s: float, Z: complex) -> float:
    """The weak-edge wall factor q = s^2/4 + X - (Y/s)^2 at Z = X + iY,
    correctly rounded.  Its terms cancel near the wall q = 0, and a root of Z
    carries the same rounding, so q is summed exactly over the integers:
    each double is an integer over a power of two.  That takes 2-3 us, once
    per point: the point's features keep the factor.  OutOfRangeError where
    q passes the largest double, as s^2/4 does from s of about 2.7e154."""
    a, b = s.as_integer_ratio()
    c, d = Z.real.as_integer_ratio()
    e, f = Z.imag.as_integer_ratio()
    aa, bb, ff = a * a, b * b, f * f
    # over the common denominator 4 a^2 b^2 d f^2
    try:
        return ((aa * d + 4 * c * bb) * aa * ff - 4 * e * e * bb * bb * d) / (4 * aa * bb * d * ff)
    except OverflowError:
        raise OutOfRangeError(f"the edge wall factor at s = {s:g} passes the doubles") from None


def _edge_point(kind: str, a: float, s: float, Z: complex):
    """The wall factor q and w = sqrt Z; DomainError outside the parabolic
    edge domain."""
    _check("s", s)
    _check_point(kind, Z, params=(s,))
    return _log_power(0.5 * a, _edge_wall(s, Z)), cmath.sqrt(Z)


def _phi_nodes(kind: str, a: float, s: float | None, rule: tuple, w):
    """phi(c w) of `edge_weak` and, without s, of `bessel_kernel`, as node
    values psi(c w) phi(0) 2^-k and k, phi(0) = m 2^k by `_phi_zero`: at any
    order the node values are of modest size."""
    weights = _weights(a, s, rule, "phi")      # checks a
    m, k = _phi_zero(a + 0.5)
    return weights * (_phi(a + 0.5, rule, w) * m), k


def _left_focus_point(kind: str, a: float, s: float, Z: complex):
    """The wall factor 1 - 2 (|Z| - X)/s^2, which is q / (s^2/4 + (Re w)^2)
    for the weak-edge wall factor q of Z and w = sqrt Z."""
    ell, w = _edge_point(kind, a, s, Z)
    return ell - _log_power(0.5 * a, s * s / 4.0 + w.real ** 2), w


def _sine_nodes(kind: str, a: float, s: float, rule: tuple, w: complex) -> np.ndarray:
    """sin(c w)/w, and c at w = 0."""
    c = _gauss_rule(*rule)[0]
    return _weights(a, s, rule, "sqrt") * (c + 0j * c if w == 0 else np.sin(c * w) / w), 0


def _cosine_point(kind: str, a: float, s: float, Z: complex):
    ell, w = _left_focus_point(kind, a, s, Z)
    if Z == 0:
        raise SingularPointError("cosine edge kernel diverges at the focus Z = 0")
    return ell - 0.5 * math.log(abs(Z)), w


def _cosine_nodes(kind: str, a: float, s: float, rule: tuple, w: complex):
    return _weights(a, s, rule, "sqrt") * np.cos(_gauss_rule(*rule)[0] * w), 0


def _bessel_point(kind: str, a: float, s: None, X: complex):
    """The wall factor and sqrt X of a point X + 0i that `bessel_kernel` has
    checked."""
    if X.real > W_MAX ** 2:
        raise OutOfRangeError(f"bessel_kernel requires X <= W_MAX^2 = {W_MAX ** 2:g}")
    return _log_power(0.5 * a, X.real) - _LN2, math.sqrt(X.real)


def _build_feature(kind: str, point, nodes, a: float, s: float | None, rule: tuple, z,
                   re_sign: float, im_sign: float):
    """(V, Re F, Im F, l, k) of one point of a kernel of `kind`, whose
    features are F 2^k: V, read-only, holds the parts of F interleaved, and
    the parts are its views.  The signs of the parts of z are in the key, so
    that 0.0 and -0.0, which are equal keys, stay apart.  A refusal raised
    here is never kept."""
    ell, arg = point(kind, a, s, z)
    values, k = nodes(kind, a, s, rule, arg)
    v = _read_only(np.ravel(values).view(float))
    return v, v[0::2], v[1::2], ell, k


_feature = functools.lru_cache(maxsize=_FEATURES)(_build_feature)
_half_line_feature = functools.lru_cache(maxsize=_HALF_LINE_FEATURES)(_build_feature)


def _feature_kernel(kind: str, point, nodes, a: float, s: float | None, z1, z2,
                    spec: QuadratureSpec | None, rule: tuple | None = None) -> complex:
    """e^(l1 + l2) 2^(k1 + k2) F1 . conj F2 from the kept features of z1 and
    z2, on the unit-interval c-rule of `spec` or on `rule`.  Where e^(l1 + l2)
    is not a normal double it is taken as 2^j e^r, j the whole number of ln2
    in l1 + l2 and r exact (divmod), and 2^(k1 + k2 + j) meets the product
    last, so only a value outside the normal doubles is refused.  On a half-line
    rule the product over the last panel's nodes is that panel's share,
    which must pass the tail test against the whole.  A product below the
    normal doubles has lost bits to the exponent range, and is refused like
    a value there."""
    rule, sign = rule or _c_rule(UNIT_INTERVAL, spec or _DEFAULT), math.copysign
    z1, z2 = complex(z1), complex(z2)
    feature = _half_line_feature if rule[0] == HALF_LINE else _feature
    v1, r1, i1, l1, k1 = feature(kind, point, nodes, a, s, rule, z1, sign(1, z1.real),
                                 sign(1, z1.imag))
    v2, r2, i2, l2, k2 = feature(kind, point, nodes, a, s, rule, z2, sign(1, z2.real),
                                 sign(1, z2.imag))
    ell = l1 + l2
    if not -math.inf < ell < math.inf:
        # the hard-wall limit: 0 for a > 0 and, for a < 0, an integrable
        # divergence flagged as inf
        return 0j if ell < 0 else complex(math.inf, 0.0)
    j, r = (0, ell) if _LOG_TINY <= ell <= _LOG_MAX else divmod(ell, _LN2)
    re, im = v1.dot(v2), i1.dot(r2) - r1.dot(i2)
    e = math.exp(r)
    if feature is _half_line_feature:
        last = 4 * _gauss_rule(*rule)[1].shape[1]     # the last panel's floats of F
        tail = np.vdot(v2[-last:].view(complex), v1[-last:].view(complex))
        _check_tail(abs(tail) * e, abs(complex(re, im)) * e)
    _normal(complex(re, im))
    try:
        n = k1 + k2 + int(j)
        value = complex(math.ldexp(re * e, n), math.ldexp(im * e, n))
    except OverflowError:       # also from int(j) where l1 + l2 passes 2^1024 ln2
        value = complex(math.inf, 0.0)
    return _normal(value)


def _normal(value, name: str = "kernel"):
    """value, or OutOfRangeError where its modulus is below the smallest
    normal double or not finite: a subnormal kernel value, or one summed from
    subnormal terms, has lost bits to the exponent range."""
    if not sys.float_info.min <= abs(value) < math.inf:
        raise OutOfRangeError(f"{name} value {value!r} is outside the normal double range")
    return value


def sine_kernel(x1: float, x2: float) -> float:
    """sin(x1-x2)/(pi (x1-x2)); the s -> 0 bulk limit.  DomainError for an x
    off the real line or not finite; OutOfRangeError for a value below the
    normal doubles, as past |x1 - x2| = 1/(pi 2^-1022), where x1 - x2 may also
    overflow."""
    _check_point("sine", x1, x2)
    d = x1.real - x2.real
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
    _check_point("ginibre", u1, u2)
    d, m = u1 - u2, 0.5 * u1 + 0.5 * u2
    phase = 2.0 * (d.imag * m.real - d.real * m.imag)
    if not math.isfinite(phase):
        raise OutOfRangeError("ginibre_kernel phase 2 Im(u1 conj u2) leaves the double range")
    return 2.0 / math.pi * cmath.exp(complex(-(d.real * d.real + d.imag * d.imag), phase))


def bulk_weak(a: float, s: float, z1: complex, z2: complex,
              spec: QuadratureSpec | None = None) -> complex:
    """Deformed sine kernel of the weak bulk limit at the origin.

    K(z1,z2) = (2/(s pi^{3/2} Gamma(a+1))) prod_j (1-4 yhat_j^2/s^2)^{a/2}
               * int_0^1 dc (cs/2)^{a+1/2}/I_{a+1/2}(cs) cos(c(z1 - conj z2)),

    summed as the product of the bulk features of the two points.
    """
    return _feature_kernel("bulk-weak", _bulk_point, _bulk_nodes, a, s, z1, z2, spec)


def bulk_strong(a: float, z1: complex, z2: complex,
                spec: QuadratureSpec | None = None) -> complex:
    """Strong non-Hermitian bulk kernel on the unit-width strip,

        (2/(pi^{3/2} Gamma(a+1))) prod_j (1-4 y_j^2)^{a/2}
            * int_0^infty dt (t/2)^{a+1/2}/I_{a+1/2}(t) cos(t(z1 - conj z2)).

    The half line is truncated at max(50, 5(a+2)) where the integrand has
    decayed below machine relevance (the rule of `quadrature._c_rule` at
    a), and summed as the product of the bulk
    features of the two points on its nodes; TailDivergenceError where the
    last panel's share of that product is not negligible, as near the wall
    at large a, where the integrand peaks near a/(1 - |y1 + y2|): so
    bulk_strong(500, 0.1+0.45j, 0.1+0.45j) is refused.  With the default
    spec that rule has 16(a+2) nodes from a = 38 on, so past a = 1022 it
    exceeds the half-line node cap of `quadrature` and the kernel raises
    OutOfRangeError, first, whatever the walls.  A wall factor q <= 0 takes
    the hard-wall limit, as in the feature kernels.  A point whose product
    with the last node passes the doubles (from x of about 3.6e306 at
    a < 8) is refused with OutOfRangeError.
    """
    rule = _c_rule(HALF_LINE, spec or _DEFAULT, a)
    return _feature_kernel("bulk-strong", _bulk_point, _bulk_nodes, a, 1.0, z1, z2, spec, rule)


def edge_weak(a: float, s: float, Z1: complex, Z2: complex,
              spec: QuadratureSpec | None = None) -> complex:
    """Deformed Bessel kernel of the weak edge limit at the +1 focus,

        (1/(2 s sqrt(pi) Gamma(a+1))) prod_j q_j^{a/2}
            * int_0^1 dc c^{2a+2} (cs/2)^{a+1/2}/I_{a+1/2}(cs) phi(c w1) conj phi(c w2),

    w = sqrt Z, q the wall factor s^2/4 + X - (Y/s)^2 and phi = `_phi`."""
    return _feature_kernel("edge-weak", _edge_point, _phi_nodes, a, s, Z1, Z2, spec)


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
    falls below the normal doubles, and, by DomainError, off the real line.
    """
    _check_point("bessel", X1, X2)
    return _feature_kernel("bessel", _bessel_point, _phi_nodes, a, None, X1, X2, spec).real


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
    _check_point("edge-strong", Z1, Z2)
    _check("a", a)
    lpref = (_log_power(0.5 * a, Z1.real) + _log_power(0.5 * a, Z2.real)
             - math.log(4.0 * math.pi) - ln_gamma(a + 1))
    if lpref == math.inf:
        return complex(math.inf, 0.0)   # integrable hard-edge divergence, flagged
    pref = _times_exp(1.0, lpref)
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


def edge_weak_minus_sine(a: float, s: float, Z1: complex, Z2: complex,
                         spec: QuadratureSpec | None = None) -> complex:
    """Left-focus weak edge kernel of the (a+1/2, +1/2) Jacobi gas.

    Sine-type integrand: the J_{1/2} pair collapses to sin(c w)/w, w = sqrt Z,
    and the wall factor is 1 - 2 (|Z| - X)/s^2.
    """
    return _feature_kernel("edge-weak-minus-sine", _left_focus_point, _sine_nodes, a, s, Z1, Z2,
                           spec)


def edge_weak_minus_cosine(a: float, s: float, Z1: complex, Z2: complex,
                           spec: QuadratureSpec | None = None) -> complex:
    """Left-focus weak edge kernel of the (a+1/2, -1/2) Jacobi gas
    (cosine-type), with node function cos(c sqrt Z) and the factor
    |Z1 Z2|^{-1/2}; also the Chebyshev-I edge kernel at a = 0.
    SingularPointError at the focus Z = 0."""
    return _feature_kernel("edge-weak-minus-cosine", _cosine_point, _cosine_nodes, a, s, Z1, Z2,
                           spec)


def bulk_from_edge_check(a: float, s: float, kappa: float, z1: complex, z2: complex,
                         h: float, spec: QuadratureSpec | None = None):
    """Pair (4h * edge_weak at Z = kappa h - 2 sqrt(h) zhat, closed bulk form).

    The caller asserts closeness; at kappa = 1 the closed form is bulk_weak,
    and at any kappa it is bulk_weak at zhat / sqrt(kappa), over kappa:
    DomainError for a zhat outside the kappa-scaled strip
    |Im zhat| <= sqrt(kappa) s/2.  The edge integrand oscillates at frequency
    ~ sqrt(kappa h), so spec.c_nodes must grow with sqrt(h).
    """
    _check("s", s)
    if kappa <= 0 or h <= 0:
        raise DomainError("kappa and h must be positive")
    z1, z2, root = complex(z1), complex(z2), math.sqrt(kappa)
    second = bulk_weak(a, s, z1 / root, z2 / root, spec) / kappa
    Z1, Z2 = (kappa * h - 2.0 * math.sqrt(h) * z for z in (z1, z2))
    return 4.0 * h * edge_weak(a, s, Z1, Z2, spec), second


# ---------------------------------------------------------------------------
# global (Joukowsky-series) kernels
# ---------------------------------------------------------------------------

_SERIES_TOL = 1e-15
_SERIES_CAP = 500


def _interior_omega(kind: str, tau: float, v: float, z: complex):
    """(zeta, omega) for a rescaled global point z of a kernel of `kind`,
    zeta = z/sqrt(2 tau); requires 1 <= |omega| < v, v the Joukowsky radius
    of the wall.

    The series extends continuously onto the open branch cut (|omega| = 1
    with Im omega >= 0); only the degenerate focal points omega = +-1, where
    the Joukowsky frame collapses, are rejected.  A point that is not finite
    has omega nan, which lies outside.
    """
    zeta = complex(z) / math.sqrt(2.0 * tau)
    om = joukowsky_inverse(zeta)
    _check_point(kind, z, params=(om, v))
    return zeta, om


@functools.lru_cache(maxsize=64)
def _tau_frame(tau: float, decay: int):
    """(v, terms, p) of the global series at tau, v the Joukowsky radius of
    the wall and p_j = e_j^{decay/2}, e_j = v^{-(1+2j)}, the read-only
    powers of its image sum.

    The j-th series term shrinks like v^{-decay j}; p holds as many terms as
    that takes to fall below _SERIES_TOL, and is None past _SERIES_CAP
    terms (tau close to 1), where the sum is refused rather than truncated.
    """
    v = EllipseGeometry(tau).v
    terms = math.ceil(math.log(1.0 / _SERIES_TOL) / (decay * math.log(v))) + 1
    if terms > _SERIES_CAP:
        return v, terms, None
    return v, terms, _read_only((v ** -(1.0 + 2.0 * np.arange(terms))) ** (decay // 2))


def _series_frame(kind: str, tau: float, z1: complex, z2: complex, decay: int):
    """(v, zeta_1, zeta_2, omega_1, conj omega_2, p) for a global kernel of
    `kind`, the tau part from `_tau_frame`: DomainError for a point outside
    the rescaled ellipse is raised before OutOfRangeError past the term cap."""
    v, terms, p = _tau_frame(tau, decay)
    (zeta1, o1), (zeta2, o2) = (_interior_omega(kind, tau, v, z) for z in (z1, z2))
    if p is None:
        raise OutOfRangeError(f"the tau={tau} global series needs {terms} terms, "
                              f"more than {_SERIES_CAP}")
    return v, zeta1, zeta2, o1, np.conj(o2), p


def _images(p, x1: complex, x2: complex, sign: float) -> complex:
    """The Joukowsky image sum of every global kernel,

        sum_j S(p_j x1 x2) + sign S(p_j x1/x2) + sign S(p_j x2/x1) + S(p_j/(x1 x2)),

    with S(q) = q/(1-q)^2, evaluated as one S over a [4, terms] array."""
    q = np.array((x1, x1, x2, 1.0))[:, None] * p
    q[0] *= x2
    q[1:] /= np.array((x2, x1, x1 * x2))[:, None]
    q /= (1.0 - q) ** 2
    q[1:3] *= sign
    return q.sum(axis=0).sum()


def global_kernel_u(tau: float, z1: complex, z2: complex) -> complex:
    """Global kernel of the flat (a=0, Chebyshev-U) gas, rescaled coordinates."""
    _, _, _, o1, o2, eta = _series_frame("global-u", tau, z1, z2, 4)
    tot = _images(eta, o1, o2, -1.0)
    return complex(2.0 / (math.pi * tau) * tot / ((o1 - 1.0 / o1) * (o2 - 1.0 / o2)))


def global_kernel_t(tau: float, z1: complex, z2: complex) -> complex:
    """Global kernel of the Chebyshev-I gas (weight 1/|1-z^2|), rescaled
    coordinates; includes the 1/(2 log v) zero-mode term."""
    v, zeta1, zeta2, o1, o2, eta = _series_frame("global-t", tau, z1, z2, 4)
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
    _, zeta1, zeta2, o1, o2c, e = _series_frame("global-v", tau, z1, z2, 2)
    r1, r2 = np.sqrt(o1), np.conj(np.sqrt(np.conj(o2c)))
    tot = 0.5 * (_images(e, r1, r2, -1.0) - _images(-e, r1, r2, -1.0))
    pref = 1.0 / (2.0 * math.pi * tau) / math.sqrt(abs(1 + zeta1) * abs(1 + zeta2))
    return complex(pref * tot / ((r1 - 1.0 / r1) * (r2 - 1.0 / r2)))


def global_kernel(kind: LimitKind | str, tau: float, z1: complex, z2: complex) -> complex:
    """Dispatch to one of the three global kernels by kind."""
    name = LimitKind(kind).value
    if KERNEL_KINDS[name][2] != ("tau",):
        raise DomainError(f"{kind} is not a global kernel kind")
    return _kernel_of(name, LimitKernelSpec(name, tau=tau))(z1, z2)


def global_rot_u(z1: complex, z2: complex) -> complex:
    """tau -> 0 limit of the flat-gas global kernel: 1/(pi (1 - z1 conj z2)^2)."""
    _check_point("global-rot-u", z1, z2)
    return 1.0 / (math.pi * (1.0 - z1 * np.conj(z2)) ** 2)


def global_rot_t(z1: complex, z2: complex) -> complex:
    _check_point("global-rot-t", z1, z2)
    q = z1 * np.conj(z2)
    return q / (math.pi * (abs(z1) * abs(z2)) * (1.0 - q) ** 2)


def global_rot_v(z1: complex, z2: complex) -> complex:
    _check_point("global-rot-v", z1, z2)
    q = z1 * np.conj(z2)
    return (1.0 + q) / (2.0 * math.pi * math.sqrt(abs(z1) * abs(z2)) * (1.0 - q) ** 2)


# ---------------------------------------------------------------------------
# kernel factory
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LimitKernelSpec:
    """Which limiting kernel, a LimitKind or its name, plus its parameters."""

    kind: LimitKind
    a: float | None = None
    s: float | None = None
    tau: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "kind", LimitKind(self.kind))
        _kind_arguments(self.kind.value, self)


def make_kernel(spec: LimitKernelSpec):
    """An evaluable K(z1, z2) for any limiting-kernel spec: the kernel of its
    kind in `KERNEL_KINDS`, looked up by name, with the spec's parameters."""
    return _kernel_of(spec.kind.value, spec)
