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

with W the rule's weights, G the kernel's weight in c, e^l 2^n the point's
wall factor (the cosine kernel's l also holds -log|Z|/2, the Bessel kernel's
n a -1) and k an exact power of two, n included, that keeps F and e^l of
modest size at any a.
The node functions u are [e^(icz), e^(-icz)]/sqrt 2 for the bulk, whose
cos(c(z1 - conj z2)) is their product, with F formed in log space as
exp(log sqrt(W G/2) -+ c y +- i c x), one complex exp per entry: cos(cz)
alone overflows past |Im z| of about 710 where F does not; J_nu(c w)
(c w)^-nu for `edge_weak` and `bessel_kernel`, as psi(c w) (`_phi`) times
phi(0) = m 2^k (`_phi_zero`), with the powers of two that psi and the weight
in c carry per node folded into k; sin(c w)/w and cos(c w), w = sqrt(Z), for
the left-focus kernels.  Beside the walls' n, only the phi features and the
bulk features near the wall, whose exponents are then lowered by whole powers
of two, add to k.
The rule on [0, 1] is sized per pair by `quadrature._c_rule` from s and the
larger |u| of the two node-function arguments, u = z for the bulk and
sqrt Z otherwise: 64 2^j Gauss-Legendre nodes, j the least with
s <= 50 2^j and |u| <= 60 2^j, and a refusal by name past 4096 nodes
(s > 3200 or |u| > 3840).  The half-line rule of `bulk_strong` is sized per
pair from a and |x1 - x2|, the frequency of the product: 160 nodes for a
below 8 and |x1 - x2| <= 8, and a refusal by name past 16,384 nodes.  A
kernel with a weight in c is refused past a = 1024 (_A_MAX).
The left-focus kernels form their weight in c as a double, which underflows
on [0, 1] from s of about 705, so they refuse s > 690; `edge_weak`'s phi
weight keeps a power of two per node and answers up to the c-rule's cap of
s = 3200.  sqrt(W G), or its log for the bulk, is kept per (a, s, rule) by
`_weights`, and each point's (F, l, k, |F|) by `_feature`, in one LRU
cache of _FEATURES = 64 entries keyed on the kernel, a, s, the rule and the
point's bits, signed zeros apart: 16 bytes a node, 32 for the bulk, so
1-2 kB on 64 nodes, 64-128 kB on 4096 and at most 8 MiB at the node cap.
The half-line features of `bulk_strong` are 5 kB on the
160-node rule of a below 8 and up to 512 KiB at the rule's node cap, so they
have their own LRU cache of _HALF_LINE_FEATURES = 6 entries, at most
3 MiB.  One call is two lookups, three real dot products, one exp and
one ldexp per part, by 2^(k1 + k2) and, where e^(l1 + l2) is not a normal
double, its power of two:
Re K = (Re F1, Im F1) . (Re F2, Im F2), the parts interleaved, and
Im K = Im F1 . Re F2 - Re F1 . Im F2, so K(z,z) is real and
K(z2,z1) = conj K(z1,z2) bit for bit.  A value is refused only where it, or
the product of the features, is outside the normal doubles: psi, which
carries its own power of two, answers on the whole range of the c-rule, so
a phi kernel is refused past the rule's cap, not by psi.  On the half
line the same product over the last panel's nodes is the tail that
`quadrature._check_tail` tests against the value; where it fails, a far
pair whose sum cancels by oscillation is still answered where its
integrand's decay bounds the final panel and the rest past the truncation
within 1e-10 of |F1| |F2|, the pair's scale sqrt(K(z1,z1) K(z2,z2)) in
feature units, each |F| kept with its point's features.  Every kept array is
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

from .errors import DomainError, OutOfRangeError, SingularPointError, TailDivergenceError
from .geometry import (KERNEL_KINDS, EllipseGeometry, LimitKind, _check, _check_point,
                       _kernel_of, _kind_arguments, _log_power, _times_exp, joukowsky_inverse)
from .quadrature import HALF_LINE, UNIT_INTERVAL, _c_rule, _check_tail, _gauss_rule
from .specialfns import (_LN2, _LOG_MAX, _LOG_TINY, _exp_bits, _ldexp, _ln_gamma_step, _log_f,
                         _phi, _phi_zero, _read_only, ln_gamma)

# |beta| up to which edge_strong always sums the series of gamma_low(s, beta)
_GAMMA_SERIES_MAX = 5.0
# the largest a of a kernel with a weight in c.  Against 40-digit sums of the
# same rule, bulk_weak, the left-focus kernels and the strong bulk on the real
# axis are within 6e-16 at a = 1000 and 1024, and edge_weak(1000, 1, Z, Z)
# within 1.9e-15 at Z = 2e6 and 1.4e-13 at the cap 1.47e7 (the phi weights
# taken from logs at small c); off the axis a/2 times the rounding of each
# wall factor remains: bulk_weak 3-8e-14 at a = 1000-1024, 1.5e-13 at 2000 and
# 3e-13 at 4000.  So the cap is not an accuracy bound: it is the a up to which
# the kernels are tested, and the strong bulk's half-line rule is refused by
# its node cap from a = 1309.4 in any case
_A_MAX = 1024.0
# per-point features kept by `_feature`, 1-2 kB each on 64 nodes and up to
# 128 kB at the node cap of the c-rule; a pair of points reads two
_FEATURES = 64
# per-point half-line features kept by `_half_line_feature`: 5 kB each on the
# 160-node first rung of a below 8, 512 KiB at the node cap of `quadrature`
_HALF_LINE_FEATURES = 6


@functools.lru_cache(maxsize=64)
def _weights(a: float, s: float | None, rule: tuple, form: str):
    """Read-only weights at the nodes c of `_gauss_rule(*rule)`, W its
    weights, of the deformed kernels' weight in c,

        G(c) = (cs/2)^{a+1/2} / (s pi^{3/2} Gamma(a+1) I_{a+1/2}(cs)):

    form "log" gives log sqrt(W G), the bulk's, whose G leaves the doubles
    at large s (0.5-128 kB, s = 1 on the strong bulk's half line); "sqrt"
    gives sqrt(W G), the left-focus kernels'; "phi" gives
    sqrt(W c^(2a+2) G pi/2), `edge_weak`'s, and without s sqrt(W c^(2a+2)),
    `bessel_kernel`'s, as (values, bits), the weight values 2^bits, bits 0
    where no node carries a power of two.
    W c^(2a+2) G is one product under the root, which keeps
    bessel_kernel(83, 1000, 1000) 5e-15 off the 40-digit sum of its rule,
    where sqrt(W) c^(a+1) is 2.5e-14 off; where that product leaves the
    normal doubles, as c^(2a+2) does at small c and large a, the root is
    taken from logs and keeps its power of two apart, since psi(c w) of a
    large |w| can be as far below the doubles at the last nodes.
    With s, G is taken as log Gamma(a+3/2) - log Gamma(a+1), one Stirling
    difference, less log 0F1(;a+3/2;(cs)^2/4) from `_log_f`, so that no
    log-gamma of size a log a cancels in it; OutOfRangeError past _A_MAX,
    or where ln Gamma(a+1) passes the doubles, before the rule is built.
    The caller has checked a."""
    if s is not None and a > _A_MAX:
        ln_gamma(a + 1)         # which refuses first where log Gamma(a+1) passes the doubles
        raise OutOfRangeError(f"the weight in c needs a <= {_A_MAX:g}, got {a:g}: the kernels "
                              f"are tested up to it, and off the axis they lose a/2 times "
                              f"each wall factor's rounding (1.5e-13 of scale at a = 2000)")
    c, w = _gauss_rule(*rule)
    w = w.ravel()
    log_g = 0.0
    if s is not None:
        log_g = ((math.log(math.pi / 2.0) if form == "phi" else 0.0) - math.log(s)
                 - 1.5 * math.log(math.pi) + _ln_gamma_step(a + 1.0, 0.5) - _log_f(a + 0.5, c * s))
        if form == "log":
            return _read_only(0.5 * (np.log(w) + log_g))
    if form == "sqrt":
        return _read_only(np.sqrt(w * np.exp(log_g)))
    p = 2.0 * a + 2.0
    values = np.sqrt(w * c ** p * np.exp(log_g))
    low = values < 2.0 ** -511         # the product under the root left the normal doubles
    if not np.any(low):
        return _read_only(values), 0
    bits = np.zeros(c.shape, np.int64)
    values[low], bits[low] = _exp_bits((0.5 * (np.log(w) + p * np.log(c) + log_g))[low])
    return _read_only(values, bits)


# the feature kernels: after the check of a, a point function takes
# (kind, a, s, z), checks s and z, the point by the kind's row, and gives
# ((l, n), the argument of the node function), its wall factor e^l 2^n by
# `_wall_power`; a node function gives F at the nodes of `rule` from
# (kind, a, s, rule, argument)

def _wall_power(p: float, q: float, d: float = 1.0):
    """(l, n) with (q/d)^p = e^l 2^n, n an integer, for a wall factor q/d,
    d > 0, continued onto the hard wall q <= 0 as `_log_power`, with n = 0.
    q/d = m 2^e with m in [1/sqrt 2, sqrt 2), so that q = d gives l = 0
    exactly, and p e = n + f exactly over the integers, f in [0, 1): so
    l = p log m + f ln2, at most about p/3 in size where p log(q/d) is of
    size p log q, and its rounding with it."""
    if q <= 0.0:
        return _log_power(p, q), 0
    (mq, eq), (md, ed) = math.frexp(q), math.frexp(d)
    j = round(math.log2(mq / md))          # so that m = 2^-j mq/md
    num, den = p.as_integer_ratio()
    n, f = divmod(num * (eq - ed + j), den)
    return p * math.log(math.ldexp(mq / md, -j)) + f / den * _LN2, n


def _bulk_point(kind: str, a: float, s: float, z: complex):
    _check("s", s)
    _check_point(kind, z, params=(s,))
    u = 2.0 * abs(z.imag) / s                  # in [0, 1]: squares neither s nor y
    return _wall_power(0.5 * a, (1.0 - u) * (1.0 + u)), z


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
    log_weights = _weights(a, s, rule, "log")
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


def _edge_point(kind: str, a: float, s: float, Z: complex, left_focus: bool = False):
    """The wall factor (q/d)^(a/2), q = `_edge_wall`, and w = sqrt Z;
    DomainError outside the parabolic edge domain.  d is 1 for `edge_weak`,
    whose phi weight keeps a power of two per node, so that it answers up to
    the c-rule's cap of s = 3200.  For the left-focus kernels d is
    s^2/4 + (Re w)^2, so that q/d is their wall factor 1 - 2 (|Z| - X)/s^2;
    on the real axis (Re w)^2 is max(X, 0) exactly, so that on the positive
    axis the factor is 1 to the bit where s^2/4 + X is a double.  They form
    their weight in c as a double, G(1) of about e^-s: from s of about 705 it
    leaves the normal doubles at the last nodes, where the features of a
    point near the wall, e^(c s/2) in size, need it, so s past 690 is
    refused by name."""
    _check("s", s)
    _check_point(kind, Z, params=(s,))
    w, d = cmath.sqrt(Z), 1.0
    if left_focus:
        if s > 690.0:
            raise OutOfRangeError(f"{kind} needs s <= 690, got {s:g}")
        d = s * s / 4.0 + (max(Z.real, 0.0) if Z.imag == 0.0 else w.real ** 2)
    return _wall_power(0.5 * a, _edge_wall(s, Z), d), w


def _phi_nodes(kind: str, a: float, s: float | None, rule: tuple, w):
    """phi(c w) of `edge_weak` and, without s, of `bessel_kernel`, as node
    values F = sqrt(W c^(2a+2) G) psi(c w) phi(0) 2^-k and k, phi(0) = m 2^k
    by `_phi_zero`.  Where the weight or psi carries a power of two per node,
    as at large |w| or large a, those are folded into k, exactly, by the
    largest |F| 2^bits, so that the largest |F| is in [1/2, 1) and a node
    below it by more than the doubles' range, which adds below rounding,
    becomes 0; otherwise k is phi(0)'s, and the node values are of modest
    size at any order."""
    weights, bits = _weights(a, s, rule, "phi")
    m, k = _phi_zero(a + 0.5)
    psi, psi_bits = _phi(a + 0.5, rule, w)
    values, bits = weights * (psi * m), bits + psi_bits
    if np.ndim(bits) == 0:        # neither the weight nor psi carries a power of two
        return values, k
    exps = (bits + np.frexp(np.abs(values))[1])[values != 0]
    top = int(exps.max()) if exps.size else 0
    return _ldexp(values, bits - top), k + top


_left_focus_point = functools.partial(_edge_point, left_focus=True)


def _sine_nodes(kind: str, a: float, s: float, rule: tuple, w: complex) -> np.ndarray:
    """sin(c w)/w, and c at w = 0."""
    c = _gauss_rule(*rule)[0]
    return _weights(a, s, rule, "sqrt") * (c + 0j * c if w == 0 else np.sin(c * w) / w), 0


def _cosine_point(kind: str, a: float, s: float, Z: complex):
    (ell, n), w = _left_focus_point(kind, a, s, Z)
    if Z == 0:
        raise SingularPointError("cosine edge kernel diverges at the focus Z = 0")
    return (ell - 0.5 * math.log(abs(Z)), n), w


def _cosine_nodes(kind: str, a: float, s: float, rule: tuple, w: complex):
    return _weights(a, s, rule, "sqrt") * np.cos(_gauss_rule(*rule)[0] * w), 0


def _bessel_point(kind: str, a: float, s: None, X: complex):
    """The wall factor and sqrt X of a point X + 0i that `bessel_kernel` has
    checked."""
    ell, n = _wall_power(0.5 * a, X.real)
    return (ell, n - 1), math.sqrt(X.real)


def _build_feature(kind: str, point, nodes, a: float, s: float | None, rule: tuple, z,
                   re_sign: float, im_sign: float):
    """(V, Re F, Im F, l, k, |F|) of one point of a kernel of `kind`, whose
    features are F 2^k: V, read-only, holds the parts of F interleaved, and
    the parts are its views; |F| = sqrt(V . V) is sqrt K(z, z) in feature
    units, kept for the half line's tail test.  The signs of the parts of z
    are in the key, so that 0.0 and -0.0, which are equal keys, stay apart.
    A refusal raised here is never kept."""
    _check("a", a)
    (ell, n), arg = point(kind, a, s, z)
    values, k = nodes(kind, a, s, rule, arg)
    v = _read_only(np.ravel(values).view(float))
    return v, v[0::2], v[1::2], ell, k + n, math.sqrt(v.dot(v))


_feature = functools.lru_cache(maxsize=_FEATURES)(_build_feature)
_half_line_feature = functools.lru_cache(maxsize=_HALF_LINE_FEATURES)(_build_feature)


def _feature_kernel(kind: str, point, nodes, a: float, s: float | None, z1, z2,
                    domain: str = UNIT_INTERVAL) -> complex:
    """e^(l1 + l2) 2^(k1 + k2) F1 . conj F2 from the kept features of z1 and
    z2, on the c-rule that `_c_rule` sizes from the pair: on [0, 1] from s
    and the larger |u| of the pair, u = z for the bulk and sqrt Z otherwise,
    and on the half line from a and |x1 - x2|, the frequency of the
    product; a parameter or point outside its domain is refused as such
    before a refusal of that rule.  Where e^(l1 + l2)
    is not a normal double it is taken as 2^j e^r, j the whole number of ln2
    in l1 + l2 and r exact (divmod), and 2^(k1 + k2 + j) meets the product
    last, so only a value outside the normal doubles is refused.  On a
    half-line rule the product over the last panel's nodes is that panel's
    share, which must pass the tail test against the value, or else the
    integrand's decay must bound that panel and what the truncation at T
    leaves within 1e-10 of |F1| |F2|, the pair's own scale sqrt(K11 K22) in
    feature units, so that a far pair whose sum cancels by oscillation is
    not refused where its integrand has decayed.  Summed over its two
    parts, |F1| |F2| is W h, h(t) = G(t) cosh(y t) for y = y1 + y2, and
    d log h/dt <= |y| - I_(a+3/2)/I_(a+1/2)(t): past t0 = T - P, P the final
    panel's length, h decays at least at the rate
    eps = t0/(a + 3/2 + hypot(t0, a + 3/2)) - |y|, by Amos's bound on the
    ratio, so that panel and rest are at most the panel's sum of |F1| |F2|
    over 1 - e^(-eps P).  On a diagonal that sum is the panel's share, so
    the test there is the one against the value.  A product below the
    normal doubles has lost bits to the exponent range, and is refused like
    a value there."""
    z1, z2, sign = complex(z1), complex(z2), math.copysign
    try:
        if domain == HALF_LINE:
            rule = _c_rule(HALF_LINE, a, omega=abs(z1.real - z2.real))
        else:
            u = 2.0 * max(abs(0.5 * z1), abs(0.5 * z2))     # halved: no modulus overflows
            rule = _c_rule(UNIT_INTERVAL, s=s or 0.0, u=u if point is _bulk_point else math.sqrt(u),
                           name=kind)
    except OutOfRangeError:
        _check("a", a)
        for z in (z1, z2):
            point(kind, a, s, z)
        raise
    feature = _half_line_feature if rule[0] == HALF_LINE else _feature
    v1, r1, i1, l1, k1, f1 = feature(kind, point, nodes, a, s, rule, z1, sign(1, z1.real),
                                     sign(1, z1.imag))
    v2, r2, i2, l2, k2, f2 = feature(kind, point, nodes, a, s, rule, z2, sign(1, z2.real),
                                     sign(1, z2.imag))
    ell = l1 + l2
    if not -math.inf < ell < math.inf:
        # the hard-wall limit: 0 for a > 0 and, for a < 0, an integrable
        # divergence flagged as inf
        return 0j if ell < 0 else complex(math.inf, 0.0)
    j, r = (0, ell) if _LOG_TINY <= ell <= _LOG_MAX else divmod(ell, _LN2)
    re, im = float(v1.dot(v2)), float(i1.dot(r2) - r1.dot(i2))
    e = math.exp(r)
    if feature is _half_line_feature:
        last = 4 * rule[-1]     # the final panel's floats of F
        c1, c2 = v1[-last:].view(complex), v2[-last:].view(complex)
        try:
            _check_tail(abs(np.vdot(c2, c1)) * e, abs(complex(re, im)) * e)
        except TailDivergenceError:     # unless the decay bounds the rest
            T, P = rule[2], rule[4]
            eps = (T - P) / (a + 1.5 + math.hypot(T - P, a + 1.5)) - abs(z1.imag + z2.imag)
            bound = 1e-10 * f1 * f2 * -math.expm1(-eps * P)
            if not (eps > 0.0 and np.abs(c1).dot(np.abs(c2)) <= bound):
                raise
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


def bulk_weak(a: float, s: float, z1: complex, z2: complex) -> complex:
    """Deformed sine kernel of the weak bulk limit at the origin.

    K(z1,z2) = (2/(s pi^{3/2} Gamma(a+1))) prod_j (1-4 yhat_j^2/s^2)^{a/2}
               * int_0^1 dc (cs/2)^{a+1/2}/I_{a+1/2}(cs) cos(c(z1 - conj z2)),

    summed as the product of the bulk features of the two points.
    """
    return _feature_kernel("bulk-weak", _bulk_point, _bulk_nodes, a, s, z1, z2)


def bulk_strong(a: float, z1: complex, z2: complex) -> complex:
    """Strong non-Hermitian bulk kernel on the unit-width strip,

        (2/(pi^{3/2} Gamma(a+1))) prod_j (1-4 y_j^2)^{a/2}
            * int_0^infty dt (t/2)^{a+1/2}/I_{a+1/2}(t) cos(t(z1 - conj z2)).

    The half line is truncated at max(50, 5(a+2)) where the integrand has
    decayed below machine relevance, on the rule that `quadrature._c_rule`
    sizes from a and |x1 - x2|, the frequency of cos(t(z1 - conj z2)): on
    the rung |x1 - x2| <= 8 2^j, equal panels of up to 256 Gauss-Legendre
    nodes (160 nodes in all for a below 8 and |x1 - x2| <= 8, where 16
    nodes on each panel of 1.25 were 640).  It is summed as the product of
    the bulk features of the two points on its nodes; TailDivergenceError
    where the final panel's share of that product passes 1e-8 of the value
    and the integrand's decay does not bound the share and the rest past
    the truncation within 1e-10 of sqrt(K11 K22), as near
    the wall at large a, where the integrand peaks near a/(1 - |y1 + y2|):
    so bulk_strong(500, 0.1+0.45j, 0.1+0.45j) is refused.  Past 16,384
    nodes, the half-line node cap of `quadrature`, the kernel raises
    OutOfRangeError, first, whatever the walls: on the first rung from
    a = 1309.4, past a_max = 1024, and at a = 300 from |x1 - x2| > 32.  A
    wall factor q <= 0 takes
    the hard-wall limit, as in the feature kernels.  A point whose product
    with the last node passes the doubles (from x of about 3.6e306 at
    a < 8) is refused with OutOfRangeError.
    """
    return _feature_kernel("bulk-strong", _bulk_point, _bulk_nodes, a, 1.0, z1, z2, HALF_LINE)


def edge_weak(a: float, s: float, Z1: complex, Z2: complex) -> complex:
    """Deformed Bessel kernel of the weak edge limit at the +1 focus,

        (1/(2 s sqrt(pi) Gamma(a+1))) prod_j q_j^{a/2}
            * int_0^1 dc c^{2a+2} (cs/2)^{a+1/2}/I_{a+1/2}(cs) phi(c w1) conj phi(c w2),

    w = sqrt Z, q the wall factor s^2/4 + X - (Y/s)^2 and phi = `_phi`;
    answers up to the cap of its c-rule, |w| = 3840, in about 2|w| - a
    recurrence steps per node: (30, 1, 2.5e6, 2.5e6) in about 0.04 s."""
    return _feature_kernel("edge-weak", _edge_point, _phi_nodes, a, s, Z1, Z2)


def bessel_kernel(a: float, X1: float, X2: float) -> float:
    """Hard-edge Bessel kernel
    (1/4)(X1 X2)^{-1/4} int_0^1 c J_nu(c sqrt X1) J_nu(c sqrt X2) dc, nu = a + 1/2.

    Evaluated as (1/4)(X1 X2)^{a/2} int_0^1 c^{2a+2} phi(c sqrt X1) phi(c sqrt X2) dc
    with the entire phi(u) = J_nu(u) u^{-nu}, which also holds on X = 0: there
    the kernel is 0 for a > 0, its continuous limit for a = 0 and, for a < 0,
    an integrable divergence flagged as inf.  Refused by name past the node
    cap of its c-rule (X > 3840^2), and where the integral or the value falls
    below the normal doubles; by DomainError off the real line.
    """
    _check_point("bessel", X1, X2)
    return _feature_kernel("bessel", _bessel_point, _phi_nodes, a, None, X1, X2).real


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


def edge_weak_minus_sine(a: float, s: float, Z1: complex, Z2: complex) -> complex:
    """Left-focus weak edge kernel of the (a+1/2, +1/2) Jacobi gas.

    Sine-type integrand: the J_{1/2} pair collapses to sin(c w)/w, w = sqrt Z,
    and the wall factor is 1 - 2 (|Z| - X)/s^2.
    """
    return _feature_kernel("edge-weak-minus-sine", _left_focus_point, _sine_nodes, a, s, Z1, Z2)


def edge_weak_minus_cosine(a: float, s: float, Z1: complex, Z2: complex) -> complex:
    """Left-focus weak edge kernel of the (a+1/2, -1/2) Jacobi gas
    (cosine-type), with node function cos(c sqrt Z) and the factor
    |Z1 Z2|^{-1/2}; also the Chebyshev-I edge kernel at a = 0.
    SingularPointError at the focus Z = 0."""
    return _feature_kernel("edge-weak-minus-cosine", _cosine_point, _cosine_nodes, a, s, Z1, Z2)


def bulk_from_edge_check(a: float, s: float, kappa: float, z1: complex, z2: complex,
                         h: float):
    """Pair (4h * edge_weak at Z = kappa h - 2 sqrt(h) zhat, closed bulk form).

    The caller asserts closeness; at kappa = 1 the closed form is bulk_weak,
    and at any kappa it is bulk_weak at zhat / sqrt(kappa), over kappa:
    DomainError for a zhat outside the kappa-scaled strip
    |Im zhat| <= sqrt(kappa) s/2.
    """
    if kappa <= 0 or h <= 0:
        raise DomainError("kappa and h must be positive")
    z1, z2, root = complex(z1), complex(z2), math.sqrt(kappa)
    second = bulk_weak(a, s, z1 / root, z2 / root) / kappa
    Z1, Z2 = (kappa * h - 2.0 * math.sqrt(h) * z for z in (z1, z2))
    return 4.0 * h * edge_weak(a, s, Z1, Z2), second


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


def _images(p, x1: complex, x2: complex, sign: float) -> np.ndarray:
    """The terms of the Joukowsky image sum of every global kernel, one per
    power p_j,

        S(p_j x1 x2) + sign S(p_j x1/x2) + sign S(p_j x2/x1) + S(p_j/(x1 x2)),

    with S(q) = q/(1-q)^2, evaluated as one S over a [4, terms] array."""
    q = np.array((x1, x1, x2, 1.0))[:, None] * p
    q[0] *= x2
    q[1:] /= np.array((x2, x1, x1 * x2))[:, None]
    q /= (1.0 - q) ** 2
    q[1:3] *= sign
    return q.sum(axis=0)


def global_kernel_u(tau: float, z1: complex, z2: complex) -> complex:
    """Global kernel of the flat (a=0, Chebyshev-U) gas, rescaled coordinates."""
    _, _, _, o1, o2, eta = _series_frame("global-u", tau, z1, z2, 4)
    tot = _images(eta, o1, o2, -1.0).sum()
    return complex(2.0 / (math.pi * tau) * tot / ((o1 - 1.0 / o1) * (o2 - 1.0 / o2)))


def global_kernel_t(tau: float, z1: complex, z2: complex) -> complex:
    """Global kernel of the Chebyshev-I gas (weight 1/|1-z^2|), rescaled
    coordinates; includes the 1/(2 log v) zero-mode term."""
    v, zeta1, zeta2, o1, o2, eta = _series_frame("global-t", tau, z1, z2, 4)
    pref = 1.0 / (2.0 * math.pi * tau) / math.sqrt(abs(1 - zeta1 ** 2) * abs(1 - zeta2 ** 2))
    return complex(pref * (_images(eta, o1, o2, 1.0).sum() + 1.0 / (2.0 * math.log(v))))


def global_kernel_v(tau: float, z1: complex, z2: complex) -> complex:
    """Global kernel of the Chebyshev gas with weight 1/|1+z|, rescaled
    coordinates.

    Built from V_n(zeta) = (r^{2n+1} - r^{-2n-1})/(r - 1/r) with r the
    principal sqrt of omega; all half-integer powers below use these fixed
    roots, which keeps the series single-valued and Hermitian.  Each term is
    sqrt(q) G(q), G(q) = (1+q)/(1-q)^2, at sqrt(q) = e_j r1^{+-1} r2^{+-1} with
    e_j = v^{-(1+2j)}; since sqrt(q) G(q) = [S(sqrt q) - S(-sqrt q)]/2, the
    series is half the difference of the image sums over e and -e, both
    from one `_images` run on the powers (e, -e).  Its terms shrink like
    v^{-2j} only: G(q) -> 1 leaves the factor e_j.
    """
    _, zeta1, zeta2, o1, o2c, e = _series_frame("global-v", tau, z1, z2, 2)
    r1, r2 = np.sqrt(o1), np.conj(np.sqrt(np.conj(o2c)))
    terms = _images(np.concatenate((e, -e)), r1, r2, -1.0)
    tot = 0.5 * (terms[:e.size].sum() - terms[e.size:].sum())
    pref = 1.0 / (2.0 * math.pi * tau) / math.sqrt(abs(1 + zeta1) * abs(1 + zeta2))
    return complex(pref * tot / ((r1 - 1.0 / r1) * (r2 - 1.0 / r2)))


def global_kernel(kind: LimitKind | str, tau: float, z1: complex, z2: complex) -> complex:
    """Dispatch to one of the three global kernels by kind."""
    name = LimitKind(kind).value
    if KERNEL_KINDS[name][1] != ("tau",):
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
