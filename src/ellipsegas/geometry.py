"""Hard-wall ellipse domain, one-particle weights, Joukowsky coordinates.

The ellipse is parametrized by tau in (0,1):

    (2 tau/(1+tau)) x^2 + (2 tau/(1-tau)) y^2 <= 1,

with semi-axes sqrt((1+tau)/(2 tau)), sqrt((1-tau)/(2 tau)) and foci at +-1.
Five gas families live on it, distinguished by their one-particle weight.

Every parameter rule of the package is written once, in `_PARAMETERS`, and
checked by `_check`: the weight exponent a > -1, the Jacobi exponents alpha,
gamma > -1, the weak scale s > 0 and the proposal width are finite, tau lies
in (0,1), and N, burn_in and thin are integers; `_kind_arguments` checks
the parameters of a kernel kind by them.  Every point domain is written once
too, in `_POINT_DOMAINS`: the real line and its half line X >= 0, the weak
bulk's strip, the weak edge's parabola, the right half-plane, the finite
plane, the unit disc, whole or punctured, the rescaled ellipse off its foci
and the gas's ellipse.  Each row of `KERNEL_KINDS` names its kind's domain,
and `_check_point` checks a kernel's points by it.

Two more rules that every layer shares are written here once: `_kernel_of`
builds the kernel of a kind from its row, for `make_kernel`,
`global_kernel` and the command line, and `_times_exp` is the range of a
scaled value m e^s (a kernel sum and its log scale, a prefactor, a
`ScaledValue`), with the one OutOfRangeError where it leaves the doubles.
"""

from __future__ import annotations

import cmath
import functools
import math
import sys
from dataclasses import dataclass
from enum import Enum
from numbers import Integral

import numpy as np

from .errors import DomainError, OutOfRangeError
from .specialfns import _LOG_MAX

# parameter -> (whether a value lies in its domain, the domain as text); one
# rule for every function and class that takes the parameter, and for the text
# of `_kind_arguments`; inf and nan lie in no domain
_PARAMETERS = {"a": (lambda a: -1 < a < math.inf, "finite a > -1"),
               "s": (lambda s: 0 < s < math.inf, "finite s > 0"),
               "tau": (lambda tau: 0 < tau < 1, "tau in (0,1)"),
               "N": (lambda N: isinstance(N, Integral) and N >= 1, "integer N >= 1"),
               "burn_in": (lambda b: isinstance(b, Integral) and b >= 0, "integer burn_in >= 0"),
               "thin": (lambda t: isinstance(t, Integral) and t >= 1, "integer thin >= 1"),
               "proposal_sigma": (lambda p: 0 < p < math.inf, "finite proposal_sigma > 0"),
               "alpha": (lambda a: -1 < a < math.inf, "finite alpha > -1"),
               "gamma": (lambda g: -1 < g < math.inf, "finite gamma > -1")}


def _check(name: str, value) -> None:
    """DomainError naming the parameter `name` unless `value` lies in its domain."""
    valid, need = _PARAMETERS[name]
    if not valid(value):
        raise DomainError(f"expected {need}, got {value}")


# point domain -> (whether a point lies in it, the domain as text); the point
# comes first, then the domain's parameters.  The rescaled ellipse takes the
# Joukowsky image om of the point, and v of the wall, both of which its
# kernel computes anyway; inf and nan lie in no domain
_POINT_DOMAINS = {
    "real line": (lambda x: x.imag == 0 and math.isfinite(x.real), "finite real x"),
    "half line": (lambda x: x.imag == 0 and 0 <= x.real < math.inf, "finite real X >= 0"),
    "strip": (lambda z, s: cmath.isfinite(z) and bulk_domain_contains(s, z),
              "finite z with |Im z| <= s/2"),
    "parabola": (lambda Z, s: cmath.isfinite(Z) and edge_domain_contains(s, Z),
                 "finite Z with X >= (Y/s)^2 - s^2/4"),
    "right half-plane": (lambda Z: Z.real >= 0 and cmath.isfinite(Z), "finite Z with X >= 0"),
    "plane": (cmath.isfinite, "finite z"),
    # |z| by hypot, which rounds a modulus past the doubles to inf, where abs raises
    "unit disc": (lambda z: math.hypot(z.real, z.imag) < 1, "|z| < 1"),
    "punctured disc": (lambda z: 0 < math.hypot(z.real, z.imag) < 1, "0 < |z| < 1"),
    "rescaled ellipse": (lambda z, om, v: abs(om) < v and abs(om * om - 1.0) >= 1e-13,
                         "z in the open rescaled ellipse off its foci"),
    "ellipse": (lambda z, geometry: ellipse_deficit(geometry, z) >= 0.0, "z in the ellipse"),
}


def _check_point(kind: str, *points, params: tuple = (), domain: str | None = None) -> None:
    """DomainError naming `kind` unless each point, or each entry of an
    array of points, lies in the point domain of its row of `KERNEL_KINDS`
    (or in `domain`, for a kernel that is not a kind) with the domain's
    `params`; the message gives the first point outside."""
    inside, need = _POINT_DOMAINS[domain or KERNEL_KINDS[kind][3]]
    for z in points:
        if (ok := inside(z, *params)) is not True and not np.all(ok):
            z = complex(z[~ok][0]) if np.ndim(ok) else z
            raise DomainError(f"{kind} needs {need}, got {z!r}")


class PolyKind(Enum):
    GEGENBAUER = "gegenbauer"
    JACOBI_PLUS = "jacobi-plus"      # P^(a+1/2, +1/2)
    JACOBI_MINUS = "jacobi-minus"    # P^(a+1/2, -1/2)
    CHEBYSHEV_T = "chebyshev-t"
    CHEBYSHEV_U = "chebyshev-u"      # == Gegenbauer at a = 0
    CHEBYSHEV_V = "chebyshev-v"      # orthogonal under 1/|1+z|


_CHEBYSHEV = frozenset({PolyKind.CHEBYSHEV_T, PolyKind.CHEBYSHEV_U, PolyKind.CHEBYSHEV_V})


@dataclass(frozen=True)
class GasFamily:
    """One of the five implemented gases: polynomial family + weight + norms."""

    kind: PolyKind
    a: float = 0.0

    def __post_init__(self):
        _check("a", self.a)
        if self.kind in _CHEBYSHEV and self.a != 0.0:
            raise DomainError(f"{self.kind.value} gas has no free parameter")


# A polynomial family is fixed by the same (kind, a) as its gas.
PolyFamily = GasFamily


# The kinds of kernel (`kernels_finite`, `kernels_limit`) and the rescale maps
# of the density figures (`correlations`) are kept here, with the gases: the
# command line offers them as choices before it loads any of those layers.
# KERNEL_KINDS, the one table of kinds: every kind -> (its layer, the kernel's
# name there, the parameters it takes before (z1, z2), the domain of its
# points in `_POINT_DOMAINS`); the --kind choices are its keys and LimitKind
# its kernels_limit rows.  "finite" instead builds a FiniteKernel of a gas
# from tau and N.  `_kernel_of` looks a kernel up by name when it is built,
# so that a layer attribute swapped in later (a wrapper, a patch) is the one
# called.
KERNEL_KINDS = {
    "finite": ("kernels_finite", "FiniteKernel", ("N", "tau"), "ellipse"),
    "truncated": ("kernels_finite", "kernel_truncated", ("a", "N"), "unit disc"),
    "truncated-limit": ("kernels_finite", "kernel_truncated_limit", ("a",), "unit disc"),
    "elliptic-ginibre": ("kernels_finite", "kernel_elliptic_ginibre", ("tau", "N"), "plane"),
    "bulk-weak": ("kernels_limit", "bulk_weak", ("a", "s"), "strip"),
    "edge-weak": ("kernels_limit", "edge_weak", ("a", "s"), "parabola"),
    "edge-weak-minus-sine": ("kernels_limit", "edge_weak_minus_sine", ("a", "s"), "parabola"),
    "edge-weak-minus-cosine": ("kernels_limit", "edge_weak_minus_cosine", ("a", "s"), "parabola"),
    "bulk-strong": ("kernels_limit", "bulk_strong", ("a",), "strip"),
    "edge-strong": ("kernels_limit", "edge_strong", ("a",), "right half-plane"),
    "sine": ("kernels_limit", "sine_kernel", (), "real line"),
    "bessel": ("kernels_limit", "bessel_kernel", ("a",), "half line"),
    "ginibre": ("kernels_limit", "ginibre_kernel", (), "plane"),
    "global-u": ("kernels_limit", "global_kernel_u", ("tau",), "rescaled ellipse"),
    "global-t": ("kernels_limit", "global_kernel_t", ("tau",), "rescaled ellipse"),
    "global-v": ("kernels_limit", "global_kernel_v", ("tau",), "rescaled ellipse"),
    "global-rot-u": ("kernels_limit", "global_rot_u", (), "unit disc"),
    "global-rot-t": ("kernels_limit", "global_rot_t", (), "punctured disc"),
    "global-rot-v": ("kernels_limit", "global_rot_v", (), "punctured disc"),
}

# BULK_WEAK = "bulk-weak", ... for every limiting kind
LimitKind = Enum("LimitKind", [(kind.upper().replace("-", "_"), kind)
                               for kind, (layer, *_) in KERNEL_KINDS.items()
                               if layer == "kernels_limit"], module=__name__)


def _kind_arguments(kind: str, source) -> tuple:
    """The parameters that the kernel of `kind` takes before (z1, z2), read
    from the attributes of `source` (a LimitKernelSpec, the command line's
    arguments); DomainError naming the kind where one is missing or outside
    its rule."""
    params = KERNEL_KINDS[kind][2]
    values = tuple(getattr(source, p) for p in params)
    for p, value in zip(params, values):
        valid, need = _PARAMETERS[p]
        if value is None or not valid(value):
            raise DomainError(f"{kind} needs {need}")
    return values


def _kernel_of(kind: str, source) -> functools.partial:
    """The kernel of `kind` with the parameters of its row, read from
    `source` and checked by `_kind_arguments`, bound before (z1, z2).  The
    kernel is looked up by name in its layer, through the package, which
    imports the layer when it is first read, so a layer attribute swapped in
    later (a wrapper, a patch) is the one called.  For "finite" the kernel
    is the FiniteKernel class, which the caller builds from a gas."""
    layer, name, *_ = KERNEL_KINDS[kind]
    values = _kind_arguments(kind, source)
    return functools.partial(getattr(getattr(sys.modules[__package__], layer), name), *values)


# rescale maps of the three density figures: point map z -> argument of K_N,
# prefactor applied to the diagonal (`correlations._rescale`)
RESCALE_MAPS = ("none", "fig1", "fig2", "fig3")


@dataclass(frozen=True)
class EllipseGeometry:
    """The hard-wall domain for a given tau in (0,1)."""

    tau: float

    def __post_init__(self):
        _check("tau", self.tau)

    @property
    def semi_x(self) -> float:
        return math.sqrt((1 + self.tau) / (2 * self.tau))

    @property
    def semi_y(self) -> float:
        return math.sqrt((1 - self.tau) / (2 * self.tau))

    @property
    def v(self) -> float:
        """Joukowsky radius: |omega| = v is the ellipse boundary."""
        return (math.sqrt(1 + self.tau) + math.sqrt(1 - self.tau)) / math.sqrt(2 * self.tau)

    @property
    def area(self) -> float:
        return math.pi * self.semi_x * self.semi_y

    @property
    def wall_coefficients(self) -> tuple:
        """(2 tau/(1+tau), 2 tau/(1-tau)), the c_x, c_y of the deficit
        1 - c_x x^2 - c_y y^2."""
        tau = self.tau
        return 2 * tau / (1 + tau), 2 * tau / (1 - tau)


def ellipse_deficit(geometry: EllipseGeometry, z: complex):
    """1 - (2tau/(1+tau)) x^2 - (2tau/(1-tau)) y^2; >= 0 inside, 0 on the wall.

    Accepts scalars or numpy arrays.
    """
    cx, cy = geometry.wall_coefficients
    x, y = z.real, z.imag
    return 1.0 - cx * x * x - cy * y * y


def contains(geometry: EllipseGeometry, z: complex) -> bool:
    """Inclusive membership test for the hard-wall ellipse."""
    return bool(ellipse_deficit(geometry, z) >= 0.0)


def one_minus_mu(geometry: EllipseGeometry, z: complex):
    """1 - mu(z) for the asymmetric-Jacobi weights w_+ = (1 - mu)^a.

    mu(z) = (2 tau/(1-tau)) (semi_x * |1+z| - 1 - x).  Evaluated through the
    equivalent form A^2 * deficit / (A^2 + x + A |1+z|) (A = semi_x), which
    avoids the catastrophic cancellation of the defining expression near the
    foci and vanishes exactly with the ellipse deficit on the wall.
    """
    x, y = z.real, z.imag
    return _one_minus_mu_from(geometry.semi_x, x, np.hypot(1.0 + x, y),
                              ellipse_deficit(geometry, z))


def _one_minus_mu_from(A, x, r, q):
    """1 - mu = A^2 q / (A^2 + x + A r), with A = semi_x, r = |1+z| and q the
    ellipse deficit; scalar or array arithmetic alike, so that `one_minus_mu`
    and the scalar rule of `log_weight_rule` share the one formula."""
    return A * A * q / (A * A + x + A * r)


def mu(geometry: EllipseGeometry, z: complex):
    """mu(z) = (2 tau/(1-tau)) (semi_x * |1+z| - 1 - x), cf. one_minus_mu."""
    return 1.0 - one_minus_mu(geometry, z)


def _log_power(a: float, q: float) -> float:
    """a log q, continued onto the hard wall q <= 0 by the limit of log q^a:
    -inf, 0 or +inf for a >, = or < 0."""
    if q <= 0.0:
        return -math.inf if a > 0 else (0.0 if a == 0 else math.inf)
    return a * math.log(q)


def _times_exp(m, s):
    """m e^s of a value m and its log scale s, floats or arrays of one shape
    (an array m has |m| < 1): the one range rule of a scaled value, a kernel
    sum, a prefactor (m = 1) or a `ScaledValue`.  OutOfRangeError where a
    value, or its scale e^s, leaves the double range."""
    if isinstance(s, float):
        v = m * math.exp(s) if s <= _LOG_MAX else math.inf
        if cmath.isfinite(v):
            return v
    elif not (s > _LOG_MAX).any():
        return m * np.exp(s)
    raise OutOfRangeError(f"a value of log scale {np.max(s):.6g} leaves the double range")


def weight(gas: GasFamily, geometry: EllipseGeometry, z: complex) -> float:
    """The family's one-particle weight w(z) at a point of the ellipse.

    Weight singularities (foci of the Chebyshev weights, z = -1 for the
    1/|1+z| weights) return float('inf') rather than raising; a < 0 families
    likewise return inf exactly on the wall.
    """
    return math.exp(log_weight(gas, geometry, z))


def log_weight_rule(gas: GasFamily, geometry: EllipseGeometry):
    """The scalar rule of `log_weight` bound to one (gas, geometry).

    Returns rule(x, y, q) = log w(x + iy), where q is the ellipse deficit at
    the point, which callers have already computed for their wall test.  The
    constants of the geometry are taken once, and the arithmetic is that of
    `log_weight_values`, without numpy, because the sampler calls the rule
    once per proposal.
    """
    a = gas.a
    kind = gas.kind
    at_wall = _log_power(a, 0.0)
    if kind == PolyKind.CHEBYSHEV_T:
        def rule(x, y, q):
            z = complex(x, y)
            d = abs(1.0 - z * z)
            return math.inf if d == 0.0 else -math.log(d)
    elif kind == PolyKind.CHEBYSHEV_V:
        def rule(x, y, q):
            d = abs(complex(1.0 + x, y))
            return math.inf if d == 0.0 else -math.log(d)
    elif kind in (PolyKind.GEGENBAUER, PolyKind.CHEBYSHEV_U):
        def rule(x, y, q):
            return at_wall if q <= 0.0 else a * math.log(q)
    else:
        A = geometry.semi_x
        minus = kind == PolyKind.JACOBI_MINUS

        def rule(x, y, q):
            d = abs(complex(1.0 + x, y))
            q = _one_minus_mu_from(A, x, d, q)
            lw = at_wall if q <= 0.0 else a * math.log(q)
            if not minus:
                return lw
            return math.inf if d == 0.0 else lw - math.log(d)
    return rule


def log_weight(gas: GasFamily, geometry: EllipseGeometry, z: complex) -> float:
    """log w(z); -inf where the weight vanishes, +inf at singular points."""
    x, y = z.real, z.imag
    return log_weight_rule(gas, geometry)(x, y, float(ellipse_deficit(geometry, z)))


def log_weight_values(gas: GasFamily, geometry: EllipseGeometry, zs) -> np.ndarray:
    """log w at an array of points, with the conventions of `log_weight`:
    -inf where the weight vanishes, +inf flags a singular point."""
    zs = np.asarray(zs, dtype=complex)
    a = gas.a
    kind = gas.kind
    with np.errstate(divide="ignore", invalid="ignore"):
        if kind == PolyKind.CHEBYSHEV_T:
            return -np.log(np.abs(1.0 - zs * zs))
        if kind == PolyKind.CHEBYSHEV_V:
            return -np.log(np.abs(1.0 + zs))
        if kind in (PolyKind.GEGENBAUER, PolyKind.CHEBYSHEV_U):
            q = ellipse_deficit(geometry, zs)
        else:
            q = one_minus_mu(geometry, zs)
        lw = np.where(q > 0.0, a * np.log(q), _log_power(a, 0.0))
        if kind == PolyKind.JACOBI_MINUS:
            d = np.abs(1.0 + zs)
            lw = np.where(d == 0.0, math.inf, lw - np.log(d))
    return lw


def weight_values(gas: GasFamily, geometry: EllipseGeometry, zs) -> np.ndarray:
    """Vectorized weight: exp of `log_weight_values`."""
    return np.exp(log_weight_values(gas, geometry, zs))


def joukowsky(omega: complex) -> complex:
    return (omega + 1.0 / omega) / 2.0


def joukowsky_inverse(zeta: complex) -> complex:
    """The root omega of omega^2 - 2 zeta omega + 1 = 0 with |omega| >= 1.

    On the branch cut zeta in [-1,1] both roots have |omega| = 1; the one
    with Im omega >= 0 is returned (callers can detect the cut by |omega|=1).
    """
    zeta = complex(zeta)
    s = cmath.sqrt(zeta * zeta - 1.0)
    w1, w2 = zeta + s, zeta - s
    if abs(w1) > abs(w2):
        return w1
    if abs(w2) > abs(w1):
        return w2
    return w1 if w1.imag >= 0 else w2


def bulk_domain_contains(s: float, zhat: complex) -> bool:
    """Weak-bulk scaling domain: an infinite strip |Im(zhat)| <= s/2."""
    return abs(zhat.imag) <= s / 2.0


def edge_domain_contains(s: float, Z: complex) -> bool:
    """Weak-edge scaling domain: the parabolic region X >= (Y/s)^2 - s^2/4.
    The squares are products, which round to inf past the double range
    where ** raises OverflowError; both are inf only for Y past the doubles."""
    q = Z.imag / s
    return Z.real >= q * q - s * s / 4.0
