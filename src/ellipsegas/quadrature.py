"""Quadrature over the ellipse and over the scaling variables c and t.

Two product rules cover all five weights:

* disc rule -- affine map of the ellipse to the unit disc, trapezoid in the
  angle (exact for trigonometric polynomials), Gauss-Jacobi in t = r^2 with
  weight (1-t)^a.  Exact for weight-times-polynomial integrands of the
  Gegenbauer family, whose weight pulls back to exactly (1-t)^a.

* annulus rule -- Joukowsky coordinates z = (omega + 1/omega)/2 on
  1 <= |omega| <= v.  The 1/|1 +- z| focal singularities of the Chebyshev
  and Jacobi-minus weights cancel exactly against the Jacobian, and the
  (1-mu)^a boundary factor vanishes linearly at |omega| = v, so Gauss-Jacobi
  in rho with weight (v-rho)^a leaves a smooth integrand.

Both rules place the singular factors in the node/weight construction and
divide them back out, so callers pass the raw integrand including the
weight.  Summation order is fixed (numpy pairwise over a frozen node
ordering), making results independent of any data-parallel evaluation.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError, OutOfRangeError, TailDivergenceError
from .geometry import EllipseGeometry, GasFamily, PolyKind, _check, joukowsky

UNIT_INTERVAL = "unit_interval"
HALF_LINE = "half_line"
# Gauss rules kept per process; each is a few kB
_RULE_CACHE = 128
# nodes of a half-line rule past which it is refused: log_i_ratio falls back to
# a per-node series where ive underflows, so a first bulk_strong call takes
# 0.04 s on 9,632 nodes (a = 600), 0.37 s on 16,032 (a = 1000) and 33 s on
# 48,032 (a = 3000), on a 2-vCPU VM
_HALF_LINE_CAP = 2 ** 14


@dataclass(frozen=True)
class QuadratureSpec:
    radial_nodes: int = 96
    angular_nodes: int = 128
    c_nodes: int = 64
    singularity_exponent: float = 0.0

    def __post_init__(self):
        if min(self.radial_nodes, self.angular_nodes, self.c_nodes) < 4:
            raise DomainError("all node counts must be >= 4")
        _check("a", self.singularity_exponent)


def _read_only(*arrays):
    for x in arrays:
        x.flags.writeable = False
    return arrays


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
        from scipy.special import roots_legendre
        return _read_only(*roots_legendre(n))
    if kind == "jacobi":
        from scipy.special import roots_jacobi
        return _read_only(*roots_jacobi(n, *params))
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


def _c_rule(domain: str, spec: QuadratureSpec, truncation: float | None = None,
            panel: float = 5.0) -> tuple:
    """The `_gauss_rule` arguments of integrate_c's rule on `domain`."""
    if domain == UNIT_INTERVAL:
        return UNIT_INTERVAL, spec.c_nodes
    if domain != HALF_LINE:
        raise DomainError(f"unknown domain {domain!r}")
    if truncation is None:
        truncation = max(50.0, 5.0 * (spec.singularity_exponent + 2.0))
    return HALF_LINE, spec.c_nodes, truncation, panel


@lru_cache(maxsize=64)
def _disc_rule(tau: float, a: float, nr: int, nth: int):
    geo = EllipseGeometry(tau)
    xj, wj = _gauss_rule("jacobi", nr, a, 0.0)
    t = (xj + 1.0) / 2.0                      # t = r^2
    wt = wj / 2.0 ** (a + 1.0)                # sum wt F(t) = int (1-t)^a F dt
    th = (np.arange(nth) + 0.5) * 2.0 * math.pi / nth
    tgrid, tt = np.meshgrid(t, th, indexing="ij")
    rr = np.sqrt(tgrid)
    z = geo.semi_x * rr * np.cos(tt) + 1j * geo.semi_y * rr * np.sin(tt)
    w = geo.semi_x * geo.semi_y * 0.5 * (2.0 * math.pi / nth) * wt[:, None] / (1.0 - tgrid) ** a
    return _read_only(z.ravel(), w.ravel())


@lru_cache(maxsize=64)
def _annulus_rule(tau: float, a: float, nr: int, nth: int):
    v = EllipseGeometry(tau).v
    xj, wj = _gauss_rule("jacobi", nr, a, 0.0)
    rho = 1.0 + (xj + 1.0) / 2.0 * (v - 1.0)
    wr = wj * ((v - 1.0) / 2.0) ** (a + 1.0)  # sum wr F = int_1^v (v-rho)^a F
    ph = (np.arange(nth) + 0.5) * 2.0 * math.pi / nth
    rr, pp = np.meshgrid(rho, ph, indexing="ij")
    om = rr * np.exp(1j * pp)
    z = joukowsky(om)
    jac = np.abs(om * om - 1.0) ** 2 / (4.0 * rr ** 4) * rr
    w = (2.0 * math.pi / nth) * wr[:, None] * jac / (v - rr) ** a
    return _read_only(z.ravel(), w.ravel())


def ellipse_rule(geometry: EllipseGeometry, spec: QuadratureSpec, focal: bool = False):
    """Nodes z and weights W with  integral_E f d2z ~ sum W f(z); read-only,
    because each rule is built once per process and shared."""
    builder = _annulus_rule if focal else _disc_rule
    return builder(geometry.tau, spec.singularity_exponent,
                   spec.radial_nodes, spec.angular_nodes)


def rule_for_gas(gas: GasFamily, geometry: EllipseGeometry, spec: QuadratureSpec):
    """The appropriate rule for integrands carrying the gas's weight."""
    spec = QuadratureSpec(spec.radial_nodes, spec.angular_nodes, spec.c_nodes,
                          singularity_exponent=gas.a)
    focal = gas.has_focal_singularity or gas.kind is PolyKind.JACOBI_PLUS
    return ellipse_rule(geometry, spec, focal=focal)


def integrate_ellipse(f, geometry: EllipseGeometry, spec: QuadratureSpec,
                      focal: bool = False) -> complex:
    """Integral over the hard-wall ellipse of a vectorized integrand f(z).

    f must absorb any (1-rho^2)^a boundary factor declared through
    spec.singularity_exponent and, with focal=True, may carry integrable
    1/|1 +- z| focal singularities.
    """
    z, w = ellipse_rule(geometry, spec, focal=focal)
    vals = np.asarray(f(z), dtype=complex)
    if not np.all(np.isfinite(vals)):
        raise DomainError("integrand is non-finite at an interior quadrature node")
    return complex(np.sum(w * vals))


def integrate_c(g, domain: str, spec: QuadratureSpec, truncation: float | None = None,
                panel: float = 5.0) -> complex:
    """Integrate g over c in [0,1] or t in [0,inf) (paneled, truncated).

    Half-line truncation defaults to max(50, 5*(a+2)) with a the spec's
    singularity exponent; the final panel must be negligible or the
    integrand is flagged as non-decaying.  An integrand that is not finite at
    a node, such as an underflowed factor times an overflowed one, or a sum
    that overflows, raises OutOfRangeError rather than return nan.  g sees the nodes as one flat array, the same
    read-only array on every call with the same rule.
    """
    c, w = _gauss_rule(*_c_rule(domain, spec, truncation, panel))
    vals = np.asarray(g(c), dtype=complex)
    if domain == UNIT_INTERVAL:
        total = complex(np.sum(w * vals))
    else:
        # one composite rule, weights [panels, nodes]
        parts = np.sum(w * vals.reshape(w.shape), axis=1).tolist()
        total = 0.0 + 0.0j
        for part in parts:
            total += part
        last = abs(parts[-1])
        if last > 1e-8 * max(abs(total), 1e-300):
            raise TailDivergenceError(
                f"final panel contributes {last:.3g} of {abs(total):.3g}; "
                "increase truncation or check integrand decay")
    # the weights are positive, so a value that is not finite at any node
    # leaves the sum not finite; checking the sum is the cheaper test
    if not cmath.isfinite(total):
        raise OutOfRangeError("integrand leaves the double range at a quadrature node")
    return total
