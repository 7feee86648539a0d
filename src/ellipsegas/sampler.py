"""Metropolis-Hastings sampling of the beta = 2 Gibbs measure on the ellipse.

Single-particle isotropic Gaussian proposals with hard-wall rejection; the
PRNG is numpy's PCG64 so chains are reproducible across platforms from the
seed alone.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .correlations import DensityGrid, GridSpec
from .errors import DomainError
from .geometry import (EllipseGeometry, GasFamily, _check, _check_point, contains,
                       ellipse_deficit, log_weight, log_weight_rule)

PRNG_ALGORITHM = "pcg64"
# steps whose random numbers are drawn at once: bounded, so memory does not
# grow with the steps
DRAW_BLOCK = 2048
# a chain warns once when more steps than this in a row are all rejected
STREAK_LIMIT = 100_000
# the normal double range, inside which a distance-ratio product is trusted
_TINY = sys.float_info.min
_HUGE = sys.float_info.max
# Sokal's automatic-window constant for integrated_autocorrelation
_SOKAL_C = 5.0


@dataclass(frozen=True)
class ParticleConfiguration:
    """A validated N-tuple of pairwise-distinct points inside the ellipse."""

    points: tuple

    @staticmethod
    def create(geometry: EllipseGeometry, points) -> "ParticleConfiguration":
        pts = tuple(complex(z) for z in points)
        if not pts:
            raise DomainError("a configuration needs at least one particle")
        _check_point("ParticleConfiguration", *pts, params=(geometry,), domain="ellipse")
        if len(set(pts)) != len(pts):
            raise DomainError("coincident particles are not a valid configuration")
        return ParticleConfiguration(pts)

    def __len__(self):
        return len(self.points)

    def __iter__(self):
        return iter(self.points)


@dataclass(frozen=True)
class ChainSettings:
    steps: int
    burn_in: int
    thin: int = 1
    proposal_sigma: float | None = None   # default 0.15 * semi_y
    seed: int = 0

    def __post_init__(self):
        _check("burn_in", self.burn_in)
        _check("thin", self.thin)
        if self.proposal_sigma is not None:
            _check("proposal_sigma", self.proposal_sigma)
        if self.burn_in >= self.steps:   # so steps >= 1
            raise DomainError("burn_in must be smaller than steps")


def log_density(gas: GasFamily, geometry: EllipseGeometry, points) -> float:
    """Unnormalized log of the joint density at beta = 2:

    sum_j log w(z_j) + 2 sum_{j<l} log |z_j - z_l|.

    Out-of-domain or coincident points give -inf.
    """
    zs = np.asarray(points, dtype=complex)
    tot = 0.0
    for z in zs:
        if not contains(geometry, z):
            return -math.inf
        lw = log_weight(gas, geometry, z)
        if lw == -math.inf:
            return -math.inf
        tot += lw
    if zs.size > 1:
        diffs = np.abs(zs[:, None] - zs[None, :])[np.triu_indices(zs.size, k=1)]
        if np.any(diffs == 0.0):
            return -math.inf
        tot += 2.0 * float(np.sum(np.log(diffs)))
    return tot


def _log_uniforms(us: list) -> list:
    """log u of each uniform draw u on [0, 1), with log 0 = -inf: the one
    rule by which `metropolis_accept` and `run_chain` compare u with a ratio."""
    return [math.log(u) if u > 0.0 else -math.inf for u in us]


def metropolis_accept(log_ratio: float, u: float) -> bool:
    """Accept iff u < min(1, exp(log_ratio)); u is uniform on [0,1), so that
    is log u < log_ratio.  At u = 0 that is log_ratio > -inf, so a
    zero-weight move is refused; a nan log_ratio is never accepted."""
    return _log_uniforms([u])[0] < log_ratio


def _initial_configuration(geometry: EllipseGeometry, N: int, rng) -> list:
    """N positions drawn uniformly in the bounding box of the ellipse, x
    before y, and kept if they lie inside."""
    pts = []
    while len(pts) < N:
        z = complex(rng.uniform(-geometry.semi_x, geometry.semi_x),
                    rng.uniform(-geometry.semi_y, geometry.semi_y))
        if contains(geometry, z):
            pts.append(z)
    return pts


def _log_ratio(pts: list, j: int, znew: complex, lw_new: float, lw_old: float) -> float:
    """`log_density` after particle j of pts moves to znew, minus before:

    lw_new - lw_old + 2 log |P_new| / |P_old|,
    P_new = prod_{l != j} (znew - z_l),  P_old = prod_{l != j} (z_j - z_l),

    or -inf if znew coincides with another particle.  pts is a list of
    complex numbers.  P_new and P_old are formed as two complex products in
    one pass over it, which skips entry j by position: pts[j] holds None
    during the pass and z_j again after it.  So an entry elsewhere that
    equals z_j, even the same object, is a coincidence like any other, and
    `_coulomb_log_ratio_fsum` refuses it.  One abs of each product and one
    log; when either product or their ratio leaves the normal double range,
    the Coulomb term is `_coulomb_log_ratio_fsum` (an intermediate product
    that only passes through the subnormals is not caught).
    """
    zold = pts[j]
    pn = po = 1.0
    pts[j] = None
    for zl in pts:
        if zl is not None:
            pn *= znew - zl
            po *= zold - zl
    pts[j] = zold
    try:
        pn, po = abs(pn), abs(po)
    except OverflowError:   # a modulus past the doubles, of finite parts
        pn = po = math.nan
    if _TINY <= pn <= _HUGE and _TINY <= po <= _HUGE and _TINY <= (r := pn / po) <= _HUGE:
        return lw_new - lw_old + 2.0 * math.log(r)
    coulomb = _coulomb_log_ratio_fsum(pts, j, znew)
    return coulomb if coulomb == -math.inf else lw_new - lw_old + coulomb


def _coulomb_log_ratio_fsum(pts: list, j: int, znew: complex) -> float:
    """The Coulomb term of `_log_ratio` as an exactly rounded sum of logs;
    -inf if znew coincides with another particle.  A z_j that coincides with
    another particle is no valid configuration, and raises DomainError."""
    zold, others = pts[j], pts[:j] + pts[j + 1:]
    if zold in others:
        raise DomainError("coincident particles are not a valid configuration")
    if znew in others:
        return -math.inf
    return 2.0 * math.fsum([math.log(abs(znew - zl)) for zl in others]
                           + [-math.log(abs(zold - zl)) for zl in others])


def run_chain(gas: GasFamily, geometry: EllipseGeometry, N: int,
              settings: ChainSettings):
    """Post-burn-in, thinned configurations of the N-particle chain.

    Returns (configurations, acceptance_rate); one step is one proposed
    single-particle move.  The step is scalar Python over a list of N
    complex positions.  After the initial configuration, the random numbers
    come in blocks of `DRAW_BLOCK` steps: particle indices, then Gaussian
    moves (the x and y draws of a move read as one complex number), then
    uniforms, so the chain of a seed depends on that order.  Each uniform is
    taken to its log once per block, and a step is accepted by one
    comparison with `_log_ratio`.  A kept configuration is a copy of the
    list, at the steps burn_in, burn_in + thin, ...; all of them are packed
    into one (M, N) array at the end, whose rows are returned.  The
    rejection streak is read from the last accepted step once per block.

    Positions and moves are kept in units of u = 2^round(log2((a + b)/2)),
    a and b the semi-axes, so that the distance products of `_log_ratio`
    stay in the doubles at any tau; the wall coefficients are taken times
    u^2, the log-weight rule reads (x u, y u), and the kept configurations
    are multiplied by u.  Every scale factor is a power of two, so the wall
    test, the log-weights and the ratio of the products are rounded as in
    plain units (the sum of logs that `_log_ratio` falls back to is not).
    """
    _check("N", N)
    rng = np.random.Generator(np.random.PCG64(settings.seed))
    u = 2.0 ** round(math.log2((geometry.semi_x + geometry.semi_y) / 2.0))
    sigma = (settings.proposal_sigma or 0.15 * geometry.semi_y) / u   # None: the default
    cx, cy = (c * u * u for c in geometry.wall_coefficients)
    rule = log_weight_rule(gas, geometry)
    pts = _initial_configuration(geometry, N, rng)
    logw = [log_weight(gas, geometry, z) for z in pts]
    pts = [complex(z.real / u, z.imag / u) for z in pts]
    steps, thin = settings.steps, settings.thin
    out = []
    accepted = 0
    last = -1                  # the last accepted step
    warned = False
    kept = settings.burn_in    # the next step whose configuration is kept
    step = 0
    while step < steps:
        size = min(DRAW_BLOCK, steps - step)
        js = rng.integers(N, size=size).tolist()
        with np.errstate(over="ignore"):      # an infinite move fails the wall test
            moves = (sigma * rng.standard_normal((size, 2))).view(complex).ravel().tolist()
        log_us = _log_uniforms(rng.random(size).tolist())
        end = step + size
        block = zip(range(step, end), js, moves, log_us)
        while step < end:
            # to the end of the block, or to the step at which an unbroken
            # rejection streak would first pass the limit, where it is read
            stop = end if warned else min(end, last + STREAK_LIMIT + 2)
            for k, j, d, log_u in islice(block, stop - step):
                znew = pts[j] + d
                x, y = znew.real, znew.imag
                q = 1.0 - cx * x * x - cy * y * y
                if q >= 0.0:      # the inclusive wall test of `contains`
                    lw_new = rule(x * u, y * u, q)
                    if log_u < _log_ratio(pts, j, znew, lw_new, logw[j]):
                        pts[j], logw[j] = znew, lw_new
                        accepted += 1
                        last = k
                if k == kept:
                    out.append(pts[:])
                    kept += thin
            step = stop
            if not warned and step - 1 - last > STREAK_LIMIT:
                warnings.warn("zero-acceptance streak exceeded 1e5 steps", RuntimeWarning)
                warned = True
    # the parts of each coordinate are scaled as reals, so a zero keeps its sign
    return list((np.array(out, dtype=complex).view(float) * u).view(complex)), accepted / steps


def integrated_autocorrelation(series):
    """(tau_int, ess) of a scalar observable along a chain.

    tau_int = 1 + 2 sum_{t=1}^{M} rho(t), with rho the normalized
    autocorrelation and M Sokal's automatic window, the smallest M with
    M >= c tau_int(M) (Sokal 1997, c = 5); ess = n / tau_int.  In this
    normalization an AR(1) series with coefficient r has tau_int =
    (1 + r)/(1 - r), and independent draws have tau_int = 1.  A series whose
    windowed tau_int is not positive, to rounding (strongly anti-correlated,
    e.g. an alternating one), has no meaningful ESS and raises DomainError.
    """
    x = np.asarray(series, dtype=float)
    if x.ndim != 1 or x.size < 2 or not np.all(np.isfinite(x)):
        raise DomainError("integrated_autocorrelation needs a finite 1-d series of >= 2 values")
    n = x.size
    x = x - x.mean()
    nfft = 1 << (2 * n - 1).bit_length()      # zero padding: no wrap-around
    f = np.fft.rfft(x, nfft)
    acf = np.fft.irfft(f * f.conj(), nfft)[:n]
    if not acf[0] > 0.0:
        raise DomainError("a constant series has no autocorrelation time")
    taus = 2.0 * np.cumsum(acf / acf[0]) - 1.0     # tau_int(M), M = 0..n-1
    past = np.arange(n) >= _SOKAL_C * taus
    tau = float(taus[np.argmax(past)] if past.any() else taus[-1])
    # below the rounding of the n-term sum, tau_int is indistinguishable from 0
    if not tau > 4.0 * n * sys.float_info.epsilon:
        raise DomainError(f"windowed tau_int = {tau:g} is not positive: no effective sample size")
    return tau, n / tau


def _bin_counts(samples, grid: GridSpec) -> np.ndarray:
    """[nx, ny] counts of all sampled positions in the cells of the grid."""
    zs = np.concatenate([np.asarray(s) for s in samples])
    return np.histogram2d(zs.real, zs.imag, bins=[grid.nx, grid.ny],
                          range=[list(grid.x_range), list(grid.y_range)])[0]


def density_chi_square(samples, kernel, grid: GridSpec, min_expected: float = 10.0):
    """Pearson chi^2 of binned sample counts against the kernel diagonal.

    Only bins whose four corners lie inside the ellipse enter (partial cells
    would bias the expectation); each expected count integrates rho_1 over
    the bin with a 3x3 midpoint refinement.  Returns (chi2, dof).
    """
    geo = kernel.geometry
    counts = _bin_counts(samples, grid)
    M = len(samples)
    dx, dy = grid.dx, grid.dy
    x0 = grid.x_range[0] + np.arange(grid.nx) * dx
    y0 = grid.y_range[0] + np.arange(grid.ny) * dy
    corners = x0[:, None, None] + 1j * y0[None, :, None] \
        + np.array([0.0, dx, 1j * dy, dx + 1j * dy])
    inside = np.all(ellipse_deficit(geo, corners) >= 0.0, axis=2)
    if not inside.any():
        return 0.0, 0
    offsets = (np.arange(3) + 0.5) / 3.0
    sub = (offsets[:, None] * dx + 1j * offsets[None, :] * dy).ravel()
    ix, iy = np.nonzero(inside)
    pts = (x0[ix, None] + 1j * y0[iy, None]) + sub
    rho = np.mean(np.real(kernel.diagonal(pts)), axis=1)
    expected = M * rho * dx * dy
    used = expected >= min_expected
    obs = counts[ix, iy][used]
    expected = expected[used]
    return float(np.sum((obs - expected) ** 2 / expected)), int(used.sum())


def empirical_density(samples, grid: GridSpec) -> DensityGrid:
    """Histogram of sampled particle positions, normalized so the grid
    integral equals the particle number N."""
    if not samples:
        raise DomainError("empirical_density needs at least one configuration")
    N = len(samples[0])
    counts = _bin_counts(samples, grid)
    total = counts.sum()
    if total == 0:
        raise DomainError("no sample fell inside the grid")
    vals = counts * (N / (total * grid.dx * grid.dy))
    return DensityGrid(grid, vals)
