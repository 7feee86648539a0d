"""Metropolis-Hastings sampling of the beta = 2 Gibbs measure on the ellipse.

Single-particle isotropic Gaussian proposals with hard-wall rejection; the
PRNG is numpy's PCG64 so chains are reproducible across platforms from the
seed alone.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .correlations import DensityGrid, GridSpec
from .errors import DomainError
from .geometry import EllipseGeometry, GasFamily, contains, ellipse_deficit, log_weight

PRNG_ALGORITHM = "pcg64"


@dataclass(frozen=True)
class ParticleConfiguration:
    """A validated N-tuple of pairwise-distinct points inside the ellipse."""

    points: tuple

    @staticmethod
    def create(geometry: EllipseGeometry, points) -> "ParticleConfiguration":
        pts = tuple(complex(z) for z in points)
        if not pts:
            raise DomainError("a configuration needs at least one particle")
        for z in pts:
            if not contains(geometry, z):
                raise DomainError(f"particle {z} lies outside the ellipse")
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
        if self.burn_in >= self.steps:
            raise DomainError("burn_in must be smaller than steps")
        if self.thin < 1:
            raise DomainError("thin must be >= 1")
        if self.proposal_sigma is not None and self.proposal_sigma <= 0:
            raise DomainError("proposal_sigma must be positive")


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


def metropolis_accept(log_ratio: float, u: float) -> bool:
    """Accept iff u < min(1, exp(log_ratio)); u is uniform on [0,1)."""
    if log_ratio >= 0.0:
        return True
    return math.log(u) < log_ratio if u > 0.0 else True


def _initial_configuration(geometry: EllipseGeometry, N: int, rng) -> np.ndarray:
    pts = np.empty(N, dtype=complex)
    filled = 0
    while filled < N:
        x = rng.uniform(-geometry.semi_x, geometry.semi_x)
        y = rng.uniform(-geometry.semi_y, geometry.semi_y)
        z = complex(x, y)
        if contains(geometry, z):
            pts[filled] = z
            filled += 1
    return pts


def run_chain(gas: GasFamily, geometry: EllipseGeometry, N: int,
              settings: ChainSettings):
    """Post-burn-in, thinned configurations of the N-particle chain.

    Returns (configurations, acceptance_rate); one step is one proposed
    single-particle move.
    """
    if N < 1:
        raise DomainError("N must be >= 1")
    rng = np.random.Generator(np.random.PCG64(settings.seed))
    sigma = settings.proposal_sigma
    if sigma is None:
        sigma = 0.15 * geometry.semi_y
    pts = _initial_configuration(geometry, N, rng)
    logw = np.array([log_weight(gas, geometry, z) for z in pts])
    out = []
    accepted = 0
    rejected_streak = 0
    warned = False
    for step in range(settings.steps):
        j = int(rng.integers(N))
        dz = complex(*(sigma * rng.standard_normal(2)))
        znew = pts[j] + dz
        u = rng.random()       # drawn unconditionally to keep the stream aligned
        if contains(geometry, znew):
            lw_new = log_weight(gas, geometry, znew)
            others = np.delete(pts, j)
            d_new = np.abs(znew - others)
            d_old = np.abs(pts[j] - others)
            if np.any(d_new == 0.0):
                log_ratio = -math.inf
            else:
                log_ratio = (lw_new - logw[j]
                             + 2.0 * float(np.sum(np.log(d_new) - np.log(d_old))))
            if metropolis_accept(log_ratio, u):
                pts[j] = znew
                logw[j] = lw_new
                accepted += 1
                rejected_streak = 0
            else:
                rejected_streak += 1
        else:
            rejected_streak += 1
        if rejected_streak > 100_000 and not warned:
            warnings.warn("zero-acceptance streak exceeded 1e5 steps", RuntimeWarning)
            warned = True
        if step >= settings.burn_in and (step - settings.burn_in) % settings.thin == 0:
            out.append(pts.copy())
    return out, accepted / settings.steps


def density_chi_square(samples, kernel, grid: GridSpec, min_expected: float = 10.0):
    """Pearson chi^2 of binned sample counts against the kernel diagonal.

    Only bins whose four corners lie inside the ellipse enter (partial cells
    would bias the expectation); each expected count integrates rho_1 over
    the bin with a 3x3 midpoint refinement.  Returns (chi2, dof).
    """
    geo = kernel.geometry
    zs = np.concatenate([np.asarray(s) for s in samples])
    counts, _, _ = np.histogram2d(
        zs.real, zs.imag, bins=[grid.nx, grid.ny],
        range=[list(grid.x_range), list(grid.y_range)])
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
    zs = np.concatenate([np.asarray(s) for s in samples])
    counts, _, _ = np.histogram2d(
        zs.real, zs.imag, bins=[grid.nx, grid.ny],
        range=[list(grid.x_range), list(grid.y_range)])
    total = counts.sum()
    if total == 0:
        raise DomainError("no sample fell inside the grid")
    vals = counts * (N / (total * grid.dx * grid.dy))
    return DensityGrid(grid, vals)
