"""k-point correlation functions, density grids, log-partition function."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError
from .geometry import (RESCALE_MAPS, EllipseGeometry, GasFamily, PolyKind, _check,
                       ellipse_deficit, log_weight_values)
from .kernels_finite import FiniteKernel
from .polynomials import log_squared_norms
from .specialfns import ln_gamma


def correlation_k(kernel, points) -> float:
    """rho_k(z_1..z_k) = det[K(z_i, z_j)] for any evaluable kernel.

    The matrix is Hermitian up to roundoff, so the determinant is real; the
    imaginary residue is checked against 1e-9 of the magnitude and dropped.
    """
    pts = [complex(p) for p in points]
    if not pts:
        raise DomainError("correlation_k needs at least one point")
    k = len(pts)
    mat = np.empty((k, k), dtype=complex)
    for i, zi in enumerate(pts):
        for j, zj in enumerate(pts):
            mat[i, j] = kernel(zi, zj)
    det = complex(np.linalg.det(mat))
    scale = max(abs(det), 1.0)
    if abs(det.imag) > 1e-9 * scale:
        raise RuntimeError(f"determinant is not numerically real: {det}")
    return det.real


# the most cells that a GridSpec takes: on a 2-vCPU VM `density` on a
# 1024 x 1024 grid took 0.69 s and 220 MB, about 210 B a cell
_MAX_CELLS = 2 ** 20


def _centres(lo: float, hi: float, n: int, d: float) -> np.ndarray:
    """Centres of n cells of width d on [lo, hi], each from the nearer edge."""
    i = np.arange(n)
    lower = i <= i[::-1]
    k = np.where(lower, i, i[::-1]) + 0.5
    return np.where(lower, lo + k * d, hi - k * d)


@dataclass(frozen=True)
class GridSpec:
    """nx x ny cells of widths dx = (x1 - x0)/nx and dy = (y1 - y0)/ny.

    Cell i of an axis with n cells is centred at lo + (i + 1/2) d on the
    lower half (i <= n - 1 - i) and at hi - (n - i - 1/2) d on the upper
    half, so that on a window with lo = -hi every upper centre is exactly
    minus its mirror's (rounding to nearest is odd).  Its distance from the
    exact centre is at most u (|c| + 3 t) to first order, u = 2^-53 and t
    the offset from the nearer edge: the width, the cell width, the offset
    and the sum each round once.
    """

    x_range: tuple[float, float]
    y_range: tuple[float, float]
    nx: int
    ny: int

    def __post_init__(self):
        if not (min(self.nx, self.ny) >= 1 and self.nx * self.ny <= _MAX_CELLS):
            raise DomainError(f"grid needs nx, ny >= 1 and nx * ny <= {_MAX_CELLS}, "
                              f"got {self.nx}, {self.ny}")
        if not (0.0 < self.dx < math.inf and 0.0 < self.dy < math.inf):
            raise DomainError("grid ranges must be finite and increasing")

    @property
    def dx(self) -> float:
        return (self.x_range[1] - self.x_range[0]) / self.nx

    @property
    def dy(self) -> float:
        return (self.y_range[1] - self.y_range[0]) / self.ny

    @property
    def xs(self) -> np.ndarray:
        """Cell-center abscissae."""
        return _centres(*self.x_range, self.nx, self.dx)

    @property
    def ys(self) -> np.ndarray:
        return _centres(*self.y_range, self.ny, self.dy)


@dataclass
class DensityGrid:
    """rho_1 sampled on cell centers; zero outside the admissible domain."""

    spec: GridSpec
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.values.shape != (self.spec.nx, self.spec.ny):
            raise DomainError("values shape must be (nx, ny)")

    @property
    def cell_area(self) -> float:
        return self.spec.dx * self.spec.dy

    def mass(self) -> float:
        return float(np.sum(self.values)) * self.cell_area


def _rescale(kernel: FiniteKernel, name: str):
    tau = kernel.geometry.tau
    N = kernel.N
    a = kernel.gas.a
    if name == "none":
        return (lambda z: z), 1.0
    if name == "fig1":
        return (lambda z: z / math.sqrt(2 * tau)), 1.0 / (2 * tau * N)
    if name == "fig2":
        return (lambda z: z.real + 1j * (z.imag / N)), 1.0 / N ** 2
    if name == "fig3":
        if a <= 0:
            raise DomainError("fig3 rescale needs a > 0")
        return (lambda z: math.sqrt(N) * z / math.sqrt(2 * tau * a)), 1.0 / (2 * tau * a)
    raise DomainError(f"unknown rescale map {name!r}; choose from {RESCALE_MAPS}")


# families whose recurrence has no constant term, a_n = 0, and whose weight
# is even in x, so that p_n(-z) = (-1)^n p_n(z) bit for bit
_X_EVEN = frozenset({PolyKind.GEGENBAUER, PolyKind.CHEBYSHEV_T, PolyKind.CHEBYSHEV_U})


def _mirrored(centres: np.ndarray) -> np.ndarray:
    """The cells past the middle whose centre is exactly minus their mirror's."""
    i = np.arange(centres.size)
    return (i > i[::-1]) & (centres == -centres[::-1])


def density_grid(kernel: FiniteKernel, grid: GridSpec, rescale: str = "none") -> DensityGrid:
    """One-point density on a grid, with one of the figure rescale maps.

    Out-of-domain nodes and the measure-zero weight singularities (the foci
    of the 1/|1 +- z| weights, the wall when a < 0) carry 0.

    K_N(zbar, zbar) is K_N(z, z) bit for bit: the recurrence coefficients are
    real, the weight and the wall test are even in y, and each rescale map
    sends zbar to the conjugate of the image of z.  So a grid row above the
    middle whose centre is exactly minus that of its mirror row is copied
    from that row, not evaluated; `GridSpec` centres each cell from the
    nearer edge, so on a window with y0 = -y1 every row pair mirrors and
    only the lower half of the rows is evaluated.  For the Gegenbauer and
    Chebyshev T and U gases K_N(-z, -z) is K_N(z, z) bit for bit as well
    (a_n = 0, a weight even in x, and odd rescale maps), so their columns
    right of the middle mirror in the same way, and on a window symmetric
    about the origin a quarter of the cells is evaluated.  A streamed point
    does not depend on the rest of its batch, a batch of one point included,
    so the values are those of evaluating every cell.
    """
    fmap, factor = _rescale(kernel, rescale)
    xs, ys = grid.xs, grid.ys
    rows = _mirrored(ys)
    cols = _mirrored(xs) & (kernel.gas.kind in _X_EVEN)
    xs, ys = np.meshgrid(xs, ys, indexing="ij")
    w = fmap(xs + 1j * ys)
    ok = ellipse_deficit(kernel.geometry, w) >= 0.0
    ok[ok] = log_weight_values(kernel.gas, kernel.geometry, w[ok]) < math.inf
    todo = ok & ~cols[:, None] & ~rows
    vals = np.zeros((grid.nx, grid.ny))
    if todo.any():
        vals[todo] = factor * kernel.diagonal(w[todo])
    vals[cols] = vals[::-1][cols]
    vals[:, rows] = vals[:, ::-1][:, rows]
    return DensityGrid(grid, vals)


def log_partition(gas: GasFamily, geometry: EllipseGeometry, N: int) -> float:
    """ln Z_N = ln N! + sum_{n<N} ln h_n (beta = 2 determinantal identity)."""
    _check("N", N)
    return float(ln_gamma(N + 1) + np.sum(log_squared_norms(gas, geometry, N - 1)))
