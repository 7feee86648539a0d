import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ellipsegas import (DensityGrid, DomainError, EllipseGeometry, FiniteKernel, GasFamily,
                        GridSpec, PolyKind, QuadratureSpec, correlation_k,
                        density_grid, log_partition, rule_for_gas, squared_norm,
                        weight)

from conftest import interior_points


@pytest.fixture
def kernel():
    return FiniteKernel(GasFamily(PolyKind.GEGENBAUER, 1.0), EllipseGeometry(0.5), 3)


def test_one_point_correlation_is_diagonal(kernel):
    z = 0.3 + 0.2j
    assert correlation_k(kernel, [z]) == pytest.approx(kernel.eval(z, z).real, rel=1e-13)


def test_two_point_repulsion(kernel):
    z = 0.1 - 0.4j
    assert correlation_k(kernel, [z, z]) == pytest.approx(0.0, abs=1e-12)


def test_two_point_expansion_oracle(kernel, rng):
    z1, z2 = 0.3 + 0.1j, -0.25 - 0.3j
    det = correlation_k(kernel, [z1, z2])
    expanded = (kernel.eval(z1, z1).real * kernel.eval(z2, z2).real
                - abs(kernel.eval(z1, z2)) ** 2)
    assert det == pytest.approx(expanded, rel=1e-11)


def test_negative_association(kernel, rng):
    geo = kernel.geometry
    pts = interior_points(geo, 100, rng)
    for z1, z2 in zip(pts[:50], pts[50:]):
        rho2 = correlation_k(kernel, [z1, z2])
        rho11 = kernel.eval(z1, z1).real * kernel.eval(z2, z2).real
        assert rho2 <= rho11 + 1e-12


def test_permutation_invariance(kernel):
    pts = [0.3 + 0.1j, -0.2 + 0.25j, 0.5 - 0.3j]
    base = correlation_k(kernel, pts)
    assert correlation_k(kernel, pts[::-1]) == pytest.approx(base, rel=1e-11)
    assert correlation_k(kernel, [pts[1], pts[2], pts[0]]) == pytest.approx(base, rel=1e-11)


def test_empty_points_rejected(kernel):
    with pytest.raises(DomainError):
        correlation_k(kernel, [])


# ------------------------------------------------------------------- grids

def test_density_grid_mass_is_particle_number():
    # Riemann sum over cell centers approximates the trace N
    geo = EllipseGeometry(0.5)
    kern = FiniteKernel(GasFamily(PolyKind.GEGENBAUER, 1.0), geo, 4)
    ext = 1.02 * geo.semi_x
    grid = GridSpec((-ext, ext), (-ext, ext), 160, 160)
    dg = density_grid(kern, grid)
    assert dg.mass() == pytest.approx(4.0, rel=2e-2)


def test_density_grid_parity_on_symmetric_grid():
    geo = EllipseGeometry(0.5)
    kern = FiniteKernel(GasFamily(PolyKind.GEGENBAUER, 1.5), geo, 5)
    grid = GridSpec((-1.0, 1.0), (-0.6, 0.6), 24, 16)
    dg = density_grid(kern, grid)
    np.testing.assert_allclose(dg.values, dg.values[::-1, ::-1], rtol=1e-10)


def test_density_grid_fig_maps_run():
    geo = EllipseGeometry(0.5)
    kern = FiniteKernel(GasFamily(PolyKind.GEGENBAUER, 1.0), geo, 6)
    grid = GridSpec((-1.2, 1.2), (-1.2, 1.2), 12, 12)
    for rescale in ("fig1", "fig2", "fig3"):
        dg = density_grid(kern, grid, rescale=rescale)
        assert np.all(dg.values >= 0.0)
        assert dg.values.max() > 0.0


@pytest.mark.parametrize("kind", [PolyKind.CHEBYSHEV_T, PolyKind.CHEBYSHEV_V,
                                  PolyKind.JACOBI_MINUS])
def test_density_grid_is_zero_at_weight_singularities(kind):
    # a cell centre exactly on a focus: the 1/|1 +- z| weight is infinite
    # there, and the grid carries 0 instead
    from ellipsegas import log_weight
    geo = EllipseGeometry(0.5)
    gas = GasFamily(kind, 1.0 if kind is PolyKind.JACOBI_MINUS else 0.0)
    grid = GridSpec((-1.2, 1.2), (-1.2, 1.2), 6, 5)
    vals = density_grid(FiniteKernel(gas, geo, 5), grid).values
    assert np.all(np.isfinite(vals))
    singular = [(ix, iy) for ix, x in enumerate(grid.xs) for iy, y in enumerate(grid.ys)
                if log_weight(gas, geo, complex(x, y)) == math.inf]
    assert singular
    for ix, iy in singular:
        assert vals[ix, iy] == 0.0
    assert vals.max() > 0.0


def _admissible(kernel, grid, rescale):
    """The kernel argument of each cell, the prefactor, and the admissible cells."""
    from ellipsegas.correlations import _rescale
    from ellipsegas.geometry import ellipse_deficit, log_weight_values
    fmap, factor = _rescale(kernel, rescale)
    xs, ys = np.meshgrid(grid.xs, grid.ys, indexing="ij")
    w = fmap(xs + 1j * ys)
    ok = ellipse_deficit(kernel.geometry, w) >= 0.0
    ok[ok] = log_weight_values(kernel.gas, kernel.geometry, w[ok]) < math.inf
    return w, factor, ok


def _every_cell(kernel, grid, rescale):
    """The grid with every admissible cell evaluated, in one batch."""
    w, factor, ok = _admissible(kernel, grid, rescale)
    vals = np.zeros((grid.nx, grid.ny))
    vals[ok] = factor * kernel.diagonal(w[ok])
    return vals


def _mirrored_rows(grid):
    """The rows above the middle whose centre is exactly minus their mirror's."""
    row = np.arange(grid.ny)
    return (row > row[::-1]) & (grid.ys == -grid.ys[::-1])


def _mirrored_columns(grid):
    """The columns right of the middle whose centre is exactly minus their mirror's."""
    col = np.arange(grid.nx)
    return (col > col[::-1]) & (grid.xs == -grid.xs[::-1])


def _figure_window(gas, tau, N, rescale, a):
    """1.05 x the bounding box of the domain in figure coordinates."""
    geo = EllipseGeometry(tau)
    f = {"none": 1.0, "fig1": math.sqrt(2 * tau), "fig2": 1.0,
         "fig3": math.sqrt(2 * tau * a / N)}[rescale]
    sx, sy = 1.05 * geo.semi_x * f, 1.05 * geo.semi_y * (N if rescale == "fig2" else f)
    return (-sx, sx), (-sy, sy)


_MIRROR_CASES = [(kind, rescale) for kind in PolyKind
                 for rescale in ("none", "fig1", "fig2", "fig3")
                 if not (rescale == "fig3" and kind.value.startswith("chebyshev"))]


@pytest.mark.parametrize("ny", [63, 64, 80, 81])
@pytest.mark.parametrize("kind, rescale", _MIRROR_CASES)
def test_mirrored_rows_are_the_evaluated_rows_bit_for_bit(kind, rescale, ny):
    N, tau = 14, 0.35
    a = 0.0 if kind.value.startswith("chebyshev") else (2.5 * N if rescale == "fig3" else 0.7)
    gas = GasFamily(kind, a)
    kern = FiniteKernel(gas, EllipseGeometry(tau), N)
    grid = GridSpec(*_figure_window(gas, tau, N, rescale, a), 9, ny)
    assert _mirrored_rows(grid).any()
    got = density_grid(kern, grid, rescale=rescale).values
    want = _every_cell(kern, grid, rescale)
    assert want.max() > 0.0
    np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


_X_EVEN = (PolyKind.GEGENBAUER, PolyKind.CHEBYSHEV_T, PolyKind.CHEBYSHEV_U)


@pytest.mark.parametrize("nx", [9, 10, 80, 81])
@pytest.mark.parametrize("kind, rescale", _MIRROR_CASES)
def test_mirrored_columns_are_the_evaluated_columns_bit_for_bit(kind, rescale, nx):
    # a_n = 0 and a weight even in x fold the columns of the Gegenbauer and
    # Chebyshev T and U gases; Jacobi +- and Chebyshev V never fold them
    N, tau = 14, 0.35
    a = 0.0 if kind.value.startswith("chebyshev") else (2.5 * N if rescale == "fig3" else 0.7)
    gas = GasFamily(kind, a)
    kern = FiniteKernel(gas, EllipseGeometry(tau), N)
    x_range, (y0, y1) = _figure_window(gas, tau, N, rescale, a)
    grid = GridSpec(x_range, (y0, 0.9 * y1), nx, 31)      # no row mirrors
    assert _mirrored_columns(grid).any() and not _mirrored_rows(grid).any()
    seen = []
    diagonal = kern.diagonal
    kern.diagonal = lambda zs: seen.append(len(zs)) or diagonal(zs)
    got = density_grid(kern, grid, rescale=rescale).values
    del kern.diagonal
    want = _every_cell(kern, grid, rescale)
    assert want.max() > 0.0
    np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))
    folded = np.count_nonzero(want[~_mirrored_columns(grid)])
    assert seen == [folded if kind in _X_EVEN else np.count_nonzero(want)]
    assert folded < np.count_nonzero(want)


def test_mirrored_rows_never_reach_diagonal():
    kern = FiniteKernel(GasFamily(PolyKind.JACOBI_PLUS, 0.5), EllipseGeometry(0.4), 9)
    grid = GridSpec((-1.6, 1.6), (-0.8, 0.8), 10, 40)
    mirrored = _mirrored_rows(grid)
    assert mirrored.sum() == grid.ny // 2
    seen = []
    diagonal = kern.diagonal
    kern.diagonal = lambda zs: seen.append(zs.copy()) or diagonal(zs)
    got = density_grid(kern, grid).values
    assert len(seen) == 1
    ys = set(seen[0].imag.tolist())
    assert ys.isdisjoint(grid.ys[mirrored].tolist())
    assert len(seen[0]) == np.count_nonzero(got[:, ~mirrored])
    del kern.diagonal
    want = _every_cell(kern, grid, "none")
    np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("nx, ny", [(64, 64), (63, 81)])
@pytest.mark.parametrize("kind, rescale", _MIRROR_CASES)
def test_a_figure_window_evaluates_half_its_cells_a_quarter_for_the_x_even_gases(
        kind, rescale, nx, ny):
    N, tau = 14, 0.35
    a = 0.0 if kind.value.startswith("chebyshev") else (2.5 * N if rescale == "fig3" else 0.7)
    gas = GasFamily(kind, a)
    kern = FiniteKernel(gas, EllipseGeometry(tau), N)
    grid = GridSpec(*_figure_window(gas, tau, N, rescale, a), nx, ny)
    assert _mirrored_rows(grid).sum() == ny // 2 and _mirrored_columns(grid).sum() == nx // 2
    seen = []
    diagonal = kern.diagonal
    kern.diagonal = lambda zs: seen.append(len(zs)) or diagonal(zs)
    got = density_grid(kern, grid, rescale=rescale).values
    del kern.diagonal
    want = _every_cell(kern, grid, rescale)
    np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))
    ok = _admissible(kern, grid, rescale)[2]
    x_even = kind in _X_EVEN
    assert seen == [np.count_nonzero(ok[:(nx + 1) // 2 if x_even else nx, :(ny + 1) // 2])]
    if nx % 2 == 0 and ny % 2 == 0:
        assert seen[0] * (4 if x_even else 2) == np.count_nonzero(ok)


@settings(max_examples=200, deadline=None)
@given(st.floats(-1e3, 1e3, allow_subnormal=False), st.floats(-1e3, 1e3, allow_subnormal=False),
       st.integers(1, 300))
def test_cell_centres_are_taken_from_the_nearer_edge(a, b, n):
    lo, hi = sorted((a, b))
    assume(hi - lo > 1e-290)
    grid = GridSpec((lo, hi), (-hi, -lo), n, n)
    xs = grid.xs
    i = np.arange(n)
    lower = i <= i[::-1]
    # the reflected window's centres are the negated, reversed ones, except
    # the middle cell of an odd count: both windows take it from their lower
    # edge, so it mirrors only when lo = -hi
    odd_middle = i == i[::-1]
    np.testing.assert_array_equal(grid.ys[~odd_middle], -xs[::-1][~odd_middle])
    np.testing.assert_array_equal(xs[lower].view(np.int64),
                                  (lo + (i[lower] + 0.5) * grid.dx).view(np.int64))
    # first-order rounding bound, with u = 2^-53: the width, the cell width and
    # the offset from the nearer edge each round once, an error of u times the
    # offset t apiece, and the sum rounds once, so |c - exact| <= u (|c| + 3 t)
    u = Fraction(1, 2 ** 53)
    width = Fraction(hi) - Fraction(lo)
    for j, c in enumerate(xs.tolist()):
        exact = Fraction(lo) + (2 * j + 1) * width / (2 * n)
        offset = min(2 * j + 1, 2 * (n - j) - 1) * width / (2 * n)
        assert abs(Fraction(c) - exact) <= u * (abs(exact) + 3 * offset) * (1 + 4 * u), (j, c)


def test_a_window_where_no_row_mirrors_evaluates_every_cell():
    # nor any column: the Gegenbauer columns of an x-symmetric window mirror
    kern = FiniteKernel(GasFamily(PolyKind.GEGENBAUER, 1.0), EllipseGeometry(0.5), 8)
    grid = GridSpec((-1.2, 1.1), (-0.3, 0.5), 12, 16)
    assert not _mirrored_rows(grid).any() and not _mirrored_columns(grid).any()
    seen = []
    diagonal = kern.diagonal
    kern.diagonal = lambda zs: seen.append(len(zs)) or diagonal(zs)
    got = density_grid(kern, grid).values
    assert seen == [np.count_nonzero(got)]
    del kern.diagonal
    want = _every_cell(kern, grid, "none")
    np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


def test_a_fold_to_one_point_evaluates_one_cell_with_the_bits_of_both():
    # the two admissible cells mirror each other: the lower one is streamed
    # alone, as a batch of one point, and the upper one copied from it, with
    # the bits of the two streamed as one batch
    kern = FiniteKernel(GasFamily(PolyKind.JACOBI_MINUS, 0.5), EllipseGeometry(0.5), 30)
    grid = GridSpec((0.1, 0.3), (-0.25, 0.25), 1, 2)
    assert _mirrored_rows(grid).tolist() == [False, True]
    seen = []
    diagonal = kern.diagonal
    kern.diagonal = lambda zs: seen.append(len(zs)) or diagonal(zs)
    got = density_grid(kern, grid).values
    assert seen == [1]
    del kern.diagonal
    want = _every_cell(kern, grid, "none")
    assert np.all(want > 0.0)
    np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


def test_fig1_concentration_at_small_tau():
    # tau = 0.005, N = 10, a = 1 (the figure's parameters): the exact mass
    # fraction beyond |z| = 0.8 is 1 - q(n)-sums ~ 0.656; with N = 20 the
    # same map concentrates past 80 percent
    geo = EllipseGeometry(0.005)
    kern = FiniteKernel(GasFamily(PolyKind.GEGENBAUER, 1.0), geo, 10)
    grid = GridSpec((-1.1, 1.1), (-1.1, 1.1), 90, 90)
    dg = density_grid(kern, grid, rescale="fig1")
    xs, ys = np.meshgrid(grid.xs, grid.ys, indexing="ij")
    far = np.hypot(xs, ys) > 0.8
    frac10 = dg.values[far].sum() / dg.values.sum()
    assert frac10 == pytest.approx(0.656, abs=0.02)
    kern20 = FiniteKernel(GasFamily(PolyKind.GEGENBAUER, 1.0), geo, 20)
    dg20 = density_grid(kern20, grid, rescale="fig1")
    frac20 = dg20.values[far].sum() / dg20.values.sum()
    assert frac20 >= 0.8


def test_grid_validation():
    with pytest.raises(DomainError):
        GridSpec((0.0, 1.0), (0.0, 1.0), 0, 4)
    with pytest.raises(DomainError):
        GridSpec((1.0, 0.0), (0.0, 1.0), 4, 4)
    # a density grid's values take the shape of its spec
    with pytest.raises(DomainError, match=r"^values shape must be \(nx, ny\)$"):
        DensityGrid(GridSpec((-1.0, 1.0), (-1.0, 1.0), 3, 3), np.zeros((2, 2)))


@pytest.mark.parametrize("nx, ny", [(100_000, 100_000), (1025, 1024), (1, 2 ** 20 + 1),
                                    (10 ** 12, 1)])
def test_grid_refuses_more_than_its_cap_of_cells_by_name(nx, ny):
    with pytest.raises(DomainError, match=rf"^grid needs nx, ny >= 1 and nx \* ny <= 1048576, "
                                          rf"got {nx}, {ny}$"):
        GridSpec((0.0, 1.0), (0.0, 1.0), nx, ny)


@pytest.mark.parametrize("nx, ny", [(1024, 1024), (1, 2 ** 20), (64, 64), (12, 12), (160, 160)])
def test_grid_takes_the_sizes_in_use(nx, ny):
    # the cap, the density command's default, sample's grid and the largest test grid
    assert GridSpec((0.0, 1.0), (0.0, 1.0), nx, ny).xs.size == nx


def test_grid_ranges_must_be_finite():
    # a nan bound passed the increasing check and wrote nan coordinates
    for bad in [(math.nan, 1.0), (0.0, math.inf), (-math.inf, 0.0), (1.0, 1.0),
                (-1e308, 1.7e308)]:
        with pytest.raises(DomainError):
            GridSpec(bad, (0.0, 1.0), 4, 4)
        with pytest.raises(DomainError):
            GridSpec((0.0, 1.0), bad, 4, 4)


# ---------------------------------------------------------------- partition

def test_log_partition_examples():
    geo = EllipseGeometry(0.6)
    gas = GasFamily(PolyKind.GEGENBAUER, 0.0)
    assert log_partition(gas, geo, 1) == pytest.approx(math.log(2 * math.pi / 3), rel=1e-12)
    lh0 = squared_norm(gas, geo, 0)
    lh1 = squared_norm(gas, geo, 1)
    assert log_partition(gas, geo, 2) == pytest.approx(math.log(2.0) + lh0 + lh1, rel=1e-12)


def test_log_partition_recursion_from_positive_norms():
    # positivity of the h_n makes ln Z_N real and finite with the exact
    # recursion ln Z_{N+1} = ln Z_N + ln(N+1) + ln h_N
    geo = EllipseGeometry(0.4)
    gas = GasFamily(PolyKind.JACOBI_PLUS, 1.0)
    for N in range(1, 7):
        lz = log_partition(gas, geo, N)
        assert math.isfinite(lz)
        step = math.log(N + 1) + squared_norm(gas, geo, N)
        assert log_partition(gas, geo, N + 1) == pytest.approx(lz + step, rel=1e-12)


def test_log_partition_brute_force_quadrature_N2():
    # Z_2 = int int w(z1) w(z2) |z1-z2|^2 = 2 h_0 h_1, via the 4D tensor rule
    a, tau = 1.0, 0.5
    geo = EllipseGeometry(tau)
    gas = GasFamily(PolyKind.GEGENBAUER, a)
    z, w = rule_for_gas(gas, geo, QuadratureSpec(24, 32))
    wv = w * np.array([weight(gas, geo, p) for p in z])
    diff2 = np.abs(z[:, None] - z[None, :]) ** 2
    Z2 = float(np.einsum("i,j,ij->", wv, wv, diff2))
    assert math.log(Z2) == pytest.approx(log_partition(gas, geo, 2), abs=1e-3)


# ----------------------------------------- correlation_k's kernel contract

# a 5-point determinant at the left focus of the jacobi-minus gas whose
# imaginary residue exceeds 1e-9 of its magnitude, so correlation_k refuses it
REFUSED_GAS = GasFamily(PolyKind.JACOBI_MINUS, 2.0962118349496284)
REFUSED_TAU, REFUSED_N = 0.9998887448642737, 118
REFUSED_POINTS = [-1.0000253920942512 - 1.3745979272781512e-05j,
                  -0.9999353930888674 + 6.663360798739717e-05j,
                  -0.9999171652330454 + 5.639252225265391e-05j,
                  -0.9999869126815921 - 8.166232108575898e-06j,
                  -0.9999323971065032 + 5.048685523779809e-05j]


def _det_or_refusal(kernel, points):
    try:
        return correlation_k(kernel, points)
    except RuntimeError as exc:
        return str(exc)


@pytest.mark.parametrize("gas,tau,N,points", [
    (GasFamily(PolyKind.GEGENBAUER, 1.0), 0.5, 30,
     [0.3 + 0.1j, -0.2 + 0.25j, 0.5 - 0.3j, 0.0, 0.1 - 0.1j]),
    (REFUSED_GAS, REFUSED_TAU, REFUSED_N, REFUSED_POINTS),
], ids=["answered", "refused"])
def test_wrapped_finite_kernel_gets_k_squared_calls_and_the_same_determinant(
        gas, tau, N, points):
    geo = EllipseGeometry(tau)
    kern = FiniteKernel(gas, geo, N)
    calls = []

    def wrapper(z1, z2):
        calls.append((z1, z2))
        return kern(z1, z2)

    wrapped = _det_or_refusal(wrapper, points)
    assert len(calls) == len(points) ** 2
    assert calls == [(zi, zj) for zi in points for zj in points]
    bare = _det_or_refusal(FiniteKernel(gas, geo, N), points)
    assert type(wrapped) is type(bare) and wrapped == bare
    assert isinstance(bare, str) == (gas is REFUSED_GAS)
