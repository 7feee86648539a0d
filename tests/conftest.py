import numpy as np
import pytest

from ellipsegas import EllipseGeometry, GasFamily, PolyKind

ALL_KINDS = [PolyKind.GEGENBAUER, PolyKind.JACOBI_PLUS, PolyKind.JACOBI_MINUS,
             PolyKind.CHEBYSHEV_T, PolyKind.CHEBYSHEV_V]


def gas_cases(a_values=(-0.5, 0.0, 1.0, 2.5), taus=(0.3, 0.7)):
    """(gas, geometry) over every family; a applies where the family has one."""
    cases = []
    for tau in taus:
        for kind in ALL_KINDS:
            if kind in (PolyKind.CHEBYSHEV_T, PolyKind.CHEBYSHEV_V):
                cases.append((GasFamily(kind), EllipseGeometry(tau)))
            else:
                for a in a_values:
                    cases.append((GasFamily(kind, a), EllipseGeometry(tau)))
    return cases


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def interior_points(geometry, n, rng, shrink=0.9):
    """n random points strictly inside the ellipse (and off the foci)."""
    pts = []
    while len(pts) < n:
        x = rng.uniform(-geometry.semi_x, geometry.semi_x)
        y = rng.uniform(-geometry.semi_y, geometry.semi_y)
        z = complex(shrink * x, shrink * y)
        if (x / geometry.semi_x) ** 2 + (y / geometry.semi_y) ** 2 < 1.0 \
                and abs(z - 1) > 1e-3 and abs(z + 1) > 1e-3:
            pts.append(z)
    return pts


def wall_points(geometry, n):
    """n points whose ellipse deficit is exactly 0.0: from points spread over
    the wall, y is stepped one ulp at a time toward the wall until it lands."""
    import math

    from ellipsegas import ellipse_deficit

    pts = []
    for theta in np.linspace(0.0, 2 * math.pi, 4 * n, endpoint=False):
        x = geometry.semi_x * math.cos(theta)
        y = geometry.semi_y * math.sin(theta)
        for _ in range(64):
            q = ellipse_deficit(geometry, complex(x, y))
            if q == 0.0:
                pts.append(complex(x, y))
                break
            y = math.nextafter(y, math.inf if (q > 0.0) == (y >= 0.0) else -math.inf)
        if len(pts) == n:
            return pts
    raise AssertionError(f"found only {len(pts)} exact wall points")
