import math
import sys

import numpy as np
import pytest

from ellipsegas import (ChainSettings, DomainError, EllipseGeometry, FiniteKernel,
                        GasFamily, GridSpec, PolyKind, contains, density_chi_square,
                        ellipse_deficit, empirical_density, integrated_autocorrelation,
                        log_density, log_weight, metropolis_accept, run_chain)
from ellipsegas.geometry import log_weight_rule
from ellipsegas.sampler import (DRAW_BLOCK, STREAK_LIMIT, _coulomb_log_ratio_fsum,
                                _log_ratio)

from conftest import interior_points, wall_points

GAS = GasFamily(PolyKind.GEGENBAUER, 1.0)
GEO = EllipseGeometry(0.5)


def test_log_density_single_particle():
    gas0 = GasFamily(PolyKind.GEGENBAUER, 2.0)
    assert log_density(gas0, GEO, [0.0 + 0.0j]) == pytest.approx(0.0, abs=1e-15)


def test_log_density_matches_formula(rng):
    pts = [0.3 + 0.1j, -0.4 - 0.2j, 0.1 + 0.5j]
    ref = sum(log_weight(GAS, GEO, z) for z in pts)
    for i in range(3):
        for j in range(i + 1, 3):
            ref += 2.0 * math.log(abs(pts[i] - pts[j]))
    assert log_density(GAS, GEO, pts) == pytest.approx(ref, rel=1e-13)


def test_log_density_swap_invariance():
    pts = [0.3 + 0.1j, -0.4 - 0.2j]
    assert log_density(GAS, GEO, pts) == log_density(GAS, GEO, pts[::-1])


def test_log_density_flags():
    assert log_density(GAS, GEO, [0.1, 0.1]) == -math.inf          # coincident
    assert log_density(GAS, GEO, [5.0]) == -math.inf               # outside
    zb = complex(GEO.semi_x, 0.0)
    assert log_density(GAS, GEO, [5.0, zb]) == -math.inf


def test_exp_log_density_integrates_to_partition():
    # int int e^{log_density} = Z_2 = 2 h_0 h_1 at low precision
    from ellipsegas import QuadratureSpec, log_partition, rule_for_gas, weight
    z, w = rule_for_gas(GAS, GEO, QuadratureSpec(20, 24))
    wv = w * np.array([weight(GAS, GEO, p) for p in z])
    diff2 = np.abs(z[:, None] - z[None, :]) ** 2
    Z2 = float(np.einsum("i,j,ij->", wv, wv, diff2))
    assert math.log(Z2) == pytest.approx(log_partition(GAS, GEO, 2), abs=1e-3)
    # and log_density agrees with the tensor integrand at a sample pair
    i, j = 100, 350
    ld = log_density(GAS, GEO, [z[i], z[j]])
    ref = (math.log(weight(GAS, GEO, z[i])) + math.log(weight(GAS, GEO, z[j]))
           + 2 * math.log(abs(z[i] - z[j])))
    assert ld == pytest.approx(ref, rel=1e-12)


def test_metropolis_accept_rule():
    # acceptance probability equals min(1, r) exactly on a u-grid
    for r in (0.3, 1.0, 2.5):
        us = (np.arange(100_000) + 0.5) / 100_000
        acc = sum(metropolis_accept(math.log(r), u) for u in us) / us.size
        assert acc == pytest.approx(min(1.0, r), abs=2e-5)


def test_metropolis_accept_at_u_zero():
    # u = 0 < exp(log_ratio) exactly when the ratio is positive: a finite
    # log_ratio accepts, even one whose exp underflows; a zero-weight move
    # (log_ratio = -inf) is refused, and nan is refused at every u
    for lr in (-1e300, -745.2, -5.0, 0.0, 3.0, math.inf):
        assert metropolis_accept(lr, 0.0)
    assert not metropolis_accept(-math.inf, 0.0)
    for u in (0.0, 5e-324, 0.5, 1.0 - 2.0 ** -53):
        assert not metropolis_accept(math.nan, u)
        assert not metropolis_accept(-math.inf, u)


_TABLE_RATIOS = (math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324, -1.0)
_TABLE_US = (0.0, 5e-324, 0.3, 0.5, 1.0 - 2.0 ** -53)


def test_metropolis_accept_and_the_block_rule_agree():
    # the chain compares each step's log-ratio with the log-uniforms of its
    # block; one table for both, against u < min(1, exp(log_ratio)) decided
    # by hand: only nan and -inf are refused at every u, and -1 is refused
    # where log u >= -1
    from ellipsegas.sampler import _log_uniforms

    refused = {(-1.0, u) for u in _TABLE_US if u > math.exp(-1.0)}
    for block in (list(_TABLE_US), [u for u in _TABLE_US if u > 0.0]):
        log_us = _log_uniforms(block)
        assert log_us == [math.log(u) if u > 0.0 else -math.inf for u in block]
        for lr in _TABLE_RATIOS:
            for u, log_u in zip(block, log_us):
                expected = not (math.isnan(lr) or lr == -math.inf or (lr, u) in refused)
                assert (log_u < lr) is expected, (lr, u)
                assert metropolis_accept(lr, u) is expected, (lr, u)


def _refusing_at_u_zero(calls):
    """A block rule that decides the other way at u = 0, where every move
    with a log-ratio above -inf is accepted: it refuses them all; calls
    collects the uniforms it is given."""
    def rule(us):
        calls.extend(us)
        return [math.log(u) if u > 0.0 else math.inf for u in us]
    return rule


@pytest.mark.parametrize("seed, N", [(42, 4), (12, 4), (1, 8)])
def test_u_zero_rule_keeps_the_chains(monkeypatch, seed, N):
    # only a u = 0 draw decides differently, so the chains of the test seeds
    # are unchanged; the patched rule is the one the chain reads, once for
    # each step's uniform
    import ellipsegas.sampler as sampler

    settings = ChainSettings(steps=20_000, burn_in=1000, thin=100, seed=seed)
    s1, acc1 = run_chain(GAS, GEO, N, settings)
    calls = []
    monkeypatch.setattr(sampler, "_log_uniforms", _refusing_at_u_zero(calls))
    s2, acc2 = run_chain(GAS, GEO, N, settings)
    assert len(calls) == settings.steps and 0.0 not in calls
    assert acc1 == acc2
    np.testing.assert_array_equal(np.array(s1), np.array(s2))


def test_u_zero_patch_changes_a_chain_that_draws_zero(monkeypatch):
    # the test above is not vacuous: with every uniform drawn as 0, the rule
    # accepts each proposal inside the wall and the patched rule none
    import ellipsegas.sampler as sampler

    settings = ChainSettings(steps=500, burn_in=0, thin=1, seed=3)
    real = sampler._log_uniforms
    monkeypatch.setattr(sampler, "_log_uniforms", lambda us: real([0.0] * len(us)))
    _, acc1 = run_chain(GAS, GEO, 4, settings)
    monkeypatch.setattr(sampler, "_log_uniforms",
                        lambda us: _refusing_at_u_zero([])([0.0] * len(us)))
    _, acc2 = run_chain(GAS, GEO, 4, settings)
    assert acc1 > 0.5 and acc2 == 0.0


def test_detailed_balance_two_state_toy():
    # discretized two-state chain: symmetric proposal, Metropolis acceptance;
    # the exact transition matrix fixes pi = (p0, p1)/(p0+p1)
    p0, p1 = 2.0, 0.5
    a01 = min(1.0, p1 / p0)
    a10 = min(1.0, p0 / p1)
    T = np.array([[1 - a01, a01], [a10, 1 - a10]])
    pi = np.array([p0, p1]) / (p0 + p1)
    np.testing.assert_allclose(pi @ T, pi, atol=1e-15)
    # and the implemented rule reproduces the acceptance probabilities
    us = (np.arange(200_000) + 0.5) / 200_000
    emp01 = np.mean([metropolis_accept(math.log(p1 / p0), u) for u in us])
    assert emp01 == pytest.approx(a01, abs=1e-5)


def test_chain_seed_determinism():
    settings = ChainSettings(steps=4000, burn_in=500, thin=50, seed=42)
    s1, acc1 = run_chain(GAS, GEO, 4, settings)
    s2, acc2 = run_chain(GAS, GEO, 4, settings)
    assert acc1 == acc2
    assert len(s1) == len(s2)
    for c1, c2 in zip(s1, s2):
        np.testing.assert_array_equal(c1, c2)
    s3, _ = run_chain(GAS, GEO, 4, ChainSettings(steps=4000, burn_in=500, thin=50, seed=43))
    assert not np.array_equal(s1[0], s3[0])


def test_chain_stays_inside_domain():
    samples, acc = run_chain(GAS, GEO, 6, ChainSettings(steps=3000, burn_in=100, thin=29, seed=3))
    assert 0.1 < acc < 0.9
    for conf in samples:
        assert all(contains(GEO, z) for z in conf)


def test_chain_settings_validation():
    with pytest.raises(DomainError):
        ChainSettings(steps=100, burn_in=100)
    with pytest.raises(DomainError):
        ChainSettings(steps=100, burn_in=10, thin=0)
    with pytest.raises(DomainError):
        ChainSettings(steps=100, burn_in=10, proposal_sigma=-1.0)


def test_empirical_density_single_sample():
    grid = GridSpec((-1.5, 1.5), (-1.0, 1.0), 6, 4)
    dg = empirical_density([np.array([0.2 + 0.3j])], grid)
    assert np.count_nonzero(dg.values) == 1
    assert dg.mass() == pytest.approx(1.0, rel=1e-12)


@pytest.mark.parametrize("samples", [[], np.empty((0, 3), dtype=complex)])
def test_no_configuration_is_refused_by_the_function_name(samples):
    # density_chi_square raised numpy's "need at least one array to concatenate"
    grid = GridSpec((-1.5, 1.5), (-1.0, 1.0), 6, 4)
    kern = FiniteKernel(GAS, GEO, 3)
    with pytest.raises(DomainError, match="^density_chi_square needs at least one configuration$"):
        density_chi_square(samples, kern, grid)
    with pytest.raises(DomainError, match="^empirical_density needs at least one configuration$"):
        empirical_density(samples, grid)


def test_empirical_density_normalization_algebraic():
    samples, _ = run_chain(GAS, GEO, 5, ChainSettings(steps=2000, burn_in=100, thin=10, seed=9))
    grid = GridSpec((-GEO.semi_x, GEO.semi_x), (-GEO.semi_y, GEO.semi_y), 10, 10)
    dg = empirical_density(samples, grid)
    assert dg.mass() == pytest.approx(5.0, rel=1e-12)


def test_empirical_symmetry_long_chain():
    # Gegenbauer weight has x -> -x symmetry; the long-run histogram does too
    samples, _ = run_chain(GAS, GEO, 5, ChainSettings(
        steps=400_000, burn_in=40_000, thin=200, seed=11))
    grid = GridSpec((-1.2, 1.2), (-0.8, 0.8), 8, 6)
    dg = empirical_density(samples, grid)
    mirrored = dg.values[::-1, :]
    asym = np.abs(dg.values - mirrored).sum() / dg.values.sum()
    assert asym < 0.12


def _bin_averaged_reference(kern, grid):
    """Kernel-diagonal bin averages over fully interior bins (3x3 midpoints);
    mask of the selected bins."""
    offsets = (np.arange(3) + 0.5) / 3.0
    ref = np.zeros((grid.nx, grid.ny))
    mask = np.zeros((grid.nx, grid.ny), dtype=bool)
    for ix in range(grid.nx):
        x0 = grid.x_range[0] + ix * grid.dx
        for iy in range(grid.ny):
            y0 = grid.y_range[0] + iy * grid.dy
            corners = [complex(x0, y0), complex(x0 + grid.dx, y0),
                       complex(x0, y0 + grid.dy), complex(x0 + grid.dx, y0 + grid.dy)]
            if not all(contains(kern.geometry, c) for c in corners):
                continue
            sub = np.array([complex(x0 + ox * grid.dx, y0 + oy * grid.dy)
                            for ox in offsets for oy in offsets])
            ref[ix, iy] = float(np.mean(np.real(kern.diagonal(sub))))
            mask[ix, iy] = True
    return ref, mask


def test_density_chi_square_matches_per_bin_sum(rng):
    # one batched diagonal call gives the chi^2 of the bin-by-bin loop
    from conftest import interior_points
    kern = FiniteKernel(GAS, GEO, 5)
    grid = GridSpec((-GEO.semi_x, GEO.semi_x), (-GEO.semi_y, GEO.semi_y), 12, 12)
    samples = [np.array(interior_points(GEO, 5, rng, shrink=1.0)) for _ in range(400)]
    chi2, dof = density_chi_square(samples, kern, grid, min_expected=2.0)
    ref, mask = _bin_averaged_reference(kern, grid)
    zs = np.concatenate(samples)
    counts, _, _ = np.histogram2d(zs.real, zs.imag, bins=[grid.nx, grid.ny],
                                  range=[list(grid.x_range), list(grid.y_range)])
    ref_chi2, ref_dof = 0.0, 0
    for ix, iy in zip(*np.nonzero(mask)):
        expected = len(samples) * ref[ix, iy] * grid.dx * grid.dy
        if expected >= 2.0:
            ref_chi2 += (counts[ix, iy] - expected) ** 2 / expected
            ref_dof += 1
    assert dof == ref_dof > 20
    assert chi2 == pytest.approx(ref_chi2, rel=1e-12)


def test_monte_carlo_error_scaling():
    # L1 distance to the kernel diagonal over interior bins shrinks roughly
    # like 1/sqrt(M); bin-averaged reference removes the discretization bias
    kern = FiniteKernel(GAS, GEO, 5)
    # grid covers the full ellipse so the algebraic normalization matches N
    ex, ey = 1.001 * GEO.semi_x, 1.001 * GEO.semi_y
    grid = GridSpec((-ex, ex), (-ey, ey), 10, 8)
    ref, mask = _bin_averaged_reference(kern, grid)
    errs = []
    for steps in (20_000, 200_000, 2_000_000):
        samples, _ = run_chain(GAS, GEO, 5, ChainSettings(
            steps=steps, burn_in=steps // 10, thin=50, seed=5))
        dg = empirical_density(samples, grid)
        errs.append(np.abs(dg.values - ref)[mask].mean())
    slope = np.polyfit(np.log([2e4, 2e5, 2e6]), np.log(errs), 1)[0]
    assert errs[2] < errs[0]
    assert -0.75 < slope < -0.25


def test_particle_configuration_type():
    from ellipsegas import ParticleConfiguration
    conf = ParticleConfiguration.create(GEO, [0.1, 0.2 + 0.3j])
    assert len(conf) == 2
    assert log_density(GAS, GEO, list(conf)) > -math.inf
    with pytest.raises(DomainError):
        ParticleConfiguration.create(GEO, [0.1, 0.1])
    with pytest.raises(DomainError):
        ParticleConfiguration.create(GEO, [5.0])
    with pytest.raises(DomainError):
        ParticleConfiguration.create(GEO, [])


def test_zero_acceptance_streak_warns():
    # an absurd proposal scale rejects every move; the chain still progresses
    # and emits the diagnostics warning past 1e5 rejections
    settings = ChainSettings(steps=100_100, burn_in=10, thin=50_000,
                             proposal_sigma=1e6, seed=0)
    with pytest.warns(UserWarning, match="zero-acceptance"):
        samples, acc = run_chain(GAS, GEO, 3, settings)
    assert acc == 0.0
    assert len(samples) == 3


def _step_gases():
    for kind in (PolyKind.GEGENBAUER, PolyKind.JACOBI_PLUS, PolyKind.JACOBI_MINUS):
        for a in (-0.9, 0.0, 2.5):
            yield GasFamily(kind, a)
    for kind in (PolyKind.CHEBYSHEV_T, PolyKind.CHEBYSHEV_U, PolyKind.CHEBYSHEV_V):
        yield GasFamily(kind)


def _step_log_ratio(rule, geo, pts, j, znew):
    """The chain's log-ratio for moving particle j of pts to znew, with the
    log-weights the chain keeps."""
    lw_old = rule(pts[j].real, pts[j].imag, float(ellipse_deficit(geo, pts[j])))
    lw_new = rule(znew.real, znew.imag, float(ellipse_deficit(geo, znew)))
    return _log_ratio(pts, j, znew, lw_new, lw_old)


def test_step_log_ratio_equals_log_density_difference(rng):
    # every family, a on both sides of 0, tau from 1e-3 to 0.99; proposals
    # inside, exactly on the wall, onto the foci and z = -1 (the +-inf flags)
    # and onto another particle
    checked = {-math.inf: 0, math.inf: 0, "finite": 0}
    for tau in (1e-3, 0.5, 0.99):
        geo = EllipseGeometry(tau)
        targets = interior_points(geo, 4, rng) + wall_points(geo, 3) + [1.0 + 0j, -1.0 + 0j]
        for gas in _step_gases():
            rule = log_weight_rule(gas, geo)
            pts = interior_points(geo, 5, rng)
            before = log_density(gas, geo, pts)
            assert math.isfinite(before)
            for j in range(len(pts)):
                for znew in targets + [pts[(j + 1) % len(pts)]]:
                    after = log_density(gas, geo, pts[:j] + [znew] + pts[j + 1:])
                    got = _step_log_ratio(rule, geo, pts, j, znew)
                    if math.isinf(after):
                        assert got == after, (gas, tau, j, znew)
                        checked[after] += 1
                    else:
                        scale = max(1.0, abs(before) + abs(after))
                        assert abs(got - (after - before)) <= 1e-12 * scale, (gas, tau, j, znew)
                        checked["finite"] += 1
    assert min(checked.values()) > 50


def test_step_log_ratio_fallback_on_underflowing_product():
    # a particle moving into a tight cluster: each distance ratio is ~1e-6,
    # so the product over the cluster underflows and the step sums logs
    mpmath = pytest.importorskip("mpmath")
    geo = EllipseGeometry(0.5)
    cluster = [0.1 + 1e-6 * complex(math.cos(t), math.sin(t))
               for t in np.linspace(0.0, 2 * math.pi, 60, endpoint=False)]
    pts = cluster + [0.5 + 0.2j]
    j, znew = len(pts) - 1, 0.1 + 0.5e-6j
    p = 1.0
    for zl in pts[:j]:
        p *= abs(znew - zl) / abs(pts[j] - zl)
    assert p < 2.2250738585072014e-308            # left the normal range
    mpmath.mp.dps = 40
    exact = 2 * mpmath.log(mpmath.fprod(abs(mpmath.mpc(znew) - mpmath.mpc(zl))
                                        / abs(mpmath.mpc(pts[j]) - mpmath.mpc(zl))
                                        for zl in pts[:j]))
    got = _log_ratio(pts, j, znew, 0.0, 0.0)
    assert got == _coulomb_log_ratio_fsum(pts, j, znew)
    assert abs(got - float(exact)) <= 1e-12 * abs(float(exact))
    gas = GasFamily(PolyKind.GEGENBAUER, 1.0)
    after = log_density(gas, geo, pts[:j] + [znew])
    before = log_density(gas, geo, pts)
    rule = log_weight_rule(gas, geo)
    assert _step_log_ratio(rule, geo, pts, j, znew) == pytest.approx(
        after - before, rel=1e-12, abs=1e-12 * (abs(after) + abs(before)))
    # and the fallback agrees with the product on ordinary configurations
    rng = np.random.default_rng(4)
    for _ in range(50):
        pts = interior_points(geo, 8, rng)
        znew = interior_points(geo, 1, rng)[0]
        for j in range(8):
            assert _log_ratio(pts, j, znew, 0.0, 0.0) == pytest.approx(
                _coulomb_log_ratio_fsum(pts, j, znew), rel=1e-12, abs=1e-13)
    assert _coulomb_log_ratio_fsum(pts, 0, pts[1]) == -math.inf
    # a coincidence is -inf even onto a singular point of the weight
    assert _log_ratio(pts, 0, pts[1], math.inf, 0.0) == -math.inf


def _fallback_case(case):
    """(pts, j, znew, bound): a move whose distance products P_new, P_old
    (see `_log_ratio`) leave the normal doubles while their ratio, and each
    distance ratio, does not, and the bound on its log-ratio's error."""
    if case == "underflow":
        # the centre of a 60-point cluster of radius 1e-6 moves by 2e-7i: both
        # products are near 1e-360, and the log-ratio is about -9e-13.  The
        # bound is that of the fsum, 120 logs near 13.8, each off by at most
        # 1.1e-15, doubled: 1e-12 alone would pass 0
        cluster = [0.1 + 1e-6 * complex(math.cos(t), math.sin(t))
                   for t in np.linspace(0.0, 2 * math.pi, 60, endpoint=False)]
        return cluster + [0.1 + 0j], 60, 0.1 + 2e-7j, 2.7e-13
    if case == "overflow":
        # 120 particles over [-700, 700], inside the ellipse at tau = 1e-6
        # (semi_x about 707): both products overflow
        line = [complex(x) for x in np.linspace(-700.0, 700.0, 120)]
        return line, 0, line[0] + (0.5 + 0.3j), 1e-12
    # the modulus of P_new, 1.56e308 (1 + i), passes the doubles while its
    # parts do not, so abs(P_new) raises OverflowError; inside the ellipse
    # at tau = 1e-6 too
    phase = complex(math.cos(math.pi / 400), math.sin(math.pi / 400))
    r0 = math.exp((math.log(2.2) + 308 * math.log(10)) / 100)
    others = [600.0 - r0 * (1 + 1e-3 * (l - 49.5) / 50) * phase for l in range(100)]
    return others + [0.5 + 0j], 100, 600.0 + 0j, 1e-12


@pytest.mark.parametrize("case", ["underflow", "overflow", "modulus-overflow"])
def test_log_ratio_falls_back_when_a_product_leaves_the_doubles(case):
    mpmath = pytest.importorskip("mpmath")
    pts, j, znew, bound = _fallback_case(case)
    assert all(contains(EllipseGeometry(1e-6), z) for z in pts + [znew])
    others = pts[:j] + pts[j + 1:]
    p_new = p_old = 1.0
    for zl in others:
        p_new *= znew - zl
        p_old *= pts[j] - zl
    normal = sys.float_info.min <= abs(p_old) <= sys.float_info.max
    if case == "modulus-overflow":
        assert normal and math.isfinite(p_new.real) and math.isfinite(p_new.imag)
        with pytest.raises(OverflowError):
            abs(p_new)
    else:
        assert not normal and not sys.float_info.min <= abs(p_new) <= sys.float_info.max
    got = _log_ratio(pts, j, znew, 0.0, 0.0)
    assert got == _coulomb_log_ratio_fsum(pts, j, znew)
    mpmath.mp.dps = 40
    exact = 2 * mpmath.fsum(mpmath.log(abs(mpmath.mpc(znew) - mpmath.mpc(zl)))
                            - mpmath.log(abs(mpmath.mpc(pts[j]) - mpmath.mpc(zl)))
                            for zl in others)
    assert abs(got - float(exact)) <= bound
    # the flags of the weight pass through the fallback, and a coincidence
    # is still -inf; no case is nan
    assert _log_ratio(pts, j, znew, math.inf, 0.0) == math.inf
    assert _log_ratio(pts, j, znew, -math.inf, 0.0) == -math.inf
    for lw_new in (0.0, math.inf, -math.inf):
        assert _log_ratio(pts, j, others[0], lw_new, 0.0) == -math.inf


def test_log_ratio_skips_particle_j_by_position():
    # an entry elsewhere that is the same object as particle j is a second
    # particle at z_j: the configuration before the move is refused, not given
    # the ratio of the products that leave both entries out
    rng = np.random.default_rng(11)
    z, w, v = interior_points(GEO, 3, rng)
    znew = 0.5 * (w + v)
    for pts, j in (([z, z, w, v], 0), ([z, z, w, v], 1), ([w, z, v, z], 3),
                   ([z, complex(z.real, z.imag), w, v], 0)):
        before = list(pts)
        with pytest.raises(DomainError, match="coincident"):
            _log_ratio(pts, j, znew, 0.0, 0.0)
        assert all(a is b for a, b in zip(pts, before, strict=True))
    # on a valid configuration the list is left as it was, and the value does
    # not depend on which objects hold the positions
    pts = [z, w, v]
    copy = [complex(p.real, p.imag) for p in pts]
    got = _log_ratio(pts, 1, znew, 0.0, 0.0)
    assert pts == [z, w, v] and pts[1] is w
    assert got == _log_ratio(copy, 1, znew, 0.0, 0.0)
    assert got == pytest.approx(2.0 * math.log(abs(znew - z) * abs(znew - v)
                                               / (abs(w - z) * abs(w - v))), rel=1e-13)


def _reference_chain(gas, geo, N, settings):
    """run_chain with the acceptance ratio taken from log_density, a modulo
    test for thinning and `metropolis_accept` per step, on the same random
    numbers: the same blocks of DRAW_BLOCK draws.  Also returns the number of
    proposals that left the wall."""
    rng = np.random.Generator(np.random.PCG64(settings.seed))
    sigma = settings.proposal_sigma or 0.15 * geo.semi_y
    from ellipsegas.sampler import _initial_configuration
    pts = list(_initial_configuration(geo, N, rng))
    out, accepted, outside = [], 0, 0
    for start in range(0, settings.steps, DRAW_BLOCK):
        size = min(DRAW_BLOCK, settings.steps - start)
        js = rng.integers(N, size=size)
        moves = sigma * rng.standard_normal((size, 2))
        us = rng.random(size)
        for k in range(size):
            j = js[k]
            new = pts[:j] + [pts[j] + complex(moves[k, 0], moves[k, 1])] + pts[j + 1:]
            outside += not contains(geo, new[j])
            if contains(geo, new[j]) and metropolis_accept(
                    log_density(gas, geo, new) - log_density(gas, geo, pts), us[k]):
                pts = new
                accepted += 1
            step = start + k
            if step >= settings.burn_in and (step - settings.burn_in) % settings.thin == 0:
                out.append(np.array(pts))
    return out, accepted / settings.steps, outside


@pytest.mark.parametrize("N", [4, 16])
@pytest.mark.parametrize("family, a", [("gegenbauer", 1.5), ("jacobi-plus", 0.7),
                                       ("jacobi-minus", -0.5), ("chebyshev-t", 0.0),
                                       ("chebyshev-u", 0.0), ("chebyshev-v", 0.0)])
def test_chain_matches_log_density_reference(family, a, N):
    # across a block boundary, with a burn-in that is no multiple of thin and
    # proposals that leave the wall: configurations and acceptance bit-equal
    gas = GasFamily(PolyKind(family), a)
    geo = EllipseGeometry(0.7)
    settings = ChainSettings(steps=DRAW_BLOCK + 400, burn_in=301, thin=37,
                             proposal_sigma=0.3, seed=17 + N)
    got, acc = run_chain(gas, geo, N, settings)
    ref, ref_acc, outside = _reference_chain(gas, geo, N, settings)
    assert acc == ref_acc
    assert 0.05 < acc < 0.95 and outside > 50
    assert len(got) == len(ref) == len(range(301, DRAW_BLOCK + 400, 37))
    for c1, c2 in zip(got, ref):
        np.testing.assert_array_equal(c1, c2)


def test_a_wide_ellipse_chain_keeps_its_products_in_the_doubles(monkeypatch):
    # gegenbauer a = 1 at tau = 1e-6 (semi-axes about 707) with N = 120: in
    # plain units the distance products leave the doubles on most proposals
    # (3,113 fallbacks in these 5,000 steps at commit db3032b), in units of
    # u = 512 on none, and the configurations keep the bytes written there
    import hashlib

    import ellipsegas.sampler as sampler

    calls = []
    real = sampler._coulomb_log_ratio_fsum
    monkeypatch.setattr(sampler, "_coulomb_log_ratio_fsum",
                        lambda *args: calls.append(1) or real(*args))
    settings = ChainSettings(steps=5000, burn_in=1000, thin=100, seed=3)
    got, acc = run_chain(GAS, EllipseGeometry(1e-6), 120, settings)
    assert calls == [] and acc == 0.181
    assert hashlib.sha256(np.array(got).tobytes()).hexdigest() == \
        "10b3311271fdaa0a6f9d2b6cb0dc587cab0900f59c8c6a3b3882e5a960885c22"


@pytest.mark.parametrize("family, a", [("gegenbauer", 1.5), ("jacobi-minus", -0.5),
                                       ("chebyshev-v", 0.0)])
def test_chain_in_units_of_u_matches_log_density_reference(family, a):
    # at tau = 0.05 the chain keeps its positions in units of u = 4; the
    # reference works in plain units
    gas = GasFamily(PolyKind(family), a)
    geo = EllipseGeometry(0.05)
    settings = ChainSettings(steps=1200, burn_in=101, thin=23, proposal_sigma=1.5, seed=29)
    got, acc = run_chain(gas, geo, 6, settings)
    ref, ref_acc, outside = _reference_chain(gas, geo, 6, settings)
    assert acc == ref_acc and 0.05 < acc < 0.95 and outside > 50
    assert len(got) == len(ref)
    for c1, c2 in zip(got, ref):
        np.testing.assert_array_equal(c1, c2)


def _scripted_ratios(monkeypatch, accept_at):
    """Patch the chain's log-ratio so that the steps in accept_at are
    accepted and every other step is refused; returns the call count."""
    import ellipsegas.sampler as sampler

    calls = [0]

    def log_ratio(pts, j, znew, lw_new, lw_old):
        calls[0] += 1
        return 0.0 if calls[0] - 1 in accept_at else -math.inf
    monkeypatch.setattr(sampler, "_log_ratio", log_ratio)
    return calls


@pytest.mark.parametrize("second_accept, warns", [(STREAK_LIMIT + 1, 0), (STREAK_LIMIT + 2, 1)])
def test_streak_warning_is_exact_inside_a_block(monkeypatch, recwarn, second_accept, warns):
    # a streak of STREAK_LIMIT rejections passes, one more warns, although
    # the acceptance that ends it falls inside a block, before the block end
    # where the streak is otherwise read
    calls = _scripted_ratios(monkeypatch, {0, second_accept})
    settings = ChainSettings(steps=second_accept + 400, burn_in=0, thin=1000,
                             proposal_sigma=1e-12, seed=2)
    block_end = (second_accept // DRAW_BLOCK + 1) * DRAW_BLOCK
    assert second_accept < block_end - 100 and block_end <= settings.steps
    samples, acc = run_chain(GAS, GEO, 3, settings)
    assert calls[0] == settings.steps       # every proposal stayed inside
    assert acc == 2 / settings.steps
    assert len([w for w in recwarn if "zero-acceptance" in str(w.message)]) == warns


def test_streak_warning_is_emitted_once(monkeypatch, recwarn):
    calls = _scripted_ratios(monkeypatch, {0})
    settings = ChainSettings(steps=2 * STREAK_LIMIT + 5000, burn_in=10, thin=50_000,
                             proposal_sigma=1e-12, seed=2)
    run_chain(GAS, GEO, 3, settings)
    assert calls[0] == settings.steps
    assert len([w for w in recwarn if "zero-acceptance" in str(w.message)]) == 1


@pytest.mark.parametrize("r", [0.0, 0.5, 0.9])
def test_integrated_autocorrelation_ar1(r):
    # AR(1), x_t = r x_{t-1} + e_t, has tau_int = (1 + r)/(1 - r)
    from scipy.signal import lfilter
    n = 1_000_000
    e = np.random.default_rng(12).standard_normal(n)
    x = lfilter([1.0], [1.0, -r], e)
    tau, ess = integrated_autocorrelation(x)
    assert tau == pytest.approx((1 + r) / (1 - r), rel=0.1)
    assert ess == pytest.approx(n / tau, rel=1e-12)


def test_integrated_autocorrelation_rejects_degenerate_series():
    for bad in ([1.0], [2.0] * 10, [0.0, math.nan, 1.0], np.zeros((3, 3))):
        with pytest.raises(DomainError):
            integrated_autocorrelation(bad)


@pytest.mark.parametrize("series", [[0.0, 1.0], [1.0, -1.0] * 50, [-1.0, 1.0] * 51])
def test_integrated_autocorrelation_rejects_nonpositive_tau(series):
    # [0, 1] has rho(1) = -1/2, so tau_int(1) = 0; an alternating series
    # has rho(1) near -1 and a windowed tau_int below 0
    with pytest.raises(DomainError):
        integrated_autocorrelation(series)


def test_chain_settings_refuse_a_negative_burn_in_before_comparing_it_with_steps():
    # steps = 0 with burn_in = -1 used to pass and then divide by zero steps
    with pytest.raises(DomainError, match="integer burn_in >= 0, got -1"):
        ChainSettings(steps=0, burn_in=-1)
    with pytest.raises(DomainError, match="burn_in must be smaller than steps"):
        ChainSettings(steps=0, burn_in=0)
    assert ChainSettings(steps=1, burn_in=np.int64(0), thin=np.int64(2)).thin == 2
