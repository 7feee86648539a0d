import importlib
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ellipsegas as eg
from ellipsegas import (DomainError, EllipseGeometry, GasFamily, PolyKind,
                        bulk_domain_contains, contains, edge_domain_contains,
                        ellipse_deficit, joukowsky, joukowsky_inverse, log_weight,
                        log_weight_values, mu, one_minus_mu, weight, weight_values)
from ellipsegas.geometry import _POINT_DOMAINS, KERNEL_KINDS, log_weight_rule

from conftest import interior_points, wall_points


def test_geometry_invariants():
    for tau in (0.1, 0.5, 0.9):
        geo = EllipseGeometry(tau)
        assert geo.semi_x ** 2 - geo.semi_y ** 2 == pytest.approx(1.0, rel=1e-12)
        assert geo.v > 1.0
        assert (geo.v ** 2 + geo.v ** -2) / 2 == pytest.approx(1 / tau, rel=1e-12)
    with pytest.raises(DomainError):
        EllipseGeometry(0.0)
    with pytest.raises(DomainError):
        EllipseGeometry(1.0)


def test_contains_examples():
    geo = EllipseGeometry(0.5)
    assert contains(geo, 0.0)
    assert contains(geo, 1.0) and contains(geo, -1.0)  # foci are interior
    assert not contains(geo, geo.semi_x + 1e-9)
    assert contains(geo, complex(geo.semi_x, 0.0))     # wall is inclusive


def test_weight_examples():
    geo = EllipseGeometry(0.5)
    assert weight(GasFamily(PolyKind.GEGENBAUER, 2.0), geo, 0.0) == 1.0
    # hard wall: zero for a > 0 (up to the roundoff of the boundary point)
    zb = complex(geo.semi_x, 0.0)
    assert weight(GasFamily(PolyKind.GEGENBAUER, 1.0), geo, zb) == pytest.approx(0.0, abs=1e-15)
    # Jacobi-plus at the origin: 1 - mu(0) with mu(0) = 2tau/(1-tau) (semi_x - 1)
    tau = 0.5
    mu0 = 2 * tau / (1 - tau) * (geo.semi_x - 1.0)
    got = weight(GasFamily(PolyKind.JACOBI_PLUS, 1.0), geo, 0.0)
    assert got == pytest.approx(1.0 - mu0, rel=1e-13)


def test_weight_singularities_flag_not_raise():
    geo = EllipseGeometry(0.5)
    assert weight(GasFamily(PolyKind.CHEBYSHEV_T), geo, 1.0) == math.inf
    assert weight(GasFamily(PolyKind.CHEBYSHEV_T), geo, -1.0) == math.inf
    assert weight(GasFamily(PolyKind.CHEBYSHEV_V), geo, -1.0) == math.inf
    assert weight(GasFamily(PolyKind.JACOBI_MINUS, 1.0), geo, -1.0) == math.inf
    # boundary with a < 0 is an (integrable) divergence; the representable
    # point nearest the wall already blows up, an exact-zero deficit flags inf
    zb = complex(geo.semi_x, 0.0)
    assert weight(GasFamily(PolyKind.GEGENBAUER, -0.5), geo, zb) > 1e7
    assert weight(GasFamily(PolyKind.GEGENBAUER, -0.5),
                  EllipseGeometry(0.6), complex(0.0, EllipseGeometry(0.6).semi_y)) > 1e7


def test_weight_conjugation_symmetry(rng):
    for tau in (0.3, 0.7):
        geo = EllipseGeometry(tau)
        for kind, a in ((PolyKind.GEGENBAUER, 1.5), (PolyKind.JACOBI_PLUS, 0.5),
                        (PolyKind.JACOBI_MINUS, 2.0), (PolyKind.CHEBYSHEV_T, 0.0),
                        (PolyKind.CHEBYSHEV_V, 0.0)):
            gas = GasFamily(kind, a)
            for z in interior_points(geo, 8, rng):
                assert weight(gas, geo, z) == pytest.approx(
                    weight(gas, geo, z.conjugate()), rel=1e-13)


def test_weight_parity_and_asymmetry():
    geo = EllipseGeometry(0.5)
    z = 0.4 + 0.2j
    g = GasFamily(PolyKind.GEGENBAUER, 1.0)
    assert weight(g, geo, -z) == pytest.approx(weight(g, geo, z), rel=1e-13)
    # the 1/|1+z|-type weights are not parity symmetric
    for kind in (PolyKind.JACOBI_PLUS, PolyKind.JACOBI_MINUS, PolyKind.CHEBYSHEV_V):
        gas = GasFamily(kind, 1.0 if kind is not PolyKind.CHEBYSHEV_V else 0.0)
        assert weight(gas, geo, -z) != pytest.approx(weight(gas, geo, z), rel=1e-6)


def test_mu_edge_scaling_limit():
    # 4N^2 (1 - mu(1 - Z/(2N^2))) -> s^2/4 + X - (Y/s)^2 under the weak scaling
    s, N = 1.0, 10_000
    tau = 1.0 / (1.0 + s * s / (2 * N * N))
    geo = EllipseGeometry(tau)
    for Z in (1.0 + 0j, 0.5 + 0.3j, 2.0 - 0.5j):
        z = 1.0 - Z / (2 * N * N)
        got = 4 * N * N * float(one_minus_mu(geo, z))
        ref = s * s / 4 + Z.real - (Z.imag / s) ** 2
        assert got == pytest.approx(ref, rel=1e-3)


def test_log_weight_matches_weight(rng):
    geo = EllipseGeometry(0.4)
    for kind, a in ((PolyKind.GEGENBAUER, -0.5), (PolyKind.JACOBI_MINUS, 1.0),
                    (PolyKind.CHEBYSHEV_T, 0.0)):
        gas = GasFamily(kind, a)
        for z in interior_points(geo, 6, rng):
            assert math.exp(log_weight(gas, geo, z)) == pytest.approx(
                weight(gas, geo, z), rel=1e-12)


def test_log_weight_values_match_scalar_log_weight(rng):
    # the array form keeps every convention of the scalar one: -inf where
    # the weight vanishes, +inf at singular points (foci, the wall when a < 0)
    for tau in (0.3, 0.8):
        geo = EllipseGeometry(tau)
        wall = [complex(geo.semi_x, 0.0), complex(0.0, geo.semi_y), -geo.semi_x]
        pts = interior_points(geo, 20, rng) + wall + [1.0, -1.0, 0.0]
        for kind in PolyKind:
            for a in ((-0.5, 0.0, 1.5) if kind in (PolyKind.GEGENBAUER, PolyKind.JACOBI_PLUS,
                                                   PolyKind.JACOBI_MINUS) else (0.0,)):
                gas = GasFamily(kind, a)
                got = log_weight_values(gas, geo, pts)
                ref = np.array([log_weight(gas, geo, z) for z in pts])
                np.testing.assert_allclose(got, ref, rtol=1e-13, atol=1e-13)
                np.testing.assert_allclose(weight_values(gas, geo, pts),
                                           [weight(gas, geo, z) for z in pts], rtol=1e-12)


def test_scalar_log_weight_rule_matches_array_form(rng):
    # the one scalar rule (which log_weight and the sampler call) against the
    # numpy form: within 4 ulp, and exactly equal where the array gives +-inf.
    # np.log, np.abs and their math counterparts may round apart by 1 ulp; a
    # log whose argument moves by 1 ulp moves by about 1e-16 absolute, and
    # jacobi-minus subtracts log|1+z| from a log q^a that can nearly cancel
    # it, so the ulp is counted at a scale of at least 1 and of both terms
    for tau in (1e-3, 0.3, 0.7, 0.99):
        geo = EllipseGeometry(tau)
        pts = interior_points(geo, 30, rng) + wall_points(geo, 8) + [1.0 + 0j, -1.0 + 0j]
        for kind in PolyKind:
            for a in ((-0.5, 0.0, 0.7, 2.5) if kind in (PolyKind.GEGENBAUER, PolyKind.JACOBI_PLUS,
                                                        PolyKind.JACOBI_MINUS) else (0.0,)):
                gas = GasFamily(kind, a)
                rule = log_weight_rule(gas, geo)
                ref = log_weight_values(gas, geo, pts)
                for z, want in zip(pts, ref):
                    got = rule(z.real, z.imag, float(ellipse_deficit(geo, z)))
                    assert log_weight(gas, geo, z) == got
                    if math.isinf(want):
                        assert got == want, (kind, a, tau, z)
                    else:
                        scale = max(1.0, abs(want))
                        if kind == PolyKind.JACOBI_MINUS:
                            scale = max(scale, abs(math.log(abs(1.0 + z))))
                        assert abs(got - want) <= 4 * np.spacing(scale), (kind, a, tau, z)


def test_log_weight_rule_flags_on_the_wall():
    geo = EllipseGeometry(0.5)
    for z in wall_points(geo, 4):
        q = float(ellipse_deficit(geo, z))
        assert q == 0.0
        for kind in (PolyKind.GEGENBAUER, PolyKind.JACOBI_PLUS, PolyKind.JACOBI_MINUS):
            for a, flag in ((-0.5, math.inf), (0.0, None), (2.5, -math.inf)):
                got = log_weight_rule(GasFamily(kind, a), geo)(z.real, z.imag, q)
                if flag is not None:
                    assert got == flag
                else:
                    assert math.isfinite(got)


def test_joukowsky_examples():
    assert joukowsky_inverse(1.0) == pytest.approx(1.0)
    v = 2.0
    assert joukowsky_inverse((v + 1 / v) / 2) == pytest.approx(2.0)
    assert joukowsky_inverse(1.25) == pytest.approx(2.0)


def test_joukowsky_roundtrip(rng):
    done = 0
    while done < 100:
        z = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        if abs(z.imag) < 1e-3 and abs(z.real) <= 1.0:
            continue  # branch cut
        om = joukowsky_inverse(z)
        assert abs(om) >= 1.0
        assert abs(joukowsky(om) - z) <= 1e-12 * max(1.0, abs(z))
        done += 1


def test_joukowsky_branch_cut_flagging():
    om = joukowsky_inverse(0.3)
    assert abs(om) == pytest.approx(1.0, rel=1e-12)
    assert om.imag >= 0.0


def test_bulk_domain():
    assert bulk_domain_contains(2.0, 5.0 + 0.9j)
    assert not bulk_domain_contains(2.0, 0.0 + 1.1j)
    assert bulk_domain_contains(1.0, -3.0 + 0.5j)  # boundary inclusive


def test_edge_domain():
    assert edge_domain_contains(2.0, 0.0)
    assert edge_domain_contains(2.0, -1.0 + 0j)  # vertex of the parabola
    assert not edge_domain_contains(1.0, -0.3 + 0.8j)  # 0.64 - 0.25 > -0.3


@settings(max_examples=80, deadline=None)
@given(st.floats(0.05, 0.95), st.floats(-2.0, 2.0), st.floats(-2.0, 2.0))
def test_contains_matches_deficit_sign(tau, x, y):
    geo = EllipseGeometry(tau)
    z = complex(x, y)
    q = 1 - 2 * tau / (1 + tau) * x * x - 2 * tau / (1 - tau) * y * y
    assert contains(geo, z) == (q >= 0)


# every entry point that checks a parameter of the gas or of the chain -> (the
# parameters it takes, a call built from a dict of them); each call is in its
# domain at _GOOD, so only the value under test can be refused
_GOOD = {"a": 0.5, "s": 1.0, "tau": 0.5, "N": 3, "burn_in": 1, "thin": 1,
         "proposal_sigma": 0.1, "alpha": 0.5, "gamma": -0.5}


def _entry_points():
    gas, geo = GasFamily(PolyKind.GEGENBAUER, 0.5), EllipseGeometry(0.5)
    z = 0.2 + 0.1j
    weak = {name: (("a", "s"), lambda p, f=getattr(eg, name): f(p["a"], p["s"], z, z))
            for name in ("bulk_weak", "edge_weak", "edge_weak_minus_sine",
                         "edge_weak_minus_cosine")}
    return {
        "GasFamily": (("a",), lambda p: GasFamily(PolyKind.JACOBI_PLUS, p["a"])),
        "EllipseGeometry": (("tau",), lambda p: EllipseGeometry(p["tau"])),
        **weak,
        "bulk_from_edge_check": (("a", "s"), lambda p: eg.bulk_from_edge_check(
            p["a"], p["s"], 1.0, z, z, 30.0)),
        "bulk_strong": (("a",), lambda p: eg.bulk_strong(p["a"], z, z)),
        "bessel_kernel": (("a",), lambda p: eg.bessel_kernel(p["a"], 0.5, 0.5)),
        "edge_strong": (("a",), lambda p: eg.edge_strong(p["a"], z, z)),
        "global_kernel_u": (("tau",), lambda p: eg.global_kernel_u(p["tau"], z, z)),
        "LimitKernelSpec": (("a", "s"), lambda p: eg.LimitKernelSpec(
            eg.LimitKind.BULK_WEAK, a=p["a"], s=p["s"])),
        "FiniteKernel": (("N",), lambda p: eg.FiniteKernel(gas, geo, p["N"])),
        "kernel_truncated": (("a", "N"), lambda p: eg.kernel_truncated(p["a"], p["N"], z, z)),
        "kernel_truncated_limit": (("a",), lambda p: eg.kernel_truncated_limit(p["a"], z, z)),
        "kernel_truncated_edge": (("a",), lambda p: eg.kernel_truncated_edge(p["a"], z, z)),
        "kernel_elliptic_ginibre": (("tau", "N"), lambda p: eg.kernel_elliptic_ginibre(
            p["tau"], p["N"], z, z)),
        "log_partition": (("N",), lambda p: eg.log_partition(gas, geo, p["N"])),
        "run_chain": (("N",), lambda p: eg.run_chain(gas, geo, p["N"], eg.ChainSettings(20, 1))),
        "ChainSettings": (("burn_in", "thin", "proposal_sigma"), lambda p: eg.ChainSettings(
            20, p["burn_in"], p["thin"], p["proposal_sigma"])),
        "jacobi": (("alpha", "gamma"), lambda p: eg.jacobi(3, p["alpha"], p["gamma"], 0.3)),
    }


# parameter -> (its domain as the refusal states it, values outside it)
_RULES = {"a": ("finite a > -1", [math.inf, math.nan, -1.0]),
          "s": ("finite s > 0", [math.inf, math.nan, 0.0]),
          "tau": ("tau in (0,1)", [math.inf, math.nan, 0.0, 1.0]),
          "N": ("integer N >= 1", [0, 2.5, 3.0, math.inf]),
          "burn_in": ("integer burn_in >= 0", [-1, -10, 1.5]),
          "thin": ("integer thin >= 1", [0, 2.5]),
          "proposal_sigma": ("finite proposal_sigma > 0", [math.inf, math.nan, 0.0, -1.0]),
          "alpha": ("finite alpha > -1", [math.inf, math.nan, -1.0]),
          "gamma": ("finite gamma > -1", [math.inf, math.nan, -1.5])}
_CASES = [(name, p, bad) for name, (params, _) in _entry_points().items()
          for p in params for bad in _RULES[p][1]]


@pytest.mark.parametrize("name,param,bad", _CASES)
def test_every_entry_point_refuses_a_parameter_outside_its_rule(name, param, bad):
    _, call = _entry_points()[name]
    call(dict(_GOOD, N=np.int64(3)))        # in its domain, a numpy integer N included
    with pytest.raises(DomainError, match=re.escape(_RULES[param][0])):
        call(dict(_GOOD, **{param: bad}))


def test_the_rules_live_in_one_table():
    from ellipsegas import geometry, kernels_limit
    from ellipsegas.geometry import _check

    # the kernels read the rules from geometry, a kind's through the helper
    assert kernels_limit._kind_arguments is geometry._kind_arguments
    assert kernels_limit._check is _check
    for name, (need, values) in _RULES.items():
        for value in values:
            with pytest.raises(DomainError, match=re.escape(f"{need}, got {value}")):
                _check(name, value)


# every kind, and kernel_truncated_edge, which is no kind: the parameters
# before (z1, z2), a point inside its point domain and points just outside it
_DOMAIN_CASES = {
    "finite": ((GasFamily(PolyKind.GEGENBAUER, 0.5), EllipseGeometry(0.5), 3), 0.3 + 0.1j,
               [1.23 + 0j, 0.3 + 0.9j]),
    "truncated": ((0.5, 3), 0.3 + 0.2j, [1.0 + 0j, -1j]),
    "truncated-limit": ((0.5,), 0.3 + 0.2j, [1.0 + 0j, -1j]),
    "elliptic-ginibre": ((0.5, 3), 0.3 + 0.1j, []),
    "bulk-weak": ((0.5, 1.0), 0.1 + 0.4j, [0.1 + 0.51j, -0.51j]),
    "edge-weak": ((1.0, 1.0), 0.5 + 0.3j, [-0.26 + 0j, 0.5 + 0.9j]),
    "edge-weak-minus-sine": ((1.0, 1.0), 0.5 + 0.3j, [-0.26 + 0j, 0.5 + 0.9j]),
    "edge-weak-minus-cosine": ((1.0, 1.0), 0.5 + 0.3j, [-0.26 + 0j, 0.5 + 0.9j]),
    "bulk-strong": ((0.5,), 0.1 + 0.2j, [0.1 + 0.51j, -0.51j]),
    "edge-strong": ((0.5,), 0.5 + 0.3j, [-0.01 + 0.3j]),
    "sine": ((), 0.3, [0.3 + 1e-9j]),
    "bessel": ((0.5,), 2.0, [-0.01, 2.0 + 1e-9j]),
    "ginibre": ((), 0.3 + 0.1j, []),
    "global-u": ((0.5,), 0.3 + 0.1j, [1.23 + 0j, 1.0 + 0j, -1.0 + 0j]),
    "global-t": ((0.5,), 0.3 + 0.1j, [1.23 + 0j, 1.0 + 0j, -1.0 + 0j]),
    "global-v": ((0.5,), 0.3 + 0.1j, [1.23 + 0j, 1.0 + 0j, -1.0 + 0j]),
    "global-rot-u": ((), 0.3 + 0.1j, [1.0 + 0j, -1j]),
    "global-rot-t": ((), 0.3 + 0.1j, [0j, 1.0 + 0j]),
    "global-rot-v": ((), 0.3 + 0.1j, [0j, 1.0 + 0j]),
    "kernel_truncated_edge": ((0.5,), 0.5 + 0.3j, [-0.01 + 0.3j]),
}


def _domain_kernel(kind):
    """K(z1, z2) of a kind, built from its row of KERNEL_KINDS, with the
    parameters of `_DOMAIN_CASES`."""
    params = _DOMAIN_CASES[kind][0]
    if kind == "kernel_truncated_edge":
        return lambda z1, z2: eg.kernel_truncated_edge(*params, z1, z2)
    layer, name, *_ = KERNEL_KINDS[kind]
    kernel = getattr(importlib.import_module(f"ellipsegas.{layer}"), name)
    return kernel(*params) if kind == "finite" else lambda z1, z2: kernel(*params, z1, z2)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("kind", list(_DOMAIN_CASES))
def test_every_kind_answers_inside_its_point_domain_and_refuses_outside_it(kind):
    kernel = _domain_kernel(kind)
    _, inside, outside = _DOMAIN_CASES[kind]
    domain = KERNEL_KINDS[kind][3] if kind in KERNEL_KINDS else "right half-plane"
    need = f"{kind} needs {_POINT_DOMAINS[domain][1]}, got "
    assert np.isfinite(complex(kernel(inside, inside)))
    x, y = complex(inside).real, complex(inside).imag
    bad = outside + [complex(x, v) for v in (math.nan, math.inf, -math.inf)] + [
        complex(v, y) for v in (math.nan, math.inf, -math.inf)]
    for z in bad:
        for pair in ((z, inside), (inside, z)):
            with pytest.raises(DomainError) as exc:
                kernel(*pair)
            assert type(exc.value) is DomainError and str(exc.value).startswith(need), z
    if kind == "finite":
        # the batch paths check an array of points by the same rule
        for z in bad:
            for call in (lambda: kernel.diagonal([inside, z]),
                         lambda: kernel.eval_batch(inside, [inside, z, inside])):
                with pytest.raises(DomainError) as exc:
                    call()
                assert type(exc.value) is DomainError and str(exc.value) == need + repr(z)


def test_the_point_domains_live_in_one_table():
    from ellipsegas import geometry, kernels_finite, kernels_limit, sampler

    # the kernels, and the sampler's configurations, check their points
    # through the one check of geometry, by the domain that their row names;
    # every domain serves a kind
    for layer in (kernels_limit, kernels_finite, sampler):
        assert layer._check_point is geometry._check_point
    assert {row[3] for row in KERNEL_KINDS.values()} == set(_POINT_DOMAINS)
    assert list(_DOMAIN_CASES) == [*KERNEL_KINDS, "kernel_truncated_edge"]
