import builtins
import json
import math

import numpy as np
import pytest

from ellipsegas import (EllipseGeometry, FiniteKernel, GasFamily, GridSpec, LimitKind, PolyKind,
                        bessel_kernel, bulk_strong, bulk_weak, density_grid, edge_strong,
                        edge_weak, edge_weak_minus_cosine, edge_weak_minus_sine,
                        ginibre_kernel, global_kernel_t, global_kernel_u, global_kernel_v,
                        global_rot_t, global_rot_u, global_rot_v, kernel_elliptic_ginibre,
                        kernel_truncated, kernel_truncated_limit, sine_kernel)
from ellipsegas.cli import main
from ellipsegas.errors import DomainError, OutOfRangeError
from ellipsegas.geometry import KERNEL_KINDS


def run(args):
    return main(args)


def test_density_csv_roundtrip_and_determinism(tmp_path):
    out1 = tmp_path / "d1.csv"
    out2 = tmp_path / "d2.csv"
    args = ["density", "--family", "gegenbauer", "--a", "1", "--tau", "0.5",
            "--N", "4", "--nx", "8", "--ny", "6", "--output"]
    assert run(args + [str(out1)]) == 0
    assert run(args + [str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    lines = out1.read_text().strip().splitlines()
    assert lines[0] == "x,y,rho"
    assert len(lines) == 1 + 8 * 6
    # parsing reproduces the in-memory grid exactly
    kern = FiniteKernel(GasFamily(PolyKind.GEGENBAUER, 1.0), EllipseGeometry(0.5), 4)
    x, y, rho = (float(p) for p in lines[1].split(","))
    z = complex(x, y)
    from ellipsegas import contains
    expect = kern.eval(z, z).real if contains(kern.geometry, z) else 0.0
    assert rho == expect  # byte-exact repr round trip


def test_density_json_roundtrip(tmp_path):
    out = tmp_path / "d.json"
    assert run(["density", "--family", "gegenbauer", "--a", "1", "--tau", "0.5",
                "--N", "3", "--nx", "5", "--ny", "4", "--format", "json",
                "--output", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["nx"] == 5 and payload["ny"] == 4
    assert len(payload["values"]) == 20


def test_density_fig1_command(tmp_path):
    out = tmp_path / "fig1.csv"
    assert run(["density", "--family", "gegenbauer", "--a", "1", "--tau", "0.005",
                "--N", "10", "--rescale", "fig1", "--nx", "40", "--ny", "40",
                "--xmin", "-1.1", "--xmax", "1.1", "--ymin", "-1.1", "--ymax", "1.1",
                "--output", str(out)]) == 0
    rows = [tuple(float(v) for v in ln.split(","))
            for ln in out.read_text().strip().splitlines()[1:]]
    mass = sum(r[2] for r in rows)
    ring = sum(r[2] for r in rows if math.hypot(r[0], r[1]) > 0.8)
    assert mass > 0 and 0.5 < ring / mass < 0.8  # N=10 ring fraction ~ 0.66


def test_density_invalid_grid_exits_2(tmp_path):
    assert run(["density", "--family", "gegenbauer", "--a", "1", "--tau", "0.5",
                "--N", "4", "--nx", "0", "--output", str(tmp_path / "x.csv")]) == 2


def test_density_io_failure_exits_3():
    assert run(["density", "--family", "gegenbauer", "--a", "1", "--tau", "0.5",
                "--N", "2", "--output", "/nonexistent-dir/zzz/x.csv"]) == 3


def test_kernel_finite_value(tmp_path, capsys):
    out = tmp_path / "k.json"
    assert run(["kernel", "--kind", "finite", "--family", "gegenbauer", "--a", "0",
                "--tau", "0.6", "--N", "1", "--points", "0,0", "--output", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["values"][0]["re"] == pytest.approx(3 / (2 * math.pi), rel=1e-12)


def test_kernel_reference_diagonals(tmp_path):
    out = tmp_path / "k.json"
    assert run(["kernel", "--kind", "ginibre", "--points", "0.3,0.2",
                "--output", str(out)]) == 0
    assert json.loads(out.read_text())["values"][0]["re"] == pytest.approx(
        2 / math.pi, rel=1e-12)
    assert run(["kernel", "--kind", "sine", "--points", "0.4,0",
                "--output", str(out)]) == 0
    assert json.loads(out.read_text())["values"][0]["re"] == pytest.approx(
        1 / math.pi, rel=1e-12)


def test_kernel_inadmissible_point_exits_2(tmp_path):
    assert run(["kernel", "--kind", "bulk-weak", "--a", "1", "--s", "1",
                "--points", "0,0.9", "--output", str(tmp_path / "k.json")]) == 2


@pytest.mark.parametrize("kind, points", [("sine", "nan,0"), ("ginibre", "inf,0"),
                                          ("sine", "0,0,0,-inf")])
def test_kernel_non_finite_point_exits_2(tmp_path, capsys, kind, points):
    # a non-finite coordinate would reach the JSON as NaN or Infinity
    out = tmp_path / "k.json"
    assert run(["kernel", "--kind", kind, "--points", points, "--output", str(out)]) == 2
    assert "non-finite" in capsys.readouterr().err
    assert not out.exists()


def test_kernel_pair_points(tmp_path):
    out = tmp_path / "k.json"
    assert run(["kernel", "--kind", "bulk-weak", "--a", "1", "--s", "1",
                "--points", "0,0,0.3,0.2;0.1,0.1", "--output", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert len(payload["values"]) == 2


def test_converge_study(tmp_path):
    out = tmp_path / "c.json"
    assert run(["converge", "--study", "bulk-weak", "--a", "1", "--s", "1",
                "--schedule", "50,100,200", "--output", str(out)]) == 0
    payload = json.loads(out.read_text())
    sups = [r["sup_discrepancy"] for r in payload["rows"]]
    assert sups[0] > sups[1] > sups[2]
    assert payload["fitted_decay_exponent"] < -0.5


def test_orthocheck(tmp_path):
    out = tmp_path / "o.json"
    assert run(["orthocheck", "--family", "gegenbauer", "--a", "1", "--tau", "0.5",
                "--max-degree", "8", "--output", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["max_offdiagonal"] < 1e-8
    assert payload["max_diagonal_error"] < 1e-8
    # the singular Chebyshev-I weight, including the 2 pi log v zero mode
    assert run(["orthocheck", "--family", "chebyshev-t", "--tau", "0.5",
                "--max-degree", "8", "--output", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["max_offdiagonal"] < 1e-8
    assert payload["max_diagonal_error"] < 1e-8
    # Jacobi-minus with a focal 1/|1+z| singularity
    assert run(["orthocheck", "--family", "jacobi-minus", "--a", "0.5", "--tau", "0.5",
                "--max-degree", "8", "--output", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["max_offdiagonal"] < 1e-7


def test_orthocheck_reports_a_rule_with_fewer_nodes_than_degrees(tmp_path):
    # 21 degrees on 16 nodes give a singular Gram, whose distance from the
    # identity is what orthocheck reports; only an oversized Gram is refused
    out = tmp_path / "o.json"
    assert run(["orthocheck", "--tau", "0.5", "--radial-nodes", "4", "--angular-nodes", "4",
                "--max-degree", "20", "--output", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert max(payload["max_offdiagonal"], payload["max_diagonal_error"]) > 0.1


@pytest.mark.parametrize("family, a, tau", [("gegenbauer", "1025", "0.5"),
                                             ("jacobi-plus", "300", "1e-6")])
def test_orthocheck_answers_where_rule_factors_pass_the_double_range(tmp_path, family, a, tau):
    # 2^(a+1) at a = 1025 is past the doubles, and so is ((v-1)/2)^(a+1) of a
    # rule in the Joukowsky radius at a = 300, tau = 1e-6: the product rules
    # form neither
    out = tmp_path / "o.json"
    assert run(["orthocheck", "--family", family, "--a", a, "--tau", tau,
                "--output", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert max(payload["max_offdiagonal"], payload["max_diagonal_error"]) <= 1e-12


def test_sample_command_reproducible(tmp_path):
    out1, out2 = tmp_path / "s1.ndjson", tmp_path / "s2.ndjson"
    args = ["sample", "--family", "gegenbauer", "--a", "1", "--tau", "0.5",
            "--N", "4", "--steps", "4000", "--burn-in", "500", "--thin", "100",
            "--seed", "12", "--output"]
    assert run(args + [str(out1)]) == 0
    assert run(args + [str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    lines = out1.read_text().strip().splitlines()
    summary = json.loads(lines[-1])["summary"]
    assert summary["algorithm"] == "pcg64"
    assert 0.0 < summary["acceptance_rate"] < 1.0
    assert len(lines) - 1 == summary["configurations"]
    conf = json.loads(lines[0])["points"]
    assert len(conf) == 4


# `sample` output as commit e6bf98a wrote it: the sha256 of the configuration
# lines (every line but the summary), and the summary.  The lines move if an
# accept decision, the order of the random draws or the formatting does.  The
# summary's chi-square sums kernel values from numpy's vectorised exp and log,
# whose last bit depends on the SIMD level of the machine (75.42488657890699
# with AVX-512, 75.424886578907 without), so it and sigma_units are compared
# to 1e-12 and the other fields exactly.  The jacobi-minus chain at --sigma 0.3
# proposes 9464 of its 20000 moves past the wall.
_SAMPLE_OUTPUTS = {
    "readme": (
        "--family gegenbauer --a 1 --tau 0.5 --N 8 "
        "--steps 100000 --burn-in 10000 --thin 100 --seed 1",
        "87927500b8826bd68d417afd4d636877d5d78a0dce008eb04c432c6991acad7f",
        {"algorithm": "pcg64", "seed": 1, "acceptance_rate": 0.67391,
         "chi_square": 75.42488657890699, "dof": 88, "sigma_units": -0.9478848389529084,
         "configurations": 900}),
    "jacobi-minus-wall": (
        "--family jacobi-minus --a -0.5 --tau 0.3 --N 16 --sigma 0.3 "
        "--steps 20000 --burn-in 2000 --thin 20 --seed 5",
        "e64acce2aa8061ff6d953306522aee79b31808c555c4d284bea7bef4b5e6d024",
        {"algorithm": "pcg64", "seed": 5, "acceptance_rate": 0.1314,
         "chi_square": 332.6338615880234, "dof": 54, "sigma_units": 26.811555832198373,
         "configurations": 900}),
    "chebyshev-t": (
        "--family chebyshev-t --tau 0.7 --N 4 --steps 20000 --burn-in 2000 --thin 20 --seed 9",
        "5cee4bb530653feaf5d7e61639f51c0726492e21ece5e28fb9764b03d4ba0dfc",
        {"algorithm": "pcg64", "seed": 9, "acceptance_rate": 0.67735,
         "chi_square": 159.34622927930707, "dof": 88, "sigma_units": 5.37792438013932,
         "configurations": 900}),
}


@pytest.mark.parametrize("case", sorted(_SAMPLE_OUTPUTS))
def test_sample_output_keeps_its_bytes(tmp_path, case):
    import hashlib

    argv, digest, summary = _SAMPLE_OUTPUTS[case]
    out = tmp_path / "chain.ndjson"
    assert run(["sample", *argv.split(), "--output", str(out)]) == 0
    lines = out.read_bytes().splitlines(keepends=True)
    assert hashlib.sha256(b"".join(lines[:-1])).hexdigest() == digest
    got = json.loads(lines[-1])["summary"]
    assert lines[-1].decode() == json.dumps({"summary": got}) + "\n"
    assert list(got) == list(summary)
    for key, value in summary.items():
        if key in ("chi_square", "sigma_units"):
            assert got[key] == pytest.approx(value, rel=1e-12)
        else:
            assert got[key] == value, key


def test_sample_invalid_N_exits_2(tmp_path):
    assert run(["sample", "--family", "gegenbauer", "--a", "1", "--tau", "0.5",
                "--N", "0", "--steps", "100", "--burn-in", "10",
                "--output", str(tmp_path / "s.ndjson")]) == 2


def test_threads_env_is_not_read(tmp_path, monkeypatch):
    # main reads no environment variable: any value of ELLIPSE_GAS_THREADS,
    # however malformed, leaves the exit code and the output as they are
    args = ["kernel", "--kind", "sine", "--points", "0,0", "--output"]
    monkeypatch.delenv("ELLIPSE_GAS_THREADS", raising=False)
    assert run(args + [str(tmp_path / "plain.json")]) == 0
    for value in ("not-a-number", "0", "-3"):
        monkeypatch.setenv("ELLIPSE_GAS_THREADS", value)
        out = tmp_path / f"k{value}.json"
        assert run(args + [str(out)]) == 0
        assert out.read_bytes() == (tmp_path / "plain.json").read_bytes()


def test_converge_strong_study(tmp_path):
    out = tmp_path / "cs.json"
    assert run(["converge", "--study", "strong", "--a", "1",
                "--schedule", "10,20,40", "--output", str(out)]) == 0
    payload = json.loads(out.read_text())
    sups = [r["sup_discrepancy"] for r in payload["rows"]]
    assert sups[0] > sups[1] > sups[2]


def test_converge_strong_study_default_schedule_agrees_to_rounding(tmp_path):
    # s^2 K_weak(s z) equals K_strong(z) well below 1e-12 from s = 100 on;
    # a c-rule that does not grow with s reads 4.3e-11 and 6.7e-8 at s = 200
    # and 400, its own error rather than the limit's convergence
    out = tmp_path / "cs.json"
    assert run(["converge", "--study", "strong", "--a", "1", "--output", str(out)]) == 0
    rows = json.loads(out.read_text())["rows"]
    assert [r["s"] for r in rows] == [100, 200, 400]
    assert all(r["sup_discrepancy"] <= 1e-12 for r in rows)


def test_converge_strong_study_evaluates_the_limit_once_per_point(tmp_path, monkeypatch):
    import ellipsegas.kernels_limit as kernels_limit

    calls = []
    original = kernels_limit.bulk_strong

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(kernels_limit, "bulk_strong", counted)
    assert run(["converge", "--study", "strong", "--a", "1",
                "--schedule", "10,20,40", "--output", str(tmp_path / "cs.json")]) == 0
    assert len(calls) == 5


def test_converge_and_density_choices_come_from_their_tables(capsys):
    import ellipsegas.cli as cli
    from ellipsegas.correlations import RESCALE_MAPS

    for argv, choices in ((["converge", "--study", "nope"], list(cli._STUDIES)),
                          (["density", "--tau", "0.5", "--N", "2", "--rescale", "nope"],
                           list(RESCALE_MAPS))):
        with pytest.raises(SystemExit):
            run(argv)
        assert ", ".join(f"'{c}'" for c in choices) in capsys.readouterr().err


def test_density_fig3_command(tmp_path):
    # a = 100 interior fill: origin density well above a tenth of the max
    out = tmp_path / "fig3.json"
    assert run(["density", "--family", "gegenbauer", "--a", "100", "--tau", "0.5",
                "--N", "10", "--rescale", "fig3", "--nx", "21", "--ny", "21",
                "--xmin", "-1.4", "--xmax", "1.4", "--ymin", "-1.4", "--ymax", "1.4",
                "--format", "json", "--output", str(out)]) == 0
    payload = json.loads(out.read_text())
    vals = np.array(payload["values"]).reshape(21, 21)
    assert vals[10, 10] > 0.1 * vals.max()


def test_converge_edge_study(tmp_path):
    out = tmp_path / "ce.json"
    assert run(["converge", "--study", "edge-weak", "--a", "1", "--s", "1",
                "--schedule", "100,200,400", "--output", str(out)]) == 0
    payload = json.loads(out.read_text())
    sups = [r["sup_discrepancy"] for r in payload["rows"]]
    assert sups[0] > sups[1] > sups[2]
    assert sups[2] < 2e-3


def test_a_flag_that_a_kind_does_not_take_is_ignored(tmp_path):
    # bulk-weak reads a and s only: --N 0, and --tau, change nothing
    out = tmp_path / "k.json"
    base = ["kernel", "--kind", "bulk-weak", "--a", "0.5", "--s", "1", "--points", "0,0",
            "--output", str(out)]
    assert run(base) == 0
    expect = out.read_bytes()
    for extra in (["--N", "0"], ["--tau", "5"]):
        assert run(base + extra) == 0
        assert out.read_bytes() == expect


def test_kernel_missing_parameters_exit_2(tmp_path):
    out = str(tmp_path / "k.json")
    assert run(["kernel", "--kind", "truncated", "--a", "0",
                "--points", "0,0", "--output", out]) == 2
    assert run(["kernel", "--kind", "elliptic-ginibre", "--N", "2",
                "--points", "0,0", "--output", out]) == 2
    assert run(["kernel", "--kind", "bulk-weak", "--a", "1",
                "--points", "0,0", "--output", out]) == 2  # missing s
    assert run(["kernel", "--kind", "sine", "--points", "zero,0",
                "--output", out]) == 2                      # malformed float


@pytest.mark.parametrize("family, a", [("gegenbauer", "1"), ("chebyshev-t", "0"),
                                       ("jacobi-minus", "0.5"), ("gegenbauer", "-0.5")])
def test_density_every_cell_is_the_grid_value(tmp_path, family, a):
    # cell centers x in {-2,-1,0,1,2}, y in {-1,0,1}: x = +-2 lies outside the
    # ellipse, (+-1, 0) are foci of the 1/|1 +- z| weights
    flags = ["--family", family, "--a", a, "--tau", "0.5", "--N", "4", "--nx", "5",
             "--ny", "3", "--xmin", "-2.5", "--xmax", "2.5", "--ymin", "-1.5",
             "--ymax", "1.5", "--rescale", "fig2"]
    gas = GasFamily(PolyKind(family), float(a))
    grid = GridSpec((-2.5, 2.5), (-1.5, 1.5), 5, 3)
    dg = density_grid(FiniteKernel(gas, EllipseGeometry(0.5), 4), grid, rescale="fig2")
    assert (dg.values == 0.0).sum() >= 6
    out = tmp_path / "d.csv"
    assert run(["density"] + flags + ["--output", str(out)]) == 0
    expect = [f"{x!r},{y!r},{float(dg.values[i, j])!r}"
              for i, x in enumerate(grid.xs.tolist()) for j, y in enumerate(grid.ys.tolist())]
    assert out.read_text().splitlines() == ["x,y,rho"] + expect
    out = tmp_path / "d.json"
    assert run(["density"] + flags + ["--format", "json", "--output", str(out)]) == 0
    values = out.read_text().split('"values": [')[1].split("]")[0].split(", ")
    assert values == [repr(float(v)) for v in dg.values.ravel()]


_POINTS = (0.1 + 0.05j, 0.2 - 0.03j)
# the real-line kinds' points
_REAL_POINTS = (0.1 + 0j, 0.2 + 0j)
_DIRECT = {
    "finite": lambda z1, z2: FiniteKernel(GasFamily(PolyKind.JACOBI_PLUS, 0.5),
                                          EllipseGeometry(0.4), 5).eval(z1, z2),
    "truncated": lambda z1, z2: kernel_truncated(0.5, 5, z1, z2),
    "truncated-limit": lambda z1, z2: kernel_truncated_limit(0.5, z1, z2),
    "elliptic-ginibre": lambda z1, z2: kernel_elliptic_ginibre(0.4, 5, z1, z2),
    "bulk-weak": lambda z1, z2: bulk_weak(0.5, 1.2, z1, z2),
    "edge-weak": lambda z1, z2: edge_weak(0.5, 1.2, z1, z2),
    "edge-weak-minus-sine": lambda z1, z2: edge_weak_minus_sine(0.5, 1.2, z1, z2),
    "edge-weak-minus-cosine": lambda z1, z2: edge_weak_minus_cosine(0.5, 1.2, z1, z2),
    "bulk-strong": lambda z1, z2: bulk_strong(0.5, z1, z2),
    "edge-strong": lambda z1, z2: edge_strong(0.5, z1, z2),
    "sine": sine_kernel,
    "bessel": lambda z1, z2: bessel_kernel(0.5, z1, z2),
    "ginibre": ginibre_kernel,
    "global-u": lambda z1, z2: global_kernel_u(0.4, z1, z2),
    "global-t": lambda z1, z2: global_kernel_t(0.4, z1, z2),
    "global-v": lambda z1, z2: global_kernel_v(0.4, z1, z2),
    "global-rot-u": global_rot_u,
    "global-rot-t": global_rot_t,
    "global-rot-v": global_rot_v,
}


def test_direct_calls_cover_every_kernel_kind():
    assert list(_DIRECT) == list(KERNEL_KINDS)


def test_the_table_of_kinds_is_the_only_source(tmp_path, capsys, monkeypatch):
    import importlib

    from ellipsegas import LimitKernelSpec, kernels_finite, kernels_limit, make_kernel

    for kind, (layer, name, *_) in KERNEL_KINDS.items():
        assert callable(getattr(importlib.import_module(f"ellipsegas.{layer}"), name)), kind
    # the --kind choices are the table's keys, in order
    with pytest.raises(SystemExit):
        run(["kernel", "--kind", "nope", "--points", "0,0"])
    choices = ", ".join(f"'{kind}'" for kind in KERNEL_KINDS)
    assert f"(choose from {choices})" in capsys.readouterr().err
    assert [kind.value for kind in LimitKind] == [
        kind for kind, (layer, *_) in KERNEL_KINDS.items() if layer == "kernels_limit"]
    # a kernel patched on its layer is the one built, a limit kind and a
    # reference kind alike
    monkeypatch.setattr(kernels_limit, "ginibre_kernel", lambda z1, z2: 2.5 + 0.5j)
    monkeypatch.setattr(kernels_finite, "kernel_truncated", lambda a, N, z1, z2: a * N + 0j)
    assert make_kernel(LimitKernelSpec(LimitKind.GINIBRE))(0j, 0j) == 2.5 + 0.5j
    out = tmp_path / "k.json"
    for argv, value in ((["--kind", "ginibre"], 2.5 + 0.5j),
                        (["--kind", "truncated", "--a", "0.5", "--N", "3"], 1.5 + 0j)):
        assert run(["kernel", *argv, "--points", "0.1,0.2", "--output", str(out)]) == 0
        row = json.loads(out.read_text())["values"][0]
        assert complex(row["re"], row["im"]) == value


def test_one_builder_serves_every_kernel_of_a_kind(tmp_path, monkeypatch):
    import inspect

    from ellipsegas import (LimitKernelSpec, cli, geometry, global_kernel, kernels_limit,
                            make_kernel)

    # make_kernel, global_kernel and kernel --kind build through
    # geometry._kernel_of, which reads the layer's attribute when it builds
    assert kernels_limit._kernel_of is cli._kernel_of is geometry._kernel_of
    assert "globals()" not in inspect.getsource(kernels_limit)
    monkeypatch.setattr(kernels_limit, "global_kernel_u", lambda tau, z1, z2: tau + 1j)
    assert make_kernel(LimitKernelSpec("global-u", tau=0.25))(0j, 0j) == 0.25 + 1j
    assert global_kernel(LimitKind.GLOBAL_U, 0.5, 0j, 0j) == 0.5 + 1j
    out = tmp_path / "k.json"
    assert run(["kernel", "--kind", "global-u", "--tau", "0.75", "--points", "0.1,0.2",
                "--output", str(out)]) == 0
    row = json.loads(out.read_text())["values"][0]
    assert complex(row["re"], row["im"]) == 0.75 + 1j
    # global_kernel keeps its refusal of a kind that is not global, before
    # the kind's own parameters are read
    for kind in (LimitKind.SINE, "bulk-weak"):
        with pytest.raises(DomainError, match="is not a global kernel kind"):
            global_kernel(kind, 0.5, 0j, 0j)


@pytest.mark.parametrize("kind", list(_DIRECT))
def test_kernel_value_is_the_library_value(tmp_path, kind):
    out = tmp_path / "k.json"
    z1, z2 = _REAL_POINTS if kind in ("sine", "bessel") else _POINTS
    assert run(["kernel", "--kind", kind, "--family", "jacobi-plus", "--a", "0.5",
                "--s", "1.2", "--tau", "0.4", "--N", "5",
                "--points", f"{z1.real},{z1.imag},{z2.real},{z2.imag}",
                "--output", str(out)]) == 0
    row = json.loads(out.read_text())["values"][0]
    assert complex(row["re"], row["im"]) == complex(_DIRECT[kind](z1, z2))


@pytest.mark.parametrize("flags", [["--a", "-2", "--N", "3"], ["--a", "0", "--N", "0"],
                                   ["--a", "-1", "--N", "3"]])
def test_kernel_reference_kind_outside_domain_exits_2(tmp_path, flags):
    out = tmp_path / "k.json"
    assert run(["kernel", "--kind", "truncated"] + flags
               + ["--points", "0,0", "--output", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize("study, schedule", [("strong", "0,10"), ("strong", "100,100"),
                                             ("bulk-weak", "40"), ("edge-weak", "-40,80"),
                                             ("strong", "10,x")])
def test_converge_malformed_schedule_exits_2(tmp_path, study, schedule):
    assert run(["converge", "--study", study, f"--schedule={schedule}",
                "--output", str(tmp_path / "c.json")]) == 2


@pytest.mark.parametrize("argv", [
    ["--study", "edge-weak", "--a", "0.5", "--s", "1e-300", "--schedule", "10,20"],
    ["--study", "bulk-weak", "--s", "1e-5", "--schedule", "100000,200000"]])
def test_converge_tau_rounding_to_1_exits_2_naming_s_and_n(tmp_path, capsys, argv):
    # tau_N = 1/(1 + s^2/2N^2) is 1 in doubles at these s and N; the refusal
    # named tau, which the command does not take
    assert run(["converge", *argv, "--output", str(tmp_path / "c.json")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: converge needs tau_N") and err.count("\n") == 1
    assert "s = " in err and "N = " in err and "expected tau" not in err


@pytest.mark.parametrize("bound, value", [("--xmin", "nan"), ("--xmax", "inf"),
                                          ("--ymin", "-inf"), ("--ymax", "nan")])
def test_density_non_finite_range_exits_2(tmp_path, bound, value):
    assert run(["density", "--tau", "0.5", "--N", "3", f"{bound}={value}",
                "--output", str(tmp_path / "d.csv")]) == 2


def _strict_json(text):
    """json.loads that refuses NaN, Infinity and -Infinity."""
    def refuse(const):
        raise ValueError(f"non-strict JSON: {const}")
    return json.loads(text, parse_constant=refuse)


@pytest.mark.parametrize("kind", ["edge-strong", "bessel"])
def test_kernel_hard_edge_divergence_is_strict_json(tmp_path, kind):
    out = tmp_path / "k.json"
    assert run(["kernel", "--kind", kind, "--a", "-0.5", "--points", "0,0;1,0",
                "--output", str(out)]) == 0
    flagged, finite = _strict_json(out.read_text())["values"]
    assert flagged == {"z1": [0.0, 0.0], "z2": [0.0, 0.0], "re": None, "im": None,
                       "divergent": True}
    assert set(finite) == {"z1", "z2", "re", "im"} and finite["re"] > 0


@pytest.mark.parametrize("kind, points, expect", [
    ("truncated-limit", "0.99,0", lambda v: v["re"] == pytest.approx(402700.0655996, rel=1e-11)),
    ("edge-strong", "5,0", lambda v: v["re"] == 0.0 and v["im"] == 0.0)],
    ids=["truncated-limit", "edge-strong"])
def test_kernel_at_large_a_is_strict_json(tmp_path, kind, points, expect):
    # both values leave the double range in their factors but not in the result
    out = tmp_path / "k.json"
    assert run(["kernel", "--kind", kind, "--a", "500", "--points", points,
                "--output", str(out)]) == 0
    (value,) = _strict_json(out.read_text())["values"]
    assert expect(value)


def test_kernel_out_of_range_limit_exits_2(tmp_path, capsys):
    out = tmp_path / "k.json"
    assert run(["kernel", "--kind", "bessel", "--a", "200", "--points", "100,0",
                "--output", str(out)]) == 2
    assert "double range" in capsys.readouterr().err
    assert not out.exists()


def test_finite_kernel_values_past_the_double_range_raise_and_exit_2(tmp_path, capsys):
    # 1 + 5e-324i lies inside the ellipse and off the focus z = 1, where the
    # chebyshev-t weight 1/|1 - z^2| is about 1e323; the density grid has the
    # cells -1 +- 5e-324i, where the chebyshev-v weight 1/|1 + z| is about 2e323.
    # Every entry refuses where a log scale leaves the double range
    z = 1 + 5e-324j
    kern = FiniteKernel(GasFamily(PolyKind.CHEBYSHEV_T), EllipseGeometry(0.5), 10)
    for call in (lambda: kern.eval(z, z), lambda: kern.diagonal([z]),
                 lambda: kern.diagonal([z, 0.1]), lambda: kern.eval_batch(z, [z, 0.1])):
        with pytest.raises(OutOfRangeError, match="double range"):
            call()
    out = tmp_path / "out"
    for argv in (["kernel", "--kind", "finite", "--family", "chebyshev-t", "--tau", "0.5",
                  "--N", "10", "--points", "1,5e-324"],
                 ["density", "--family", "chebyshev-v", "--tau", "0.5", "--N", "10",
                  "--nx", "3", "--ny", "2", "--xmin=-1.5", "--xmax=-0.5",
                  "--ymin=-1e-323", "--ymax=1e-323"]):
        assert run(argv + ["--output", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "double range" in err and err.count("\n") == 1
        assert not out.exists()


def test_kernel_non_finite_value_exits_2(tmp_path, capsys, monkeypatch):
    from ellipsegas import kernels_limit
    monkeypatch.setattr(kernels_limit, "sine_kernel", lambda x1, x2: math.nan)
    out = tmp_path / "k.json"
    assert run(["kernel", "--kind", "sine", "--points", "0,0", "--output", str(out)]) == 2
    assert "JSON" in capsys.readouterr().err
    assert not out.exists()


def test_a_refused_limit_value_exits_2(tmp_path, capsys):
    # the strong bulk's half-line tail does not decay at a = 500 there, and
    # TailDivergenceError is no ValueError
    out = tmp_path / "k.json"
    assert run(["kernel", "--kind", "bulk-strong", "--a", "500", "--points", "0.1,0.45",
                "--output", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: final panel contributes") and err.count("\n") == 1
    assert not out.exists()


def test_every_command_runs_without_scipy(tmp_path):
    # a fresh interpreter: every command, every study of converge and every
    # kind of kernel run, and no scipy module is loaded at the end
    import os
    import subprocess
    import sys

    import ellipsegas
    out = tmp_path / "out.json"
    script = f"""
import json, sys
import ellipsegas, ellipsegas.cli as cli
from ellipsegas import LimitKind
out = {str(out)!r}
kernel_args = {{
    "finite": ["--family", "jacobi-minus", "--a", "0.3", "--tau", "0.6", "--N", "40"],
    "truncated": ["--a", "0.3", "--N", "12"],
    "truncated-limit": ["--a", "0.3"],
    "elliptic-ginibre": ["--tau", "0.4", "--N", "12"],
    "bulk-weak": ["--a", "1", "--s", "1"],
    "edge-weak": ["--a", "0.5", "--s", "1.5"],
    "edge-weak-minus-sine": ["--a", "0.5", "--s", "1.5"],
    "edge-weak-minus-cosine": ["--a", "0.5", "--s", "1.5"],
    "bulk-strong": ["--a", "0.5"],
    "edge-strong": ["--a", "0.5"],
    "sine": [],
    "bessel": ["--a", "0.5"],
    "ginibre": [],
    "global-u": ["--tau", "0.5"],
    "global-t": ["--tau", "0.5"],
    "global-v": ["--tau", "0.5"],
    "global-rot-u": [],
    "global-rot-t": [],
    "global-rot-v": [],
}}
assert set(kernel_args) >= {{k.value for k in LimitKind}}
runs = [["density", "--family", "jacobi-plus", "--a", "0.5", "--tau", "0.5", "--N", "6",
         "--nx", "5", "--ny", "5", "--format", "json"],
        ["sample", "--family", "gegenbauer", "--a", "1", "--tau", "0.5", "--N", "4",
         "--steps", "2000", "--burn-in", "200", "--thin", "10", "--seed", "3"],
        ["orthocheck", "--family", "jacobi-minus", "--a", "0.5", "--tau", "0.5",
         "--max-degree", "4"]]
runs += [["converge", "--study", study, "--a", "0.5", "--s", "1", "--schedule", "2,3"]
         for study in cli._STUDIES]
# the real-line kinds take points on the axis
runs += [["kernel", "--kind", kind, *args, "--points",
          "0.3,0;0.3,0,0.2,0" if kind in ("sine", "bessel") else "0.3,0.1;0.3,0.1,0.2,-0.05"]
         for kind, args in kernel_args.items()]
for argv in runs:
    assert cli.main(argv + ["--output", out]) == 0, argv
assert cli.main(["kernel", "--kind", "bulk-weak", "--a", "1", "--s", "1",
                 "--points", "0.3,0.2,0,0", "--output", out]) == 0
row = json.load(open(out))["values"][0]
assert complex(row["re"], row["im"]) == ellipsegas.bulk_weak(1.0, 1.0, 0.3 + 0.2j, 0j)
loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy"))
assert not loaded, loaded
"""
    src = os.path.dirname(os.path.dirname(os.path.abspath(ellipsegas.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


# -- the writers against the formatters they replace ---------------------------

_reference_dumps = json.JSONEncoder(allow_nan=False).encode


def _reference_csv(grid):
    """The per-cell formatter: three reprs per row."""
    ys = grid.spec.ys.tolist()
    lines = ["x,y,rho"] + [f"{x!r},{y!r},{rho!r}"
                           for x, column in zip(grid.spec.xs.tolist(), grid.values.tolist())
                           for y, rho in zip(ys, column)]
    return "\n".join(lines) + "\n"


def _reference_lines(samples):
    """The JSON encoder on nested lists of numpy scalars."""
    return [_reference_dumps({"points": [[z.real, z.imag] for z in conf]}) for conf in samples]


_AWKWARD = [-0.0, 5e-324, 1e16, 0.1, 0.0, -1.5e-310, 2.0 ** 53 + 2, 1 / 3]


@pytest.mark.parametrize("x_range, y_range, nx, ny", [
    ((-1.2, 1.2), (-1.2, 1.2), 4, 2),
    ((0.0, 1e-323), (1e16, 3e16), 1, 2),
    ((-0.3, 0.3), (-0.1, 0.1), 2, 4),
])
def test_grid_csv_is_the_per_cell_formatter(x_range, y_range, nx, ny):
    from ellipsegas.cli import _grid_csv
    from ellipsegas.correlations import DensityGrid

    spec = GridSpec(x_range, y_range, nx, ny)
    values = np.resize(np.array(_AWKWARD), (nx, ny))
    grid = DensityGrid(spec, values)
    assert _grid_csv(grid) == _reference_csv(grid)


@pytest.mark.parametrize("x_range, y_range, nx, ny", [
    ((-1.2, 1.2), (-1.2, 1.2), 4, 2),
    ((0.0, 1e-323), (1e16, 3e16), 1, 2),
    ((-0.3, 0.3), (-0.1, 0.1), 2, 4),
])
def test_grid_json_is_the_json_encoder(x_range, y_range, nx, ny):
    from ellipsegas.cli import _grid_json
    from ellipsegas.correlations import DensityGrid

    spec = GridSpec(x_range, y_range, nx, ny)
    grid = DensityGrid(spec, np.resize(np.array(_AWKWARD), (nx, ny)))
    payload = {"x_range": list(x_range), "y_range": list(y_range), "nx": nx, "ny": ny,
               "rescale": "fig2", "values": grid.values.ravel().tolist()}
    assert _grid_json(grid, "fig2") == _reference_dumps(payload) + "\n"


def test_grid_writers_format_each_distinct_density_once(monkeypatch):
    import ellipsegas.cli as cli
    from ellipsegas.correlations import DensityGrid

    values = np.resize(np.array(_AWKWARD), (6, 5))
    grid = DensityGrid(GridSpec((-1.0, 1.0), (-0.5, 0.5), 6, 5), values)
    formatted = _spy_on_repr(monkeypatch, cli)
    csv, text = cli._grid_csv(grid), cli._grid_json(grid, "none")
    assert csv == _reference_csv(grid) and json.loads(text)["values"] == values.ravel().tolist()
    distinct = sorted(set(map(repr, _AWKWARD)))
    assert sorted(map(repr, formatted)) == sorted(distinct * 2)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_density_json_with_a_non_finite_value_exits_2(tmp_path, capsys, monkeypatch, bad):
    import ellipsegas.cli as cli
    from ellipsegas import correlations
    from ellipsegas.correlations import DensityGrid

    def broken(kernel, grid, rescale="none"):
        values = np.full((grid.nx, grid.ny), 0.25)
        values[1, 0] = bad
        return DensityGrid(grid, values)
    formatted = _spy_on_repr(monkeypatch, cli)
    monkeypatch.setattr(correlations, "density_grid", broken)
    out = tmp_path / "d.json"
    assert run(["density", "--tau", "0.5", "--N", "3", "--nx", "3", "--ny", "2",
                "--format", "json", "--output", str(out)]) == 2
    assert "JSON" in capsys.readouterr().err
    assert formatted == [] and not out.exists()


@pytest.mark.parametrize("N", [1, 3, 8])
def test_configuration_lines_are_the_json_encoder(N):
    from ellipsegas.cli import _configuration_lines

    awkward = np.resize(np.array(_AWKWARD), 2 * N)
    samples = [awkward.view(complex), awkward[::-1].copy().view(complex),
               np.full(N, complex(-0.0, -0.0))]
    assert _configuration_lines(samples, N) == _reference_lines(samples)
    assert _configuration_lines([], N) == []


def _spy_on_repr(monkeypatch, cli):
    """Count the values `cli` formats with repr."""
    formatted = []

    def spy(x):
        formatted.append(x)
        return builtins.repr(x)
    monkeypatch.setattr(cli, "repr", spy, raising=False)
    return formatted


def test_configuration_lines_format_each_distinct_coordinate_once(monkeypatch):
    import ellipsegas.cli as cli

    # positions recur across configurations, as in a chain; 0.0 in one row
    # is -0.0 in another, and 5e-324 is a subnormal
    a, b, c = complex(0.0, 5e-324), complex(0.25, -0.0), complex(1 / 3, 0.1)
    samples = [np.array([a, b, c]), np.array([a, complex(-0.0, 0.1), c]),
               np.array([complex(0.0, -5e-324), b, c]), np.array([a, b, c])]
    formatted = _spy_on_repr(monkeypatch, cli)
    lines = cli._configuration_lines(samples, 3)
    assert lines == _reference_lines(samples)
    assert '[0.0, 5e-324], [-0.0, 0.1]' in lines[1] and '[0.25, -0.0]' in lines[2]
    coords = np.array(samples).view(float).ravel()
    assert len(formatted) == len(set(coords.view(np.int64).tolist())) == 7 < coords.size
    assert sorted(map(repr, formatted)) == sorted(set(map(repr, coords.tolist())))
    # a non-finite position raises before any text is built
    formatted.clear()
    with pytest.raises(DomainError):
        cli._configuration_lines(samples + [np.array([a, complex(math.nan, 0.0), c])], 3)
    assert formatted == []


def test_sample_lines_match_a_chain(tmp_path):
    from ellipsegas import ChainSettings, run_chain
    from ellipsegas.cli import _configuration_lines

    settings = ChainSettings(steps=3000, burn_in=300, thin=50, seed=12)
    samples, _ = run_chain(GasFamily(PolyKind.JACOBI_PLUS, 0.5), EllipseGeometry(0.5), 5,
                           settings)
    lines = _configuration_lines(samples, 5)
    assert lines == _reference_lines(samples)
    out = tmp_path / "s.ndjson"
    assert run(["sample", "--family", "jacobi-plus", "--a", "0.5", "--tau", "0.5", "--N", "5",
                "--steps", "3000", "--burn-in", "300", "--thin", "50", "--seed", "12",
                "--output", str(out)]) == 0
    assert out.read_text().splitlines()[:-1] == lines


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_position_raises_before_writing(tmp_path, monkeypatch, bad):
    import ellipsegas.cli as cli
    from ellipsegas import sampler
    from ellipsegas.errors import DomainError

    samples = [np.array([0.1 + 0.2j, 0.3 - 0.1j]), np.array([complex(0.1, bad), 0.2 + 0j])]
    with pytest.raises(DomainError):
        cli._configuration_lines(samples, 2)
    with pytest.raises(ValueError):     # the encoder the lines replace refuses it too
        _reference_lines(samples)
    monkeypatch.setattr(sampler, "run_chain", lambda gas, geo, N, settings: (samples, 0.5))
    out = tmp_path / "s.ndjson"
    assert run(["sample", "--tau", "0.5", "--N", "2", "--output", str(out)]) == 2
    assert not out.exists()


def test_main_builds_the_parser_once(tmp_path, monkeypatch):
    import ellipsegas.cli as cli

    real, builds = cli.build_parser, []

    def counted():
        builds.append(1)
        return real()
    cli._parser.cache_clear()
    monkeypatch.setattr(cli, "build_parser", counted)
    out = str(tmp_path / "d.csv")
    for _ in range(2):
        assert run(["density", "--tau", "0.5", "--N", "2", "--nx", "2", "--ny", "2",
                    "--output", out]) == 0
    assert len(builds) == 1


def test_main_calls_the_command_by_name(monkeypatch):
    # a wrapper or patch put on cmd_density after the parser was built is the
    # one that runs
    import ellipsegas.cli as cli

    run(["density", "--tau", "0.5", "--N", "2", "--nx", "1", "--ny", "1", "--format", "json"])
    seen = []
    monkeypatch.setattr(cli, "cmd_density", lambda args: seen.append(args.N) or 7)
    assert run(["density", "--tau", "0.5", "--N", "3"]) == 7
    assert seen == [3]


@pytest.mark.parametrize("study", ["bulk-weak", "edge-weak"])
def test_converge_weak_study_refuses_non_positive_s(tmp_path, capsys, study):
    out = tmp_path / "c.json"
    assert run(["converge", "--study", study, "--a", "1", "--s", "-1",
                "--schedule", "10,20", "--output", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {study} needs finite s > 0\n"
    assert not out.exists()


# a parameter outside its rule, inf and nan included, is refused before any output
@pytest.mark.parametrize("argv,message", [
    (["density", "--family", "gegenbauer", "--a", "inf", "--tau", "0.5", "--N", "3"],
     "expected finite a > -1, got inf"),
    (["kernel", "--kind", "bulk-weak", "--a", "1", "--s", "inf", "--points", "0,0"],
     "bulk-weak needs finite s > 0"),
    (["kernel", "--kind", "edge-strong", "--a", "inf", "--points", "0,0"],
     "edge-strong needs finite a > -1"),
    (["kernel", "--kind", "truncated-limit", "--a", "nan", "--points", "0.1,0"],
     "truncated-limit needs finite a > -1"),
    (["sample", "--family", "jacobi-plus", "--a", "inf", "--tau", "0.5", "--N", "3",
      "--steps", "100", "--burn-in", "10"], "expected finite a > -1, got inf"),
    (["sample", "--tau", "0.5", "--N", "3", "--steps", "0", "--burn-in", "-1"],
     "expected integer burn_in >= 0, got -1"),
    (["sample", "--tau", "0.5", "--N", "3", "--steps", "100", "--burn-in", "-10"],
     "expected integer burn_in >= 0, got -10"),
    (["sample", "--tau", "0.5", "--N", "3", "--steps", "100", "--burn-in", "10",
      "--sigma", "inf"], "expected finite proposal_sigma > 0, got inf"),
    # a finite value past what the kernel can compute in double precision
    (["kernel", "--kind", "edge-strong", "--a", "300", "--points", "3000,0"],
     "a value of log scale 984.473 leaves the double range"),
    (["kernel", "--kind", "bulk-strong", "--a", "1e8", "--points", "0,0"],
     "the half-line rule needs more than 16384 nodes"),
    (["kernel", "--kind", "bulk-weak", "--a", "1e16", "--s", "1", "--points", "0.1,0"],
     "the weight in c needs a <= 1024, got 1e+16: past it, ln Gamma(a+1) and the Bessel "
     "ratio cancel to over 1e-12"),
    (["kernel", "--kind", "edge-strong", "--a", "0.5", "--points", "1e308,0"],
     "edge_strong needs |beta| <= 2^1022, got 1e+308"),
    # Gauss-Jacobi rules whose weights leave the double range, for the disc
    # and the focal-ray rule alike
    (["orthocheck", "--family", "gegenbauer", "--a", "2000", "--tau", "0.5"],
     "the Gauss-Jacobi weights for alpha = 2000, beta = 0 sum to e^1379.39, "
     "past the double range"),
    (["orthocheck", "--family", "jacobi-plus", "--a", "1040", "--tau", "0.5"],
     "the Gauss-Jacobi weights for alpha = 1040, beta = 0 sum to e^714.618, "
     "past the double range"),
    # a missing parameter names the kind and the rule, a reference kind's too
    (["kernel", "--kind", "truncated", "--a", "0.5", "--points", "0,0"],
     "truncated needs integer N in [1, 1000000]"),
    (["kernel", "--kind", "finite", "--N", "3", "--points", "0,0"], "finite needs tau in (0,1)"),
    # the real-line kinds answered for the real part of a point off the axis
    (["kernel", "--kind", "sine", "--points", "0.1,0.5"],
     "sine needs finite real x, got (0.1+0.5j)"),
    (["kernel", "--kind", "bessel", "--a", "0.5", "--points", "1,7"],
     "bessel needs finite real X >= 0, got (1+7j)"),
    (["kernel", "--kind", "sine", "--points", "0.1,0,0.2,-1e-300"],
     "sine needs finite real x, got (0.2-1e-300j)"),
    # --N is read by the kinds that take it, and refused by their name; the
    # other commands refuse it in the constructors that take it
    (["kernel", "--kind", "truncated", "--a", "0.5", "--N", "0", "--points", "0,0"],
     "truncated needs integer N in [1, 1000000]"),
    (["kernel", "--kind", "finite", "--tau", "0.5", "--N", "0", "--points", "0,0"],
     "finite needs integer N in [1, 1000000]"),
    (["density", "--tau", "0.5", "--N", "0"], "expected integer N in [1, 1000000], got 0"),
    (["sample", "--tau", "0.5", "--N", "0", "--steps", "100", "--burn-in", "10"],
     "expected integer N in [1, 1000000], got 0"),
    # a point outside the domain of its kind's row names the kind
    (["kernel", "--kind", "bulk-weak", "--a", "0.5", "--s", "1", "--points", "0,0.6"],
     "bulk-weak needs finite z with |Im z| <= s/2, got 0.6j"),
    (["kernel", "--kind", "edge-weak", "--a", "1", "--s", "1", "--points=-5,0"],
     "edge-weak needs finite Z with X >= (Y/s)^2 - s^2/4, got (-5+0j)"),
    (["kernel", "--kind", "global-rot-t", "--points", "0,0"],
     "global-rot-t needs 0 < |z| < 1, got 0j"),
    (["kernel", "--kind", "global-u", "--tau", "0.5", "--points", "5,0"],
     "global-u needs z in the open rescaled ellipse off its foci, got (5+0j)"),
    (["kernel", "--kind", "finite", "--family", "gegenbauer", "--tau", "0.5", "--N", "3",
      "--points", "5,0"], "finite needs z in the ellipse, got (5+0j)"),
    # an oversized rule or grid is refused by name before it is built (each
    # ended in a numpy memory error)
    (["orthocheck", "--tau", "0.5", "--radial-nodes", "1000000"],
     "QuadratureSpec needs node counts >= 4, radial_nodes <= 2048 and "
     "radial_nodes * angular_nodes <= 262144, got 1000000, 128"),
    (["orthocheck", "--tau", "0.5", "--angular-nodes", "100000000000"],
     "QuadratureSpec needs node counts >= 4, radial_nodes <= 2048 and "
     "radial_nodes * angular_nodes <= 262144, got 96, 100000000000"),
    (["density", "--tau", "0.5", "--N", "3", "--nx", "100000", "--ny", "100000"],
     "grid needs nx, ny >= 1 and nx * ny <= 1048576, got 100000, 100000"),
    # so is an oversized N, polynomial table or Gram matrix
    (["density", "--tau", "0.5", "--N", "100000000000", "--nx", "2", "--ny", "2"],
     "expected integer N in [1, 1000000], got 100000000000"),
    (["orthocheck", "--tau", "0.5", "--max-degree", "100000000000"],
     "orthocheck needs (max_degree + 1)^2 <= 4194304, got max_degree = 100000000000"),
    (["orthocheck", "--tau", "0.5", "--max-degree", "100000", "--radial-nodes", "4",
      "--angular-nodes", "4"], "orthocheck needs (max_degree + 1)^2 <= 4194304, "
     "got max_degree = 100000"),
    (["orthocheck", "--tau", "0.5", "--max-degree", "400"],
     "a polynomial table needs (n_max + 1) * points <= 4194304, got n_max = 400 at 12288 points"),
])
def test_parameter_outside_its_rule_exits_2_with_one_line(tmp_path, capsys, argv, message):
    out = tmp_path / "out"
    assert run(argv + ["--output", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


# large finite inputs, each of which ended in a traceback: an OverflowError
# from abs or ** or a RuntimeWarning (an error here); None for a command that
# answers, else the start of its one error line
_HUGE = "1.7e308,1.7e308"
_LARGE_FINITE = [
    (["kernel", "--kind", "truncated", "--a", "0.5", "--N", "3", "--points", _HUGE],
     "truncated needs |z| < 1, got (1.7e+308+1.7e+308j)"),
    (["kernel", "--kind", "truncated-limit", "--a", "0.5", "--points", _HUGE],
     "truncated-limit needs |z| < 1, got "),
    (["kernel", "--kind", "global-rot-u", "--points", _HUGE], "global-rot-u needs |z| < 1, got "),
    (["kernel", "--kind", "global-rot-t", "--points", _HUGE],
     "global-rot-t needs 0 < |z| < 1, got "),
    (["kernel", "--kind", "elliptic-ginibre", "--tau", "0.5", "--N", "3", "--points", _HUGE],
     None),
    (["converge", "--study", "bulk-weak", "--a", "1", "--s", "1e160", "--schedule", "1,2"],
     "expected tau in (0,1), got 0.0"),
    (["converge", "--study", "edge-weak", "--a", "1", "--s", "1e160", "--schedule", "1,2"],
     "expected tau in (0,1), got 0.0"),
    (["kernel", "--kind", "bulk-strong", "--a", "1", "--points", "4e306,0"],
     "bulk-strong needs c z in the doubles at every node, got (4e+306+0j)"),
    (["sample", "--tau", "0.5", "--N", "3", "--steps", "100", "--burn-in", "10",
      "--sigma", "1e308"], None),
    (["kernel", "--kind", "finite", "--family", "jacobi-minus", "--a", "1e120", "--tau", "0.5",
      "--N", "3", "--points", "0.1,0.1"], "jacobi needs alpha, gamma <= 1e+100, got 1e+120"),
]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("argv,message", _LARGE_FINITE)
def test_large_finite_inputs_answer_or_exit_2_with_one_line(tmp_path, capsys, argv, message):
    out = tmp_path / "out"
    status = run(argv + ["--output", str(out)])
    err = capsys.readouterr().err
    if message is None:
        assert (status, err) == (0, "")
        lines = out.read_text().splitlines()
        if argv[0] == "kernel":      # the Gaussian factor is 0 in the doubles
            assert json.loads(lines[0])["values"][0]["re"] == 0.0
        else:                        # every move leaves the ellipse
            assert json.loads(lines[-1])["summary"]["acceptance_rate"] == 0.0
    else:
        assert status == 2 and err.startswith(f"error: {message}") and err.count("\n") == 1
        assert not out.exists()
