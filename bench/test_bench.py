"""Self-tests of the benchmark:  python3 -m pytest bench"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import ellipsegas as eg  # noqa: E402
from tracing import Tracer, layer_metrics, leftover_wrappers  # noqa: E402
from workloads import (WORKLOADS, Context, Convergence, Figures, Limits,  # noqa: E402
                       _refusal)

SEEDS = (1, 2, 3)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_gives_byte_identical_task_list(name):
    wl = WORKLOADS[name]
    for p in range(2):
        first = json.dumps(wl.tasks(7, p))
        assert json.dumps(wl.tasks(7, p)) == first
        assert json.dumps(wl.tasks(8, p)) != first
    assert json.dumps(wl.tasks(7, 0)) != json.dumps(wl.tasks(7, 1))


def _all_tasks(name):
    return [t for s in SEEDS for p in range(3) for t in WORKLOADS[name].tasks(s, p)]


def test_convergence_points_satisfy_domain_predicates():
    for t in _all_tasks("convergence"):
        N, s = t["N"], t["s"]
        geo = eg.EllipseGeometry(1.0 / (1.0 + s * s / (2.0 * N * N)))
        for x, y in t["points"]:
            p = complex(x, y)
            assert eg.contains(geo, Convergence.finite_point(t, p))
            if t["where"] == "bulk":
                assert eg.bulk_domain_contains(s, p)
            else:
                assert eg.edge_domain_contains(s, p)


def test_limit_pairs_satisfy_domain_predicates():
    kinds = set()
    for t in _all_tasks("limits"):
        kind, s, tau = t["kind"], t["s"], t["tau"]
        kinds.add(kind)
        for x, y in (p for pair in t["pairs"] for p in pair):
            z = complex(x, y)
            if kind == "bulk-weak":
                assert eg.bulk_domain_contains(s, z)
            elif kind == "bulk-strong":
                assert eg.bulk_domain_contains(1.0, z)
            elif kind.startswith("edge-weak"):
                assert eg.edge_domain_contains(s, z)
            elif kind == "edge-strong":
                assert x >= 0
            elif kind in ("sine", "bessel"):
                assert y == 0 and (kind == "sine" or x >= 0)
            elif kind in ("global-u", "global-t", "global-v"):
                zeta = z / math.sqrt(2 * tau)
                assert eg.contains(eg.EllipseGeometry(tau), zeta)
                assert abs(zeta - 1) > 0 and abs(zeta + 1) > 0
            elif kind.startswith("global-rot"):
                assert 0 < abs(z) < 1
    assert kinds == {k.value for k in eg.LimitKind}


def test_figure_cells_lie_inside_the_domain():
    for t in _all_tasks("figures"):
        x0, x1, y0, y1 = t["window"]
        dx, dy = (x1 - x0) / t["nx"], (y1 - y0) / t["ny"]
        geo = eg.EllipseGeometry(t["tau"])
        for ix, iy in t["cells"]:
            w, _ = Figures.figure_point(t, x0 + (ix + 0.5) * dx, y0 + (iy + 0.5) * dy)
            assert eg.contains(geo, w)
    assert {t["family"] for t in _all_tasks("figures")} >= {k.value for k in eg.PolyKind}
    assert {t["rescale"] for t in _all_tasks("figures")} == {"none", "fig1", "fig2", "fig3"}


def _small_tasks(name):
    """The warm-up task and the cheapest task of one pass."""
    wl = WORKLOADS[name]
    tasks = wl.tasks(1, 0)
    key = {"figures": lambda t: t["N"], "convergence": lambda t: t["N"],
           "limits": lambda t: t["kind"] != "edge-weak", "montecarlo": lambda t: t["N"]}
    return [wl.warmup(), min(tasks, key=key[name])]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tracing_changes_no_output_and_is_removed(name, tmp_path):
    wl = WORKLOADS[name]
    tasks = _small_tasks(name)
    with Context(str(tmp_path / "ctx")) as ctx:
        plain = [wl.digest(wl.collect(t, wl.run(t, ctx), ctx)) for t in tasks]
        tracer = Tracer()
        tracer.install()
        try:
            tracer.recording = True
            traced = [wl.digest(wl.collect(t, wl.run(t, ctx), ctx)) for t in tasks]
        finally:
            tracer.recording = False
            tracer.uninstall()
    assert traced == plain
    assert leftover_wrappers() == []
    assert len(tracer.name) > 0
    values, _ = layer_metrics(tracer, 1, 1.0, 1.0)
    assert all(math.isfinite(v) for v in values.values())


def test_checks_reject_a_wrong_density():
    wl = WORKLOADS["figures"]
    task = dict(wl.warmup(), format="csv")
    with Context(str(HERE / "out" / "selftest-ctx")) as ctx:
        rc, data = wl.collect(task, wl.run(task, ctx), ctx)
    assert not wl.check(task, (rc, data)).failures
    lines = data.decode().splitlines()
    ix, iy = task["cells"][0]
    row = 1 + ix * task["ny"] + iy
    x, y, rho = lines[row].split(",")
    lines[row] = f"{x},{y},{float(rho) * 1.001!r}"
    bad = ("\n".join(lines) + "\n").encode()
    assert wl.check(task, (rc, bad)).failures


def test_limit_checks_reject_a_non_hermitian_table():
    wl = Limits()
    task = wl.warmup()
    out = wl.run(task, None)
    assert not wl.check(task, out).failures
    out[2] += 1e-6 * abs(out[0])
    assert wl.check(task, out).failures


def test_montecarlo_mean_check_is_deferred_and_rejects_a_wrong_mean(tmp_path):
    wl = WORKLOADS["montecarlo"]
    task = wl.warmup()
    with Context(str(tmp_path / "ctx")) as ctx:
        out = wl.collect(task, wl.run(task, ctx), ctx)
    outcome = wl.check(task, out)
    assert not outcome.failures and len(outcome.later) == 1
    assert outcome.later[0]() == []
    exact = wl.expected_sum_sq(task)
    assert wl.compare_mean(task, 1.5 * exact, 1e-3 * exact)


def test_only_the_library_refusals_count_as_refused():
    assert _refusal(eg.TailDivergenceError("final panel contributes 1 of 2"))
    assert _refusal(RuntimeError("determinant is not numerically real: (1+1j)"))
    assert not _refusal(RuntimeError("log_bessel_i series did not converge"))
    assert not _refusal(ValueError("not numerically real"))


def _benchmark_json():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_names_the_metrics_run_reports():
    spec = _benchmark_json()
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    layer_names, _ = layer_metrics(Tracer(), 1, 1.0, 1.0)
    assert [m["name"] for m in spec["per_layer"]] == list(layer_names)
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", "limits",
                           "--seed", "3", "--seconds", "0.1", "--trace", "0"],
                          cwd=ROOT, capture_output=True, text=True, check=True)
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0
    assert [m["name"] for m in spec["end_to_end"]] == list(line["metrics"])
    for m in spec["end_to_end"]:
        assert line["metrics"][m["name"]]["unit"] == m["unit"]
        assert line["metrics"][m["name"]]["value"] > 0


def test_run_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "figures",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert "metrics" not in proc.stdout
