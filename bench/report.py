"""Run every workload, each in a fresh process, and print one table.

    python3 bench/report.py              # end-to-end metrics and verdicts
    python3 bench/report.py --trace 1    # per-layer self-time shares and ratios

--seed N picks the inputs (default 1); each run lasts BENCHMARK.json's
run_seconds.  Run from the root of a source checkout.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from tracing import LAYERS as TRACED_LAYERS

HERE = Path(__file__).resolve().parent
SECONDS = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]
WORKLOADS = ("figures", "convergence", "limits", "montecarlo")
LAYERS = TRACED_LAYERS + ("untraced",)


def run(workload: str, seed: int, trace: int) -> dict:
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(SECONDS),
                           "--trace", str(trace)],
                          check=True, stdout=subprocess.PIPE, text=True)
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    path = HERE / "out" / f"result-{workload}-trace{trace}-seed{seed}.json"
    return {"line": line, "result": json.loads(path.read_text())}


def fmt(value: float) -> str:
    return f"{value:.4g}"


def table(rows, header) -> None:
    widths = [max(len(str(r[i])) for r in rows + [header]) for i in range(len(header))]
    for r in [header] + rows:
        print("  ".join(str(c).ljust(w) for c, w in zip(r, widths)).rstrip())


def end_to_end(runs: dict) -> None:
    names = list(next(iter(runs.values()))["line"]["metrics"])
    rows = []
    for name in names:
        unit = next(iter(runs.values()))["line"]["metrics"][name]["unit"]
        rows.append([name, unit] + [fmt(r["line"]["metrics"][name]["value"])
                                    for r in runs.values()])
    rows.append(["task_tail_percentile", "%"]
                + [fmt(r["result"]["task_tail_percentile"]) for r in runs.values()])
    rows.append(["tasks", "count"] + [r["result"]["tasks"] for r in runs.values()])
    for key in ("operations", "refused", "failed"):
        rows.append([key, "count"] + [r["result"][key] for r in runs.values()])
    rows.append(["correct", ""] + [r["line"]["correct"] for r in runs.values()])
    table(rows, ["metric", "unit"] + list(runs))


def per_layer(runs: dict) -> None:
    print("self-time share of traced task time, by layer")
    rows = [[layer] + [fmt(r["line"]["metrics"][f"{layer}.self_share"]["value"])
                       for r in runs.values()] for layer in LAYERS]
    rows.append(["dominant"] + [max(LAYERS[:-1], key=lambda la: r["line"]["metrics"]
                                    [f"{la}.self_share"]["value"]) for r in runs.values()])
    table(rows, ["layer"] + list(runs))
    print("\nper pass over the task list; a ratio shows [numerator / denominator base]")
    names = [n for n in next(iter(runs.values()))["line"]["metrics"]
             if not n.endswith(".self_share")]
    rows = []
    for name in names:
        cells = []
        for r in runs.values():
            value = r["line"]["metrics"][name]["value"]
            base = r["result"]["ratio_bases"].get(name)
            cells.append(fmt(value) if base is None
                         else f"{fmt(value)} [{fmt(base[0])} / {fmt(base[1])} {base[2]}]")
        rows.append([name, next(iter(runs.values()))["line"]["metrics"][name]["unit"]] + cells)
    table(rows, ["metric", "unit"] + list(runs))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    runs = {w: run(w, args.seed, args.trace) for w in WORKLOADS}
    (per_layer if args.trace else end_to_end)(runs)
    return 0 if all(r["line"]["correct"] for r in runs.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
