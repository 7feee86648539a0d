"""Benchmark of the ellipsegas library: one workload per process.

    python3 bench/run.py --workload figures --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the library is imported from
``src/`` next to this directory and nowhere else.  Workloads (see
workloads.py): figures, convergence, limits, montecarlo.  One client runs a
closed loop of tasks, with BLAS pinned to one thread.

--trace 0 reports the end-to-end metrics:
  setup_s        median over fresh processes of the time from process start
                 until `import ellipsegas` and one warm-up task have finished
  wall_s         median time of one pass over the workload's task list
  task_p50_s     median task latency
  task_tail_s    task latency with exactly 10 tasks above it; its percentile
                 and the task count go to the result file
  peak_rss_mb    peak resident memory of this process, read before the
                 checks that call the library run
  answered_frac  share of operations that returned a value which passed its
                 checks; the rest were refused (TailDivergenceError, or
                 correlation_k's "not numerically real") or failed
Times are corrected for the machine's speed drift (see speed.py); the result
file also holds them uncorrected.  The number of passes depends only on
--seconds, so every commit runs the same task list.
--trace 1 runs each pass untraced and then, with the tracer's wrappers
installed, traced on the same inputs; it requires bit-identical outputs and
reports per-layer metrics per pass.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  `failed` counts operations that raised
anything but a refusal or returned a value that failed its check;
`correct` is false if any did, or if tracing changed an output.  A result
file with the run's provenance goes to bench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

# one client and no worker threads: pin BLAS before numpy is imported
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in _THREAD_VARS:
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_PROBES = 7
TAIL_BEYOND = 10


def import_library():
    """Import ellipsegas from this checkout's src/, or exit with status 2."""
    pkg = SRC / "ellipsegas" / "__init__.py"
    if not pkg.is_file():
        sys.exit(f"error: {pkg} not found; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import ellipsegas
    if Path(ellipsegas.__file__).resolve() != pkg.resolve():
        sys.exit(f"error: imported ellipsegas from {ellipsegas.__file__}, not {pkg}")
    return ellipsegas


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def probe_setup(workload: str, speed) -> tuple[float, float]:
    """(raw, drift-corrected) seconds from spawning a fresh interpreter until
    it has imported the library and finished the workload's warm-up task."""
    speed.sample()
    t0 = time.perf_counter()
    subprocess.run([sys.executable, str(Path(__file__).resolve()), "--probe", workload],
                   check=True, stdout=subprocess.DEVNULL)
    t1 = time.perf_counter()
    speed.sample()
    return t1 - t0, (t1 - t0) * speed.factor(t0, t1)


def run_task(wl, task, ctx, tracer=None):
    """(t0, t1, output digest, outcome) of one task.  Only the operation is
    timed and traced; collecting and checking its output come after."""
    from workloads import Outcome
    if tracer is not None:
        tracer.recording = True
    t0 = time.perf_counter()
    try:
        raw = wl.run(task, ctx)
    except Exception as exc:        # the operation failed; record and go on
        return t0, time.perf_counter(), repr(exc).encode(), Outcome(ops=1, failures=[repr(exc)])
    finally:
        t1 = time.perf_counter()
        if tracer is not None:
            tracer.recording = False
    out = wl.collect(task, raw, ctx)
    return t0, t1, wl.digest(out), wl.check(task, out)


class Tally:
    def __init__(self):
        self.ops = self.refused = self.failed = 0
        self.failures = []
        self.later = []

    def add(self, outcome, where: str):
        self.ops += outcome.ops
        self.refused += outcome.refused
        self.failed += min(len(outcome.failures), outcome.ops)
        self.failures.extend(f"{where}: {f}" for f in outcome.failures)
        self.later.extend((where, check) for check in outcome.later)

    def run_later(self):
        """The deferred checks, each of one operation that passed the others."""
        for where, check in self.later:
            failures = check()
            self.failed += bool(failures)
            self.failures.extend(f"{where}: {f}" for f in failures)
        self.later.clear()


def passes_for(wl, seconds: float) -> int:
    return max(2, round(seconds / wl.pass_seconds))


def measure(wl, ctx, seed: int, seconds: float):
    """Untraced passes: the end-to-end metrics."""
    from speed import SpeedProbe
    speed = SpeedProbe()
    setup = [probe_setup(wl.name, speed) for _ in range(SETUP_PROBES)]
    tally, spans = Tally(), []
    for p in range(passes_for(wl, seconds)):
        for i, task in enumerate(wl.tasks(seed, p)):
            speed.sample_if_due()
            t0, t1, _, outcome = run_task(wl, task, ctx)
            spans.append((p, t0, t1))
            tally.add(outcome, f"pass {p} task {i}")
    speed.sample()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    tally.run_later()
    raw = [t1 - t0 for _, t0, t1 in spans]
    latencies = [(t1 - t0) * speed.factor(t0, t1) for _, t0, t1 in spans]
    passes = 1 + spans[-1][0]

    def per_pass(values):
        totals = [0.0] * passes
        for (p, _, _), v in zip(spans, values):
            totals[p] += v
        return totals

    pass_times = per_pass(latencies)
    ordered = sorted(latencies)
    n = len(ordered)
    tail_rank = max(n - TAIL_BEYOND - 1, 0)
    metrics = {
        "setup_s": (statistics.median(c for _, c in setup), "s"),
        "wall_s": (statistics.median(pass_times), "s"),
        "task_p50_s": (statistics.median(ordered), "s"),
        "task_tail_s": (ordered[tail_rank], "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "answered_frac": ((tally.ops - tally.refused - tally.failed) / tally.ops, "1"),
    }
    info = {"passes": passes, "tasks": n, "pass_times_s": pass_times,
            "task_tail_percentile": 100.0 * (tail_rank + 1) / n,
            "tasks_beyond_tail": n - tail_rank - 1,
            "setup_probes_s": [c for _, c in setup],
            "uncorrected": {"setup_s": statistics.median(r for r, _ in setup),
                            "wall_s": statistics.median(per_pass(raw)),
                            "task_p50_s": statistics.median(raw)},
            "speed_refs": len(speed.refs),
            "speed_ref_median_s": statistics.median(speed.refs),
            "task_spans": spans, "speed_marks": [speed.times, speed.refs]}
    return metrics, tally, info


def measure_traced(wl, ctx, seed: int, seconds: float):
    """Each pass untraced, then traced on the same inputs: per-layer metrics.
    The wrappers are installed for the traced pass only, so the tracing
    overhead includes their dispatch."""
    from tracing import Tracer, layer_metrics, leftover_wrappers, unit_of
    tracer = Tracer()
    tally, mismatches, tasks = Tally(), [], []
    traced_s = untraced_s = 0.0
    # half the untraced passes, each run twice; at most 4, which bounds the
    # span arrays (limits records about 150k spans a pass)
    passes = min(4, max(1, passes_for(wl, seconds) // 2))
    for p in range(passes):
        tasks = wl.tasks(seed, p)
        plain = []
        for i, task in enumerate(tasks):
            t0, t1, digest, outcome = run_task(wl, task, ctx)
            untraced_s += t1 - t0
            plain.append(digest)
            tally.add(outcome, f"pass {p} task {i}")
        tracer.install()
        try:
            for i, task in enumerate(tasks):
                tracer.task_id = p * len(tasks) + i
                t0, t1, digest, _ = run_task(wl, task, ctx, tracer)
                traced_s += t1 - t0
                if digest != plain[i]:
                    mismatches.append(f"pass {p} task {i}: traced output differs")
        finally:
            tracer.uninstall()
        mismatches += [f"pass {p}: wrapper left installed: {w}" for w in leftover_wrappers()]
    tally.run_later()
    values, bases = layer_metrics(tracer, passes, traced_s, untraced_s)
    tracer.save(str(OUT / f"spans-{wl.name}-seed{seed}.npz"))
    metrics = {k: (v, unit_of(k)) for k, v in values.items()}
    info = {"passes": passes, "tasks": passes * len(tasks),
            "ratio_bases": bases, "trace_mismatches": mismatches}
    return metrics, tally, info


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=["figures", "convergence", "limits", "montecarlo"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--probe", metavar="WORKLOAD", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if args.workload is None and args.probe is None:
        ap.error("--workload is required")
    eg = import_library()
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS, Context
    wl = WORKLOADS[args.probe or args.workload]
    with Context(str(OUT / f"tmp-{os.getpid()}")) as ctx:
        warm = wl.warmup()
        wl.collect(warm, wl.run(warm, ctx), ctx)
        if args.probe:
            return 0
        if args.trace:
            metrics, tally, info = measure_traced(wl, ctx, args.seed, args.seconds)
            problems = tally.failures + info["trace_mismatches"]
        else:
            metrics, tally, info = measure(wl, ctx, args.seed, args.seconds)
            problems = tally.failures

    import numpy
    import scipy
    result = {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_sha": git_sha(), "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "ellipsegas": eg.__version__, "nproc": os.cpu_count(),
        "blas_threads": {v: os.environ[v] for v in _THREAD_VARS},
        "operations": tally.ops, "refused": tally.refused, "failed": tally.failed,
        "problems": problems[:50], **info,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    path = OUT / f"result-{wl.name}-trace{args.trace}-seed{args.seed}.json"
    path.write_text(json.dumps(result, indent=1) + "\n")
    for line in problems[:20]:
        print(f"problem: {line}", file=sys.stderr)
    line = {"correct": not problems, "attempted": tally.ops, "failed": tally.failed,
            "metrics": result["metrics"]}
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
