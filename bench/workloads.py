"""The four seeded workloads: input generators, operations and their checks.

A workload's inputs come in passes.  One pass is a fixed list of tasks whose
cost structure (counts per kind, the N schedule) is the same for every seed
and pass; the seed draws the families, the continuous parameters, the points
and the order.  A run makes round(seconds / pass_seconds) passes.  That keeps pass times comparable across seeds while no two passes
share an input, so a cache keyed on inputs gains nothing between passes.

Every task is a dict of JSON values, so the same (seed, pass) gives a
byte-identical task list.  The library is reached only through module
attributes (``eg.cli.main``, ``eg.FiniteKernel``) at call time, never through
names bound at import, so that the tracer's wrappers see every call.

Checks use formulas of their own where they can (the ellipse inequality, the
figure rescale maps, Hermiticity, Hadamard's bound, batch means), not the code
path they check.
"""

from __future__ import annotations

import cmath
import json
import math
import os
import shutil
from dataclasses import dataclass, field
from functools import partial

import numpy as np

import ellipsegas as eg
import ellipsegas.cli  # noqa: F401  (the package does not import it)

_WORKLOAD_IDS = {"figures": 1, "convergence": 2, "limits": 3, "montecarlo": 4}
_A_FAMILIES = ("gegenbauer", "jacobi-plus", "jacobi-minus")
_FAMILIES = _A_FAMILIES + ("chebyshev-t", "chebyshev-u", "chebyshev-v")
# keeps generated points off domain boundaries, where the library's predicate
# and the generator's inequality could round to opposite sides
_MARGIN = 1e-9


def _rng(workload: str, seed: int, pass_index: int) -> np.random.Generator:
    """The stream of one pass; pass -1 is the warm-up task's."""
    return np.random.default_rng([_WORKLOAD_IDS[workload], seed % 2 ** 64, pass_index + 1])


def _a(rng) -> float:
    """Boundary-charge parameter uniform on (-1, 3]."""
    return float(3.0 - 4.0 * rng.random())


def _gas(family: str, a: float):
    return eg.GasFamily(eg.PolyKind(family), a)


def weak_tau(s: float, N: int) -> float:
    """tau of the weak non-Hermiticity limit: 1 - tau ~ s^2 / (2 N^2)."""
    return 1.0 / (1.0 + s * s / (2.0 * N * N))


def ellipse_deficit(tau: float, x: float, y: float) -> float:
    """1 - (2tau/(1+tau)) x^2 - (2tau/(1-tau)) y^2: >= 0 inside the wall."""
    return 1.0 - (2 * tau / (1 + tau)) * x * x - (2 * tau / (1 - tau)) * y * y


def _semi_axes(tau: float):
    return math.sqrt((1 + tau) / (2 * tau)), math.sqrt((1 - tau) / (2 * tau))


def _uniform_in(rng, box, inside, count: int):
    """`count` points uniform in {inside} within box (x0, x1, y0, y1)."""
    x0, x1, y0, y1 = box
    pts = []
    while len(pts) < count:
        x = float(x0 + (x1 - x0) * rng.random())
        y = float(y0 + (y1 - y0) * rng.random())
        if inside(x, y):
            pts.append([x, y])
    return pts


def _z(p) -> complex:
    return complex(p[0], p[1])


def _refusal(exc: Exception) -> bool:
    """Whether the library refused to return a value it cannot vouch for: a
    TailDivergenceError, or correlation_k's "not numerically real"."""
    return isinstance(exc, eg.TailDivergenceError) or (
        type(exc) is RuntimeError and "not numerically real" in str(exc))


@dataclass
class Outcome:
    """What the checks made of one task: operations attempted; operations the
    library refused (see _refusal); and failed operations, which raised
    anything else or returned a value that failed a check.  `later` holds
    checks that call the library, one operation each, to be run after the
    timed passes so that what they allocate stays out of peak_rss_mb; each
    returns a list of failure lines."""

    ops: int
    refused: int = 0
    failures: list = field(default_factory=list)   # one line per failed operation
    later: list = field(default_factory=list)


# ---------------------------------------------------------------------------
# figures: the density command through the CLI
# ---------------------------------------------------------------------------

class Figures:
    """Each task is one `density` command run in-process through cli.main."""

    name = "figures"
    pass_seconds = 2.4          # one pass on a 2-vCPU 2.1 GHz VM, checks included
    GRID = 64
    # N schedule over [10, 300]; each rescale map gets one low and one high N
    _N_SCHEDULE = tuple(round(10 + 290 * (j + 0.5) / 8) for j in range(8))
    _RESCALES = ("none", "fig1", "fig2", "fig3") * 2

    def tasks(self, seed: int, pass_index: int) -> list:
        rng = _rng(self.name, seed, pass_index)
        others = iter(rng.permutation(_FAMILIES))
        fig3 = iter(rng.permutation(_A_FAMILIES))
        out = [self._task(rng, rescale, str(next(fig3 if rescale == "fig3" else others)), N)
               for rescale, N in zip(self._RESCALES, self._N_SCHEDULE)]
        return [out[i] for i in rng.permutation(len(out))]

    def warmup(self) -> dict:
        return self._task(_rng(self.name, 0, -1), "fig1", "gegenbauer", 10, grid=8)

    def _task(self, rng, rescale, fam, N, grid=GRID) -> dict:
        a = 0.0 if fam.startswith("chebyshev") else _a(rng)
        if rescale == "none":
            tau = float(0.05 + 0.9 * rng.random())
        elif rescale == "fig1":
            tau = float(10 ** (-3 + math.log10(50) * rng.random()))
        elif rescale == "fig2":
            tau = weak_tau(float(0.5 + 1.5 * rng.random()), N)
        else:
            tau = float(0.1 + 0.8 * rng.random())
            a = float(N * (1 + 3 * rng.random()))
        task = {"family": fam, "a": a, "tau": tau, "N": N, "rescale": rescale,
                "format": "csv" if rng.random() < 0.5 else "json", "nx": grid, "ny": grid}
        # window: 1.05 x the bounding box of the domain in figure coordinates
        sx, sy = _semi_axes(tau)
        fx = fy = 1.0
        if rescale == "fig1":
            fx = fy = math.sqrt(2 * tau)
        elif rescale == "fig2":
            fy = float(N)
        elif rescale == "fig3":
            fx = fy = math.sqrt(2 * tau * a / N)
        task["window"] = [-1.05 * sx * fx, 1.05 * sx * fx, -1.05 * sy * fy, 1.05 * sy * fy]
        task["cells"] = self._cells(rng, task)
        return task

    @staticmethod
    def figure_point(task, x: float, y: float):
        """(argument of K_N, prefactor) of a figure coordinate: the paper's
        rescale maps, written here independently of the library."""
        tau, N, a = task["tau"], task["N"], task["a"]
        z = complex(x, y)
        r = task["rescale"]
        if r == "none":
            return z, 1.0
        if r == "fig1":
            return z / math.sqrt(2 * tau), 1.0 / (2 * tau * N)
        if r == "fig2":
            return complex(x, y / N), 1.0 / N ** 2
        return math.sqrt(N) * z / math.sqrt(2 * tau * a), 1.0 / (2 * tau * a)

    def _centers(self, task):
        x0, x1, y0, y1 = task["window"]
        dx, dy = (x1 - x0) / task["nx"], (y1 - y0) / task["ny"]
        return dx, dy, x0, y0

    def _cells(self, rng, task, count=2):
        """Seeded grid cells well inside the domain and off the foci."""
        dx, dy, x0, y0 = self._centers(task)
        cells = []
        while len(cells) < count:
            ix, iy = int(rng.integers(task["nx"])), int(rng.integers(task["ny"]))
            w, _ = self.figure_point(task, x0 + (ix + 0.5) * dx, y0 + (iy + 0.5) * dy)
            if (ellipse_deficit(task["tau"], w.real, w.imag) > 1e-6
                    and min(abs(w - 1), abs(w + 1)) > 1e-6):
                cells.append([ix, iy])
        return cells

    def argv(self, task, output: str) -> list:
        x0, x1, y0, y1 = task["window"]
        return ["density", "--family", task["family"], "--a", repr(task["a"]),
                "--tau", repr(task["tau"]), "--N", str(task["N"]),
                "--rescale", task["rescale"], "--nx", str(task["nx"]),
                "--ny", str(task["ny"]), "--xmin", repr(x0), "--xmax", repr(x1),
                "--ymin", repr(y0), "--ymax", repr(y1), "--format", task["format"],
                "--output", output]

    def run(self, task, ctx):
        return eg.cli.main(self.argv(task, ctx.output_path(task["format"])))

    def collect(self, task, raw, ctx):
        with open(ctx.output_path(task["format"]), "rb") as fh:
            return raw, fh.read()

    def check(self, task, out) -> Outcome:
        rc, data = out
        res = Outcome(ops=1)
        if rc != 0:
            res.failures.append(f"exit code {rc}")
            return res
        nx, ny = task["nx"], task["ny"]
        if task["format"] == "csv":
            lines = data.decode().splitlines()
            if lines[0] != "x,y,rho":
                res.failures.append("bad csv header")
                return res
            vals = [float(line.split(",")[2]) for line in lines[1:]]
        else:
            vals = json.loads(data)["values"]
        if len(vals) != nx * ny:
            res.failures.append(f"{len(vals)} values for a {nx}x{ny} grid")
            return res
        if not all(math.isfinite(v) and v >= 0.0 for v in vals):
            res.failures.append("a density value is negative or not finite")
            return res
        dx, dy, x0, y0 = self._centers(task)
        kern = eg.FiniteKernel(_gas(task["family"], task["a"]),
                               eg.EllipseGeometry(task["tau"]), task["N"])
        top = max(vals)
        for ix, iy in task["cells"]:
            w, factor = self.figure_point(task, x0 + (ix + 0.5) * dx, y0 + (iy + 0.5) * dy)
            want = max(factor * kern.eval(w, w).real, 0.0)
            got = vals[ix * ny + iy]
            if abs(got - want) > 1e-9 * abs(want) + 1e-13 * top:
                res.failures.append(f"cell {(ix, iy)}: {got!r} != K(z,z) * factor {want!r}")
                break
        return res

    def digest(self, out) -> bytes:
        return out[1]


# ---------------------------------------------------------------------------
# kernel checks shared by convergence and limits
# ---------------------------------------------------------------------------

class _Recorder:
    """A kernel that remembers every value it returns, so the matrix that
    correlation_k built can be checked without evaluating it again."""

    def __init__(self, kernel):
        self.kernel = kernel
        self.values = []

    def __call__(self, z1, z2):
        v = complex(self.kernel(z1, z2))
        self.values.append(v)
        return v


def _check_gram(values, k: int, det, failures: list, tol: float) -> None:
    """Hermiticity K(z,w) = conj K(w,z) and, unless det is None (refused),
    0 <= det <= prod K(z_i,z_i) on the row-major k x k matrix that
    correlation_k evaluated."""
    if len(values) != k * k:
        failures.append(f"correlation_k made {len(values)} kernel calls for k={k}")
        return
    m = np.array(values).reshape(k, k)
    if not np.all(np.isfinite(m)):
        failures.append("non-finite kernel value")
        return
    diag = np.real(np.diag(m))
    if np.any(diag < 0):
        failures.append(f"negative diagonal {diag.min()!r}")
        return
    scale = np.sqrt(np.outer(diag, diag))
    herm = np.abs(m - m.conj().T)
    if np.any(herm > tol * scale + 1e-300):
        failures.append(f"not Hermitian: |K(z,w) - conj K(w,z)| = {herm.max():.3g}")
    bound = float(np.prod(diag))
    if det is not None and not (-tol * bound <= det <= (1 + tol) * bound):
        failures.append(f"Hadamard bound violated: det {det!r}, prod diag {bound!r}")


# ---------------------------------------------------------------------------
# claimed domains of the limiting kernels, windowed: (box, inside)
# ---------------------------------------------------------------------------

def _strip(half_width: float, length: float = 3.0):
    box = (-length, length, -half_width, half_width)
    return box, lambda x, y: abs(y) < (1 - _MARGIN) * half_width


def _parabola(s: float, xmax: float = 4.0):
    ymax = s * math.sqrt(xmax + s * s / 4)
    box = (-s * s / 4, xmax, -ymax, ymax)
    return box, lambda x, y: (x > (y / s) ** 2 - s * s / 4 + _MARGIN
                              and abs(complex(x, y)) > _MARGIN)


def _real_line(x0: float, x1: float):
    return (x0, x1, 0.0, 0.0), lambda x, y: x > x0 + _MARGIN


def _punctured_disc():
    return (-1.0, 1.0, -1.0, 1.0), lambda x, y: _MARGIN < math.hypot(x, y) < 1 - _MARGIN


def _rescaled_ellipse(tau: float):
    """The global kernels' domain: z / sqrt(2 tau) inside the open ellipse,
    off the foci."""
    c = math.sqrt(2 * tau)
    sx, sy = _semi_axes(tau)

    def inside(x, y):
        zeta = complex(x, y) / c
        return (ellipse_deficit(tau, zeta.real, zeta.imag) > _MARGIN
                and min(abs(zeta - 1), abs(zeta + 1)) > 1e-6)
    return (-sx * c, sx * c, -sy * c, sy * c), inside


# ---------------------------------------------------------------------------
# convergence: finite-N kernels against their weak limits
# ---------------------------------------------------------------------------

class Convergence:
    """Each task is one step of a weak-limit study: FiniteKernel at N, eval at
    five scaled points, one correlation_k, and the matching limit kernel."""

    name = "convergence"
    pass_seconds = 3.6
    # geometric N schedule over [100, 1500]; the largest k goes with the
    # smallest N, which narrows the spread of task costs
    _N_SCHEDULE = tuple(round(100 * 15 ** ((j + 0.5) / 8)) for j in range(8))
    _K = (5, 5, 4, 4, 3, 3, 2, 2)
    # (gas, where the points sit, limiting kernel there)
    STUDIES = (("gegenbauer", "bulk", "bulk-weak"), ("gegenbauer", "edge", "edge-weak"),
               ("jacobi-plus", "edge", "edge-weak"), ("jacobi-minus", "edge", "edge-weak"),
               ("jacobi-plus", "left", "edge-weak-minus-sine"),
               ("jacobi-minus", "left", "edge-weak-minus-cosine"))

    def tasks(self, seed: int, pass_index: int) -> list:
        rng = _rng(self.name, seed, pass_index)
        out = [self._task(rng, self.STUDIES[int(rng.integers(len(self.STUDIES)))], N, k)
               for N, k in zip(self._N_SCHEDULE, self._K)]
        return [out[i] for i in rng.permutation(len(out))]

    def warmup(self) -> dict:
        rng = _rng(self.name, 0, -1)
        return self._task(rng, self.STUDIES[1], 20, 2)

    def _task(self, rng, study, N: int, k: int) -> dict:
        family, where, limit = study
        a, s = _a(rng), float(0.5 + 1.5 * rng.random())
        tau = weak_tau(s, N)
        task = {"family": family, "where": where, "limit": limit, "a": a, "s": s,
                "N": N, "k": k}
        box, in_limit = _strip(s / 2, 2.0) if where == "bulk" else _parabola(s, 3.0)

        def inside(x, y):
            z = self.finite_point(task, complex(x, y))
            return in_limit(x, y) and ellipse_deficit(tau, z.real, z.imag) > _MARGIN
        task["points"] = _uniform_in(rng, box, inside, 5)
        return task

    @staticmethod
    def finite_point(task, p: complex) -> complex:
        N = task["N"]
        if task["where"] == "bulk":
            return p / N
        if task["where"] == "edge":
            return 1.0 - p / (2.0 * N * N)
        return -1.0 + p / (2.0 * N * N)

    def run(self, task, ctx):
        N, k = task["N"], task["k"]
        geo = eg.EllipseGeometry(weak_tau(task["s"], N))
        kern = eg.FiniteKernel(_gas(task["family"], task["a"]), geo, N)
        pts = [_z(p) for p in task["points"]]
        zs = [self.finite_point(task, p) for p in pts]
        finite = [complex(kern.eval(z, z)) for z in zs]
        rec = _Recorder(kern)
        try:
            det = eg.correlation_k(rec, zs[:k])
        except Exception as exc:    # None if refused, else the error fails the operation
            det = None if _refusal(exc) else repr(exc)
        spec = eg.LimitKernelSpec(eg.LimitKind(task["limit"]), a=task["a"], s=task["s"])
        lim = eg.make_kernel(spec)
        limit = [complex(lim(p, p)) for p in pts]
        return finite, rec.values, det, limit

    def collect(self, task, raw, ctx):
        return raw

    def check(self, task, out) -> Outcome:
        """Operations: five evals, one correlation_k, five limit evals."""
        finite, values, det, limit = out
        res = Outcome(ops=len(finite) + 1 + len(limit), refused=int(det is None))
        k = task["k"]
        if isinstance(det, str):
            res.failures.append(f"correlation_k raised {det}")
            det = None
        fails = []
        _check_gram(values, k, det, fails, 1e-9)
        if not fails and [values[i * k + i] for i in range(k)] != finite[:k]:
            fails.append("eval(z, z) differs between calls")
        if fails:
            res.failures.append("correlation_k: " + "; ".join(fails))
        for what, vals in (("eval", finite), ("limit kernel", limit)):
            res.failures += [f"{what} diagonal {v!r} is negative or not finite"
                             for v in vals if not (math.isfinite(v.real) and v.real >= 0)]
        return res

    def digest(self, out) -> bytes:
        return repr(out).encode()


# ---------------------------------------------------------------------------
# limits: every limiting kernel tabulated on pairs from its claimed domain
# ---------------------------------------------------------------------------

class Limits:
    """Each task tabulates one limiting kernel, built by make_kernel, on
    seeded pairs: K at (z1,z1), (z1,z2), (z2,z1), (z2,z2), each evaluation
    one operation.  A refusal stops nothing but that evaluation, so a task
    costs the same whatever is refused."""

    name = "limits"
    pass_seconds = 0.75
    PAIRS = 6
    # weighted toward the quadrature kernels; every LimitKind appears
    COUNTS = {"bulk-weak": 6, "edge-weak": 6, "edge-weak-minus-sine": 3,
              "edge-weak-minus-cosine": 3, "bulk-strong": 4, "bessel": 2,
              "edge-strong": 1, "sine": 1, "ginibre": 1, "global-u": 1,
              "global-t": 1, "global-v": 1, "global-rot-u": 1, "global-rot-t": 1,
              "global-rot-v": 1}

    def tasks(self, seed: int, pass_index: int) -> list:
        rng = _rng(self.name, seed, pass_index)
        kinds = [k for k, n in self.COUNTS.items() for _ in range(n)]
        return [self._task(rng, kinds[i], self.PAIRS) for i in rng.permutation(len(kinds))]

    def warmup(self) -> dict:
        return self._task(_rng(self.name, 0, -1), "edge-weak", 1)

    @staticmethod
    def domain(task):
        """(box, inside) of the kernel's claimed domain, windowed."""
        kind = task["kind"]
        if kind == "bulk-weak":
            return _strip(task["s"] / 2)
        if kind == "bulk-strong":
            return _strip(0.5)
        if kind in ("edge-weak", "edge-weak-minus-sine", "edge-weak-minus-cosine"):
            return _parabola(task["s"])
        if kind == "edge-strong":
            return (0.0, 4.0, -3.0, 3.0), lambda x, y: x > _MARGIN
        if kind == "sine":
            return _real_line(-3.0, 3.0)
        if kind == "bessel":
            return _real_line(0.0, 4.0)
        if kind == "ginibre":
            return (-2.0, 2.0, -2.0, 2.0), lambda x, y: True
        if kind in ("global-u", "global-t", "global-v"):
            return _rescaled_ellipse(task["tau"])
        return _punctured_disc()

    def _task(self, rng, kind: str, pairs: int) -> dict:
        task = {"kind": kind, "a": _a(rng), "s": float(0.5 + 2.5 * rng.random()),
                "tau": float(0.05 + 0.9 * rng.random())}
        box, inside = self.domain(task)
        pts = _uniform_in(rng, box, inside, 2 * pairs)
        task["pairs"] = [[pts[2 * i], pts[2 * i + 1]] for i in range(pairs)]
        return task

    def run(self, task, ctx):
        spec = eg.LimitKernelSpec(eg.LimitKind(task["kind"]), a=task["a"], s=task["s"],
                                  tau=task["tau"])
        kern = eg.make_kernel(spec)
        out = []
        for p1, p2 in task["pairs"]:
            z1, z2 = _z(p1), _z(p2)
            for u, v in ((z1, z1), (z1, z2), (z2, z1), (z2, z2)):
                try:
                    out.append(complex(kern(u, v)))
                except Exception as exc:    # anything but a refusal fails the operation
                    out.append(("refused", type(exc).__name__) if _refusal(exc)
                               else ("raised", type(exc).__name__, str(exc)))
        return out

    def collect(self, task, raw, ctx):
        return raw

    def check(self, task, out) -> Outcome:
        """Per pair, K(z1,z1), K(z1,z2), K(z2,z1), K(z2,z2): finite values,
        a real non-negative diagonal, K(z2,z1) = conj K(z1,z2) and
        |K(z1,z2)|^2 <= K(z1,z1) K(z2,z2), wherever the values exist."""
        res = Outcome(ops=len(out))
        # an off-diagonal entry can be tiny by cancellation, so Hermiticity is
        # judged against the diagonal's scale, the task's own if the pair's
        # diagonal was refused
        diagonals = [abs(v) for i, v in enumerate(out) if i % 4 in (0, 3)
                     and isinstance(v, complex)]
        task_scale = max(diagonals, default=0.0)
        for i in range(0, len(out), 4):
            vals = out[i:i + 4]
            where = f"pair {i // 4}"
            res.refused += sum(isinstance(v, tuple) and v[0] == "refused" for v in vals)
            res.failures += [f"{where}: {v[1]}: {v[2]}" for v in vals
                             if isinstance(v, tuple) and v[0] == "raised"]
            got = [v if isinstance(v, complex) else None for v in vals]
            if not all(v is None or cmath.isfinite(v) for v in got):
                res.failures.append(f"{where}: non-finite kernel value")
                continue
            k11, k12, k21, k22 = got
            for d in (k11, k22):
                if d is not None and not (d.real >= 0 and abs(d.imag) <= 1e-9 * d.real):
                    res.failures.append(f"{where}: diagonal {d!r} is not real and >= 0")
            if k12 is not None and k21 is not None:
                diag = abs(k11 * k22) ** 0.5 if None not in (k11, k22) else task_scale
                scale = max(abs(k12), diag, 1e-300)
                if abs(k21 - k12.conjugate()) > 1e-9 * scale:
                    res.failures.append(f"{where}: not Hermitian: {k12!r} vs {k21!r}")
            if None not in got and abs(k12) ** 2 > (1 + 1e-9) * k11.real * k22.real:
                res.failures.append(f"{where}: |K12|^2 {abs(k12) ** 2!r} exceeds "
                                    f"K11 K22 {k11.real * k22.real!r}")
        return res

    def digest(self, out) -> bytes:
        return repr(out).encode()


# ---------------------------------------------------------------------------
# montecarlo: the sample command through the CLI
# ---------------------------------------------------------------------------

class MonteCarlo:
    """Each task is one `sample` command run in-process: a fixed-length chain
    plus its density_chi_square."""

    name = "montecarlo"
    pass_seconds = 2.0
    STEPS, BURN_IN, THIN = 10_000, 1_000, 10
    _N = (4, 8, 16, 4, 8, 16)
    BATCHES = 10

    def tasks(self, seed: int, pass_index: int) -> list:
        rng = _rng(self.name, seed, pass_index)
        fams = rng.permutation(_FAMILIES)
        return [self._task(rng, str(f), N) for f, N in zip(fams, self._N)]

    def warmup(self) -> dict:
        task = self._task(_rng(self.name, 0, -1), "gegenbauer", 4)
        task.update(steps=400, burn_in=100, thin=10)
        return task

    def _task(self, rng, family: str, N: int) -> dict:
        a = 0.0 if family.startswith("chebyshev") else _a(rng)
        return {"family": family, "a": a, "tau": float(0.2 + 0.6 * rng.random()), "N": N,
                "steps": self.STEPS, "burn_in": self.BURN_IN, "thin": self.THIN,
                "chain_seed": int(rng.integers(2 ** 31))}

    def argv(self, task, output: str) -> list:
        return ["sample", "--family", task["family"], "--a", repr(task["a"]),
                "--tau", repr(task["tau"]), "--N", str(task["N"]),
                "--steps", str(task["steps"]), "--burn-in", str(task["burn_in"]),
                "--thin", str(task["thin"]), "--seed", str(task["chain_seed"]),
                "--output", output]

    def run(self, task, ctx):
        return eg.cli.main(self.argv(task, ctx.output_path("ndjson")))

    def collect(self, task, raw, ctx):
        with open(ctx.output_path("ndjson"), "rb") as fh:
            return raw, fh.read()

    def expected_sum_sq(self, task) -> float:
        """E sum_j |z_j|^2 = integral |z|^2 rho_1 by the gas's own product rule."""
        gas = _gas(task["family"], task["a"])
        geo = eg.EllipseGeometry(task["tau"])
        # ample for N <= 16
        nodes, w = eg.rule_for_gas(gas, geo, eg.QuadratureSpec(48, 64))
        rho = np.real(eg.FiniteKernel(gas, geo, task["N"]).diagonal(nodes))
        return float(np.sum(w * np.abs(nodes) ** 2 * rho))

    def check(self, task, out) -> Outcome:
        rc, data = out
        res = Outcome(ops=1)
        if rc != 0:
            res.failures.append(f"exit code {rc}")
            return res
        lines = data.decode().splitlines()
        confs = [json.loads(line)["points"] for line in lines[:-1]]
        want = len(range(task["burn_in"], task["steps"], task["thin"]))
        if len(confs) != want or "summary" not in json.loads(lines[-1]):
            res.failures.append(f"{len(confs)} configurations, expected {want} and a summary")
            return res
        tau, N = task["tau"], task["N"]
        for conf in confs:
            if len(conf) != N or len({tuple(p) for p in conf}) != N:
                res.failures.append("a configuration lacks N distinct points")
                return res
            if min(ellipse_deficit(tau, x, y) for x, y in conf) < -1e-12:
                res.failures.append("a particle lies outside the ellipse")
                return res
        f = np.array([sum(x * x + y * y for x, y in conf) for conf in confs])
        batches = np.array([b.mean() for b in np.array_split(f, self.BATCHES)])
        mean = float(batches.mean())
        se = float(batches.std(ddof=1)) / math.sqrt(self.BATCHES)
        # the quadrature fills the library's rule cache, which the sample
        # command does not use, so it runs after the timed passes
        res.later.append(partial(self.compare_mean, task, mean, se))
        return res

    def compare_mean(self, task, mean: float, se: float) -> list:
        exact = self.expected_sum_sq(task)
        # batch means of short thinned chains underestimate the error, so
        # the gate is wide: it catches a wrong measure, not a slow chain
        if abs(mean - exact) > 8 * se + 0.05 * exact:
            return [f"chain mean of sum|z|^2 {mean:.5g} +- {se:.2g} "
                    f"vs quadrature {exact:.5g}"]
        return []

    def digest(self, out) -> bytes:
        return out[1]


WORKLOADS = {w.name: w for w in (Figures(), Convergence(), Limits(), MonteCarlo())}


class Context:
    """Per-process scratch directory where CLI tasks write their output;
    removed on exit."""

    def __init__(self, directory: str):
        self.directory = directory

    def __enter__(self):
        os.makedirs(self.directory, exist_ok=True)
        return self

    def __exit__(self, *exc):
        shutil.rmtree(self.directory, ignore_errors=True)

    def output_path(self, ext: str) -> str:
        return os.path.join(self.directory, f"task.{ext}")
