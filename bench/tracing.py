"""Span tracer around the public functions of each ellipsegas module.

`Tracer.install` wraps every public function defined in a layer module, plus
the FiniteKernel methods, and swaps each wrapper in for every module-level
alias of the original throughout ``ellipsegas.*``: cli and kernels_finite
bind library names with ``from ... import``, so patching the defining module
alone would miss their calls.  `uninstall` puts every original back.

A span records name, start, end, parent span and task id in flat arrays kept
in memory; `save` writes them out.  Each frame also records its self time,
its duration minus the time its child calls took.  The geometry functions run
once per point or proposal, so they are counted and timed in aggregate
without a span record, which bounds the overhead.  Wrappers do nothing but
call through while `recording` is off.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
from array import array
from collections import defaultdict
from time import perf_counter

import numpy as np

LAYERS = ("polynomials", "kernels_finite", "correlations", "geometry",
          "kernels_limit", "specialfns", "quadrature", "sampler", "cli")
_AGGREGATE_ONLY = {"geometry"}
_FINITE_METHODS = {"__init__": "construct", "eval": "eval", "diagonal": "diagonal"}
_MARK = "_bench_span"


def _span_name(layer: str, name: str) -> str:
    if layer == "cli" and name.startswith("cmd_"):
        name = name[4:]
    return f"{layer}.{name}"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.task = array("i")
        self.start = array("d")
        self.end = array("d")
        self.self_time = array("d")
        self.raised: dict[int, int] = defaultdict(int)
        # aggregate-only functions: name -> [calls, self seconds]
        self.aggregate: dict[str, list] = defaultdict(lambda: [0, 0.0])
        # counts taken at the boundaries: name -> value
        self.counts: dict[str, float] = defaultdict(float)
        self.recording = False
        self.task_id = -1
        self._open = [-1]           # indices of the open spans
        self._child = [0.0]         # child time accumulated by each open frame
        self._restore: list = []

    # -- wrappers -----------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _span(self, name: str, fn):
        nid = self._id(name)
        before, after = _HOOKS.get(name, (None, None))
        tr = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tr.recording:
                return fn(*args, **kwargs)
            if before is not None:
                args, kwargs = before(tr, args, kwargs)
            idx = len(tr.name)
            tr.name.append(nid)
            tr.parent.append(tr._open[-1])
            tr.task.append(tr.task_id)
            tr.end.append(0.0)
            tr.self_time.append(0.0)
            tr._open.append(idx)
            child = tr._child
            child.append(0.0)
            t0 = perf_counter()
            tr.start.append(t0)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tr.raised[nid] += 1
                raise
            finally:
                t1 = perf_counter()
                inner = child.pop()
                child[-1] += t1 - t0
                tr._open.pop()
                tr.end[idx] = t1
                tr.self_time[idx] = t1 - t0 - inner
            if after is not None:
                after(tr, args, kwargs, result)
            return result

        setattr(wrapper, _MARK, name)
        return wrapper

    def _aggregate(self, name: str, fn):
        stats = self.aggregate[name]
        tr = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tr.recording:
                return fn(*args, **kwargs)
            child = tr._child
            child.append(0.0)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                inner = child.pop()
                child[-1] += dur
                stats[0] += 1
                stats[1] += dur - inner

        setattr(wrapper, _MARK, name)
        return wrapper

    # -- install / uninstall ------------------------------------------------

    def install(self) -> None:
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"ellipsegas.{layer}")
            make = self._aggregate if layer in _AGGREGATE_ONLY else self._span
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    wrappers[obj] = make(_span_name(layer, attr), obj)
        for modname, mod in list(sys.modules.items()):
            if modname != "ellipsegas" and not modname.startswith("ellipsegas."):
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(mod, attr, wrappers[obj])
                    self._restore.append((mod, attr, obj))
        fk = sys.modules["ellipsegas.kernels_finite"].FiniteKernel
        for meth, span in _FINITE_METHODS.items():
            orig = fk.__dict__[meth]
            setattr(fk, meth, self._span(f"kernels_finite.{span}", orig))
            self._restore.append((fk, meth, orig))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()

    # -- output -------------------------------------------------------------

    def save(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        np.savez_compressed(path, names=np.array(self.names), name=np.asarray(self.name),
                            parent=np.asarray(self.parent), task=np.asarray(self.task),
                            start=np.asarray(self.start), end=np.asarray(self.end),
                            self_time=np.asarray(self.self_time))


def leftover_wrappers() -> list:
    """Names of library attributes that are still tracer wrappers."""
    import ellipsegas

    left = []
    owners = [m for n, m in sys.modules.items()
              if n == "ellipsegas" or n.startswith("ellipsegas.")]
    owners.append(ellipsegas.kernels_finite.FiniteKernel)
    for owner in owners:
        for attr, obj in list(vars(owner).items()):
            if hasattr(obj, _MARK):
                left.append(f"{getattr(owner, '__name__', owner)}.{attr}")
    return left


# -- counts taken at span boundaries -------------------------------------------

def _count_terms(tr, args, kwargs):
    def terms(family, n_max, z):
        return (n_max + 1) * np.size(z)
    tr.counts["polynomials.scaled_sequence.terms"] += terms(*args, **kwargs)
    return args, kwargs


def _count_points(tr, args, kwargs):
    def points(self, zs):
        return np.size(zs)
    tr.counts["kernels_finite.diagonal.points"] += points(*args, **kwargs)
    return args, kwargs


def _count_nodes(tr, args, kwargs):
    """Replace the integrand by one that counts its nodes."""
    g, rest = args[0], args[1:]

    def counted(c):
        tr.counts["quadrature.integrate_c.nodes"] += np.size(c)
        return g(c)
    return (counted,) + rest, kwargs


def _count_steps(tr, args, kwargs, result):
    def settings_of(gas, geometry, N, settings):
        return settings
    steps = settings_of(*args, **kwargs).steps
    tr.counts["sampler.run_chain.steps"] += steps
    tr.counts["sampler.run_chain.accepted"] += result[1] * steps


def _count_bytes(tr, args, kwargs, result):
    out = args[0].output
    if out != "-":
        tr.counts["cli.bytes_written"] += os.path.getsize(out)


_HOOKS = {
    "polynomials.scaled_sequence": (_count_terms, None),
    "kernels_finite.diagonal": (_count_points, None),
    "quadrature.integrate_c": (_count_nodes, None),
    "sampler.run_chain": (None, _count_steps),
    "cli.density": (None, _count_bytes),
    "cli.sample": (None, _count_bytes),
}


# -- per-layer metrics ------------------------------------------------------------

LIMIT_KERNELS = ("bulk_weak", "edge_weak", "edge_weak_minus_sine", "edge_weak_minus_cosine",
                 "bulk_strong", "bessel_kernel", "edge_strong", "global_kernel_u",
                 "global_kernel_t", "global_kernel_v")     # quadrature or series
CLOSED_FORM = ("sine_kernel", "ginibre_kernel", "global_rot_u", "global_rot_t",
               "global_rot_v")


class _Spans:
    """Array views of a tracer's spans, with lookups by span name."""

    def __init__(self, tr: Tracer):
        self.ids = {n: i for i, n in enumerate(tr.names)}
        self.name = np.asarray(tr.name, dtype=np.int64)
        self.parent = np.asarray(tr.parent, dtype=np.int64)
        # layer index by name id; name id -1 (no span) maps to layer -1
        self.layer = np.array([LAYERS.index(n.split(".")[0]) for n in tr.names] + [-1])
        self.parent_name = self._name_at(self.parent)
        k = len(tr.names)
        self.calls = np.bincount(self.name, minlength=k)
        self.self_s = np.bincount(self.name, weights=np.asarray(tr.self_time), minlength=k)

    def _name_at(self, idx: np.ndarray) -> np.ndarray:
        """Name ids of the spans at indices idx, -1 where idx is -1."""
        return np.where(idx >= 0, self.name[np.maximum(idx, 0)], -1)

    def mask(self, name: str) -> np.ndarray:
        return self.name == self.ids.get(name, -2)

    def n(self, name: str) -> int:
        i = self.ids.get(name)
        return int(self.calls[i]) if i is not None else 0

    def t(self, name: str) -> float:
        i = self.ids.get(name)
        return float(self.self_s[i]) if i is not None else 0.0

    def outside(self, layer: str) -> np.ndarray:
        """For each span, the name id of its nearest ancestor in another layer."""
        li = LAYERS.index(layer)
        anc = self.parent.copy()
        while True:
            inside = self.layer[self._name_at(anc)] == li
            if not inside.any():
                return self._name_at(anc)
            anc = np.where(inside, self.parent[np.maximum(anc, 0)], anc)

    def under(self, child: str, parent: str, direct: bool = True) -> int:
        """Number of `child` spans whose parent (or, with direct=False, whose
        nearest ancestor outside the child's layer) is a `parent` span."""
        pid = self.ids.get(parent, -2)
        anc = self.parent_name if direct else self.outside(child.split(".")[0])
        return int(np.sum(self.mask(child) & (anc == pid)))


def layer_metrics(tr: Tracer, passes: int, traced_s: float, untraced_s: float):
    """Per-layer metrics, per pass over the task list, and the base of every
    ratio as [numerator, denominator, what the denominator counts], both per
    pass.  traced_s and untraced_s are task seconds summed over all passes."""
    sp = _Spans(tr)
    cnt = tr.counts
    m, bases = {}, {}

    def put(name, value):
        m[name] = value / passes

    def ratio(name, num, den, base, scale=1.0):
        m[name] = scale * num / den if den else 0.0
        bases[name] = [num / passes, den / passes, base]

    def calls_self(span, prefix=None):
        prefix = prefix or span
        put(f"{prefix}.calls", sp.n(span))
        put(f"{prefix}.self_s", sp.t(span))

    calls_self("polynomials.scaled_sequence")
    put("polynomials.scaled_sequence.terms", cnt["polynomials.scaled_sequence.terms"])
    ratio("polynomials.scaled_sequence.ns_per_term", sp.t("polynomials.scaled_sequence"),
          cnt["polynomials.scaled_sequence.terms"], "terms", 1e9)
    calls_self("polynomials.log_squared_norms")

    for meth in ("construct", "eval", "diagonal"):
        calls_self(f"kernels_finite.{meth}")
    put("kernels_finite.diagonal.points", cnt["kernels_finite.diagonal.points"])
    ratio("kernels_finite.sequences_per_eval",
          sp.under("polynomials.scaled_sequence", "kernels_finite.eval", direct=False),
          sp.n("kernels_finite.eval"), "eval calls")

    calls_self("correlations.density_grid")
    ratio("correlations.density_grid.diagonal_calls_per_grid",
          sp.under("kernels_finite.diagonal", "correlations.density_grid", direct=False),
          sp.n("correlations.density_grid"), "density_grid calls")
    calls_self("correlations.correlation_k")
    kernel_calls = sum(sp.under(k, "correlations.correlation_k")
                       for k in ["kernels_finite.eval"]
                       + [f"kernels_limit.{f}" for f in LIMIT_KERNELS + CLOSED_FORM])
    ratio("correlations.correlation_k.kernel_calls_per_det", kernel_calls,
          sp.n("correlations.correlation_k"), "correlation_k calls")

    for fn in ("contains", "log_weight"):
        put(f"geometry.{fn}.calls", tr.aggregate[f"geometry.{fn}"][0])
    put("geometry.self_s", sum(v[1] for v in tr.aggregate.values()))

    limit_calls = 0
    for fn in LIMIT_KERNELS:
        calls_self(f"kernels_limit.{fn}")
    for fn in LIMIT_KERNELS + CLOSED_FORM:
        limit_calls += sp.n(f"kernels_limit.{fn}")
    put("kernels_limit.raised", sum(c for nid, c in tr.raised.items()
                                    if tr.names[nid].startswith("kernels_limit.")))

    for fn in ("log_i_ratio", "bessel_j"):
        calls_self(f"specialfns.{fn}")
    special = LAYERS.index("specialfns")
    entered = int(np.sum((sp.layer[sp.name] == special) & (sp.layer[sp.parent_name] != special)))
    ratio("specialfns.calls_per_limit_eval", entered, limit_calls, "limit kernel calls")

    calls_self("quadrature.integrate_c")
    put("quadrature.integrate_c.nodes", cnt["quadrature.integrate_c.nodes"])

    calls_self("sampler.run_chain")
    steps = cnt["sampler.run_chain.steps"]
    put("sampler.run_chain.steps", steps)
    ratio("sampler.run_chain.us_per_step", sp.t("sampler.run_chain"), steps, "steps", 1e6)
    ratio("sampler.acceptance", cnt["sampler.run_chain.accepted"], steps, "steps")
    calls_self("sampler.density_chi_square")
    put("sampler.density_chi_square.diagonal_calls",
        sp.under("kernels_finite.diagonal", "sampler.density_chi_square"))

    put("cli.density.self_s", sp.t("cli.density"))
    put("cli.sample.self_s", sp.t("cli.sample"))
    put("cli.bytes_written", cnt["cli.bytes_written"])

    layer_self = np.bincount(sp.layer[sp.name], weights=np.asarray(tr.self_time),
                             minlength=len(LAYERS))[:len(LAYERS)]
    layer_self[LAYERS.index("geometry")] += sum(v[1] for v in tr.aggregate.values())
    for layer, t in zip(LAYERS, layer_self):
        ratio(f"{layer}.self_share", float(t), traced_s, "traced task seconds")
    ratio("untraced.self_share", traced_s - float(layer_self.sum()), traced_s,
          "traced task seconds")

    put("trace.spans", len(tr.name))
    put("trace.overhead_s", traced_s - untraced_s)
    ratio("trace.overhead_frac", traced_s - untraced_s, untraced_s, "untraced task seconds")
    return m, bases


PER_LAYER_UNITS = {"calls": "count", "self_s": "s", "terms": "count", "ns_per_term": "ns",
                   "points": "count", "raised": "count", "nodes": "count",
                   "steps": "count", "us_per_step": "us", "diagonal_calls": "count",
                   "bytes_written": "B", "spans": "count", "overhead_s": "s"}


def unit_of(metric: str) -> str:
    return PER_LAYER_UNITS.get(metric.rsplit(".", 1)[1], "1")
