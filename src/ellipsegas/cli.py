"""Command-line front end: density grids, kernel evaluation, convergence
studies, orthogonality audits, Monte Carlo sampling.

All output is deterministic: on one machine, identical flags (and seed) produce
byte-identical files.  Values computed through numpy's vectorised exp and log can
move in their last digit with numpy's SIMD level, so between machines a density
grid or the chi-square in `sample`'s summary may differ in a last digit;
`sample`'s configuration lines are byte-stable.  Floats are rendered with repr(),
the shortest round-trip decimal, and JSON is strict: a non-finite value is never
written as NaN or Infinity.  Grids and chains repeat most of their values, so
the writers format each distinct value once, keyed on its bits: a density file
formats each coordinate once per grid axis and each distinct density once, in
CSV and in JSON, and `sample` fills every line from the texts of its distinct
particle coordinates by one template per chain.  All of them give the same
bytes as formatting every value.
Exit codes: 0 ok, 2 usage/validation or a refused value (a limit whose tail
does not decay), 3 I/O failure.

Each command imports the names it reads from the layers in its own body, so
they are looked up when it runs, and a patch or wrapper put on a layer's
attribute is the one called.  `kernel` builds every --kind from its row of
the one table of kinds, `geometry.KERNEL_KINDS`, through `geometry._kernel_of`,
as `make_kernel` does: the kernel is looked up by name in the row's layer,
and the row's parameters are checked by their rules, each refusal
naming the kind (`error: truncated needs integer N in [1, 1000000]`); a
flag that the kind does not take is ignored.
Importing this module loads only `geometry`
(with `errors` and `specialfns`), from which the parser takes its choices;
argparse is imported when the parser is built.  `density` loads
`kernels_finite` and `correlations` (and through them `polynomials`),
`kernel` `kernels_limit` (and `quadrature`) for a limiting kind and
`kernels_finite` for the others, `converge` `kernels_limit` and, for a weak
study, `kernels_finite`, `orthocheck` `polynomials` and `quadrature`, and
`sample` `sampler` with `correlations` and `kernels_finite`.
"""

from __future__ import annotations

import functools
import json
import math
import sys

import numpy as np

from .errors import DomainError, TailDivergenceError
from .geometry import (_CHEBYSHEV, KERNEL_KINDS, RESCALE_MAPS, EllipseGeometry, GasFamily,
                       LimitKind, PolyKind, _kernel_of, weight_values)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3

# the value by which the a < 0 kernels flag their integrable hard-edge
# divergence; the kernel command writes it as "re": null, "divergent": true
_DIVERGENT = complex(math.inf, 0.0)

# strict JSON: a non-finite float raises ValueError, so the command exits 2.
# One encoder serves every line; json.dumps would build one per call.
_dumps = json.JSONEncoder(allow_nan=False).encode

# configurations per block in which `sample` fills in its lines
_LINE_BLOCK = 64


def _gas(args) -> GasFamily:
    kind = PolyKind(args.family)
    return GasFamily(kind, 0.0 if kind in _CHEBYSHEV else args.a)


def _write_text(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _distinct_texts(values):
    """(texts, which): the repr of each distinct value of the float array
    `values`, keyed on its bits so that 0.0 and -0.0 stay apart, as an object
    array, and the index into texts of every value, shaped as `values`.
    Density grids and chains repeat most of their values, so each distinct
    one is formatted once."""
    values = np.ascontiguousarray(values, dtype=float)
    bits, which = np.unique(values.view(np.int64), return_inverse=True)
    texts = np.array(list(map(repr, bits.view(float).tolist())), dtype=object)
    return texts, which.reshape(values.shape)


def _grid_csv(grid: DensityGrid) -> str:
    """x,y,rho rows, x outer; each coordinate is formatted once per grid axis
    and each distinct rho once."""
    ys = [f"{y!r}," for y in grid.spec.ys.tolist()]
    texts, which = _distinct_texts(grid.values)
    rows = ["x,y,rho\n"]
    for x, column in zip(grid.spec.xs.tolist(), texts[which].tolist()):
        xc = f"{x!r},"
        rows += [f"{xc}{y}{rho}\n" for y, rho in zip(ys, column)]
    return "".join(rows)


def _grid_json(grid: DensityGrid, rescale: str) -> str:
    """The grid object with row-major values, byte for byte what `_dumps`
    writes: the encoder writes the rest of the payload and the texts of
    `_distinct_texts` are spliced in as its last member.  A non-finite value
    raises DomainError before anything is formatted, as strict JSON requires."""
    if not np.isfinite(grid.values).all():
        raise DomainError("a density value is not finite; strict JSON cannot hold it")
    payload = {
        "x_range": list(grid.spec.x_range),
        "y_range": list(grid.spec.y_range),
        "nx": grid.spec.nx,
        "ny": grid.spec.ny,
        "rescale": rescale,
        "values": [],
    }
    texts, which = _distinct_texts(grid.values.ravel(order="C"))
    head = _dumps(payload)[:-len("]}")]
    return head + ", ".join(texts[which].tolist()) + "]}\n"


def cmd_density(args) -> int:
    from .correlations import GridSpec, density_grid
    from .kernels_finite import FiniteKernel

    kernel = FiniteKernel(_gas(args), EllipseGeometry(args.tau), args.N)
    grid = GridSpec((args.xmin, args.xmax), (args.ymin, args.ymax), args.nx, args.ny)
    dg = density_grid(kernel, grid, rescale=args.rescale)
    text = _grid_csv(dg) if args.format == "csv" else _grid_json(dg, args.rescale)
    _write_text(args.output, text)
    return EXIT_OK


def _parse_pairs(raw: str):
    pairs = []
    for chunk in raw.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = [float(p) for p in chunk.split(",")]
        if not all(math.isfinite(p) for p in parts):
            raise DomainError(f"pair {chunk!r} has a non-finite coordinate")
        if len(parts) == 2:
            z = complex(parts[0], parts[1])
            pairs.append((z, z))
        elif len(parts) == 4:
            pairs.append((complex(parts[0], parts[1]), complex(parts[2], parts[3])))
        else:
            raise DomainError(f"pair {chunk!r} must have 2 or 4 comma-separated reals")
    if not pairs:
        raise DomainError("no evaluation points given")
    return pairs


def _kernel_from_args(args):
    """The kernel of --kind, by its row of `KERNEL_KINDS` (`_kernel_of`):
    "finite" builds its FiniteKernel from the gas."""
    kernel = _kernel_of(args.kind, args)
    if args.kind == "finite":
        return kernel.func(_gas(args), EllipseGeometry(args.tau), args.N)
    return kernel


def cmd_kernel(args) -> int:
    kernel = _kernel_from_args(args)
    pairs = _parse_pairs(args.points)
    rows = []
    for z1, z2 in pairs:
        val = complex(kernel(z1, z2))
        row = {"z1": [z1.real, z1.imag], "z2": [z2.real, z2.imag]}
        if val == _DIVERGENT:
            row.update(re=None, im=None, divergent=True)
        else:
            row.update(re=val.real, im=val.imag)
        rows.append(row)
    _write_text(args.output, _dumps({"kind": args.kind, "values": rows}) + "\n")
    return EXIT_OK


_BULK_POINTS = [0j, 0.3 + 0.2j, -0.5 + 0.4j, 1.0 - 0.3j, 0.7 + 0.45j]
_EDGE_POINTS = [1.0 + 0j, 0.5 + 0.3j, 2.0 - 0.5j, 0.3 + 0j, 1.5 + 1.0j]


def _weak_side(point, scale, args, gas: GasFamily, n: int):
    """Finite side of a weak study: z -> K_N(point(z, N), point(z, N)) / scale(N)
    for the gas of N = n particles at tau_N = 1/(1 + s^2/2N^2); DomainError,
    naming s and N, where tau_N rounds to 1."""
    from .kernels_finite import FiniteKernel

    tau = 1.0 / (1.0 + args.s * args.s / (2.0 * n ** 2))
    if tau == 1.0:
        raise DomainError(f"converge needs tau_N = 1/(1 + s^2/2N^2) below 1, but s = {args.s:g} "
                          f"and N = {n} give 1 in double precision")
    kern = FiniteKernel(gas, EllipseGeometry(tau), n)
    return lambda z: kern.eval(point(z, n), point(z, n)) / scale(n)


def _strong_side(args, gas: GasFamily, s: int):
    """Finite side of the strong study: z -> s^2 K_weak(s z, s z) at s."""
    from .kernels_limit import bulk_weak

    return lambda z: s ** 2 * bulk_weak(args.a, float(s), s * z, s * z)


# converge --study -> (the LimitKind it converges to, its points, the row key
# of a schedule entry, approximant(args, gas, entry), which gives the finite
# side as a function of a point).  A row holds the sup over the points of
# |finite side - K(z, z)|; the limit K is cached, so it runs once per point.
# The strong study takes s^2 K_weak(s z) -> K_strong(z), |Im z| <= 1/4.
_STUDIES = {
    "bulk-weak": (LimitKind.BULK_WEAK, _BULK_POINTS, "N",
                  functools.partial(_weak_side, lambda z, N: z / N, lambda N: N ** 2)),
    "edge-weak": (LimitKind.EDGE_WEAK, _EDGE_POINTS, "N",
                  functools.partial(_weak_side, lambda Z, N: 1.0 - Z / (2.0 * N ** 2),
                                    lambda N: 4.0 * N ** 4)),
    "strong": (LimitKind.BULK_STRONG, [z / 4.0 for z in _BULK_POINTS], "s", _strong_side),
}


def cmd_converge(args) -> int:
    from .kernels_limit import LimitKernelSpec, make_kernel

    gas = _gas(args)
    schedule = [int(x) for x in args.schedule.split(",")]
    if min(schedule) < 1 or len(set(schedule)) < 2:
        raise DomainError("--schedule needs at least two distinct positive values")
    kind, points, key, approximant = _STUDIES[args.study]
    limit = functools.cache(make_kernel(LimitKernelSpec(kind, a=args.a, s=args.s)))
    rows = []
    for n in schedule:
        approx = approximant(args, gas, n)
        gaps = [approx(z) - limit(z, z) for z in points]
        rows.append({key: n, "sup_discrepancy": max(0.0, *map(abs, gaps))})
    ys = np.log([max(r["sup_discrepancy"], 1e-300) for r in rows])
    slope = float(np.polyfit(np.log(schedule), ys, 1)[0])
    payload = {"study": args.study, "rows": rows, "fitted_decay_exponent": slope}
    _write_text(args.output, _dumps(payload) + "\n")
    return EXIT_OK


def cmd_orthocheck(args) -> int:
    from .polynomials import _MAX_TABLE, log_raw_norms, scaled_sequence
    from .quadrature import QuadratureSpec, rule_for_gas

    gas = _gas(args)
    if (args.max_degree + 1) ** 2 > _MAX_TABLE:
        # the Gram holds (max_degree + 1)^2 entries, a polynomial table's cap
        raise DomainError(f"orthocheck needs (max_degree + 1)^2 <= {_MAX_TABLE}, "
                          f"got max_degree = {args.max_degree}")
    geo = EllipseGeometry(args.tau)
    z, w = rule_for_gas(gas, geo, QuadratureSpec(args.radial_nodes, args.angular_nodes))
    mant, logs = scaled_sequence(gas, args.max_degree, z)
    lh = log_raw_norms(gas, geo, args.max_degree)
    vals = mant * np.exp(logs - lh[:, None] / 2.0)
    gram = (vals * (w * weight_values(gas, geo, z))) @ np.conj(vals.T)
    off = float(np.max(np.abs(gram - np.diag(np.diag(gram)))))
    dia = float(np.max(np.abs(np.diag(gram) - 1.0)))
    payload = {
        "family": args.family, "a": gas.a, "tau": args.tau,
        "max_degree": args.max_degree,
        "max_offdiagonal": off, "max_diagonal_error": dia,
    }
    _write_text(args.output, _dumps(payload) + "\n")
    return EXIT_OK


def _configuration_lines(samples, N: int) -> list[str]:
    """One '{"points": [[x, y], ...]}' line per configuration, byte for byte
    what `_dumps` writes; a non-finite position raises DomainError, as strict
    JSON requires.  A chain moves one particle per step, so most positions
    recur from line to line: `_distinct_texts` formats each distinct
    coordinate once, and every line is filled in from those texts by one
    %-template per chain."""
    positions = np.array(samples, dtype=complex).view(float)
    if not np.isfinite(positions).all():
        raise DomainError("a sampled position is not finite")
    texts, which = _distinct_texts(positions)
    del positions           # from here on only the texts and their indices
    template = '{"points": [' + ", ".join(["[%s, %s]"] * N) + "]}"
    # the rows of texts are taken a block at a time, so that no table of them
    # all is held beside the lines
    return [template % tuple(row) for start in range(0, len(which), _LINE_BLOCK)
            for row in texts[which[start:start + _LINE_BLOCK]].tolist()]


def cmd_sample(args) -> int:
    from .correlations import GridSpec
    from .kernels_finite import FiniteKernel
    from .sampler import PRNG_ALGORITHM, ChainSettings, density_chi_square, run_chain

    gas = _gas(args)
    geo = EllipseGeometry(args.tau)
    settings = ChainSettings(steps=args.steps, burn_in=args.burn_in, thin=args.thin,
                             proposal_sigma=args.sigma, seed=args.seed)
    samples, acceptance = run_chain(gas, geo, args.N, settings)
    lines = _configuration_lines(samples, args.N)
    grid = GridSpec((-geo.semi_x, geo.semi_x), (-geo.semi_y, geo.semi_y), 12, 12)
    kernel = FiniteKernel(gas, geo, args.N)
    chi2, dof = density_chi_square(samples, kernel, grid)
    summary = {"algorithm": PRNG_ALGORITHM, "seed": args.seed,
               "acceptance_rate": acceptance, "chi_square": chi2, "dof": dof,
               "sigma_units": (chi2 - dof) / math.sqrt(2 * dof) if dof else None,
               "configurations": len(samples)}
    lines.append(_dumps({"summary": summary}))
    _write_text(args.output, "\n".join(lines) + "\n")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    import argparse

    p = argparse.ArgumentParser(prog="ellipsegas",
                                description="Coulomb-gas kernels on a hard-wall ellipse")
    sub = p.add_subparsers(dest="command", required=True)

    def add_gas(q, a=0.0, tau=True):
        """--family, --a and --tau: required if tau is True, optional if False,
        absent if None."""
        q.add_argument("--family", choices=sorted(k.value for k in PolyKind),
                       default="gegenbauer")
        q.add_argument("--a", type=float, default=a)
        if tau is not None:
            q.add_argument("--tau", type=float, required=tau)

    d = sub.add_parser("density", help="one-point density on a grid")
    add_gas(d)
    d.add_argument("--N", type=int, required=True)
    d.add_argument("--nx", type=int, default=64)
    d.add_argument("--ny", type=int, default=64)
    d.add_argument("--xmin", type=float, default=-1.2)
    d.add_argument("--xmax", type=float, default=1.2)
    d.add_argument("--ymin", type=float, default=-1.2)
    d.add_argument("--ymax", type=float, default=1.2)
    d.add_argument("--rescale", choices=RESCALE_MAPS, default="none")
    d.add_argument("--format", choices=["csv", "json"], default="csv")
    d.add_argument("--output", default="-")

    k = sub.add_parser("kernel", help="evaluate a finite or limiting kernel")
    k.add_argument("--kind", choices=list(KERNEL_KINDS), required=True)
    add_gas(k, tau=False)
    k.add_argument("--s", type=float, default=None)
    k.add_argument("--N", type=int, default=None)
    k.add_argument("--points", required=True,
                   help="semicolon-separated 're,im' (diagonal) or 're,im,re,im' pairs")
    k.add_argument("--output", default="-")

    c = sub.add_parser("converge", help="finite-N to limit convergence study")
    c.add_argument("--study", choices=list(_STUDIES), required=True)
    add_gas(c, a=1.0, tau=None)
    c.add_argument("--s", type=float, default=1.0)
    c.add_argument("--schedule", default="100,200,400",
                   help="comma-separated N (or s) values")
    c.add_argument("--output", default="-")

    o = sub.add_parser("orthocheck", help="quadrature audit of orthonormality")
    add_gas(o)
    o.add_argument("--max-degree", type=int, default=8)
    o.add_argument("--radial-nodes", type=int, default=96)
    o.add_argument("--angular-nodes", type=int, default=128)
    o.add_argument("--output", default="-")

    m = sub.add_parser("sample", help="Metropolis chain for the Gibbs measure")
    add_gas(m)
    m.add_argument("--N", type=int, required=True)
    m.add_argument("--steps", type=int, default=100_000)
    m.add_argument("--burn-in", type=int, default=10_000)
    m.add_argument("--thin", type=int, default=100)
    m.add_argument("--sigma", type=float, default=None)
    m.add_argument("--seed", type=int, default=0)
    m.add_argument("--output", default="-")
    return p


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process.  It holds no command: `main` looks
    up cmd_<command> by name when it is called, as `_kernel_from_args` looks
    up a kernel."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return globals()["cmd_" + args.command](args)
    except (ValueError, TailDivergenceError) as exc:   # DomainError, bad flags, refusals
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
