"""Determinantal Coulomb gases on a hard-wall ellipse.

The namespace is lazy (PEP 562): `import ellipsegas` loads no layer.
`_EXPORTS` is the name table, layer module -> the names exported from it.
The first read of a name (``ellipsegas.X`` or ``from ellipsegas import X``)
imports its layer through `__getattr__`; from then on the name is a plain
attribute of the package, and no read calls `__getattr__` again.  A layer's
names are bound when the import system attaches the layer to the package
(`_Package.__setattr__`), whoever imported it, before any caller can read
the layer: a function that is swapped for a wrapper at every alias and put
back later, as a tracer does, leaves no copy of the wrapper here.  That
setattr is the one binding hook; `cli` keeps no namespace of its own, and
each command imports the names it reads when it runs.

Each path loads only its own layers: `geometry` (with `errors` and
`specialfns`) for the gases and the ellipse, `polynomials`, `kernels_finite`
and `correlations` for finite kernels and density grids, `quadrature` and
`kernels_limit` for the limiting kernels, and `sampler` for the Metropolis
chain, which reads `correlations`.
"""

import sys
from types import ModuleType

# layer module -> the names the package exports from it
_EXPORTS = {
    "errors": ("DomainError", "OutOfRangeError", "SingularPointError", "TailDivergenceError"),
    "geometry": ("EllipseGeometry", "GasFamily", "LimitKind", "PolyFamily", "PolyKind",
                 "bulk_domain_contains", "contains", "edge_domain_contains",
                 "ellipse_deficit", "joukowsky", "joukowsky_inverse", "log_weight",
                 "log_weight_values", "mu", "one_minus_mu", "weight", "weight_values"),
    "polynomials": ("ScaledValue", "chebyshev_t", "chebyshev_u", "chebyshev_v",
                    "gegenbauer", "jacobi", "log_squared_norms", "monic_value",
                    "squared_norm"),
    "quadrature": ("HALF_LINE", "UNIT_INTERVAL", "QuadratureSpec", "ellipse_rule",
                   "integrate_c", "integrate_ellipse", "rule_for_gas"),
    "kernels_finite": ("FiniteKernel", "kernel_elliptic_ginibre", "kernel_eval",
                       "kernel_truncated", "kernel_truncated_edge", "kernel_truncated_limit"),
    "kernels_limit": ("LimitKernelSpec", "bessel_kernel", "bulk_from_edge_check",
                      "bulk_strong", "bulk_weak", "edge_strong", "edge_weak",
                      "edge_weak_minus_cosine", "edge_weak_minus_sine", "ginibre_kernel",
                      "global_kernel", "global_kernel_t", "global_kernel_u",
                      "global_kernel_v", "global_rot_t", "global_rot_u", "global_rot_v",
                      "make_kernel", "sine_kernel"),
    "correlations": ("DensityGrid", "GridSpec", "correlation_k", "density_grid",
                     "log_partition"),
    "sampler": ("ChainSettings", "PRNG_ALGORITHM", "ParticleConfiguration",
                "density_chi_square", "empirical_density", "integrated_autocorrelation",
                "log_density", "metropolis_accept", "run_chain"),
    "specialfns": ("BesselOrder", "W_MAX", "bessel_i", "bessel_j", "ln_gamma",
                   "log_bessel_i", "log_i_ratio"),
}

__all__ = sorted(name for names in _EXPORTS.values() for name in names)
__version__ = "0.1.0"


def __getattr__(name):
    """A layer module or an export read before its layer was imported:
    import the layer, whose attachment binds the name.  `__import__` is the
    import statement's own path, which `python -X importtime` reports
    (importlib.import_module bypasses it)."""
    for layer, names in _EXPORTS.items():
        if name == layer or name in names:
            __import__(f"{__name__}.{layer}")
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__, *_EXPORTS})


class _Package(ModuleType):
    """The package's module type: its one hook is the import system's
    setattr that attaches a layer, which binds the layer's exports into the
    package, keeping any name already bound."""

    def __setattr__(self, name, value):
        super().__setattr__(name, value)
        if isinstance(value, ModuleType) and value.__name__ == f"{__name__}.{name}":
            namespace = vars(self)
            for export in _EXPORTS.get(name, ()):
                namespace.setdefault(export, getattr(value, export))


sys.modules[__name__].__class__ = _Package
