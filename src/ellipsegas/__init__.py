"""Determinantal Coulomb gases on a hard-wall ellipse.

The namespace is lazy (PEP 562): `import ellipsegas` loads no layer.
`_EXPORTS` is the name table, layer module -> the names exported from it,
and the one place that says which layer a name lives in.  Every read of a
name (``ellipsegas.X`` or ``from ellipsegas import X``) goes through
`__getattr__`, which imports the name's layer and returns the layer's
attribute: the package binds no export, so a patch or wrapper put on a
layer, as a tracer puts and takes back, is what every read returns.  `cli`
keeps no namespace of its own either, and each command imports the names
it reads when it runs.

Each path loads only its own layers: `geometry` (with `errors` and
`specialfns`) for the gases and the ellipse, `polynomials`, `kernels_finite`
and `correlations` for finite kernels and density grids, `quadrature` and
`kernels_limit` for the limiting kernels, and `sampler` for the Metropolis
chain, which reads `correlations`.
"""

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
# name -> its layer module, a layer naming itself: `_EXPORTS` read the other way
_LAYER = {name: layer for layer, names in _EXPORTS.items() for name in (layer, *names)}


def __getattr__(name):
    """A layer module, or an export read from its layer on every read.  A
    layer not yet attached to the package, which the import system does
    once the layer has run, is imported by `__import__`, the import
    statement's own path, which `python -X importtime` reports
    (importlib.import_module bypasses it); nothing is bound here."""
    layer = _LAYER.get(name)
    if layer is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = globals().get(layer) or getattr(__import__(f"{__name__}.{layer}"), layer)
    return module if name == layer else getattr(module, name)


def __dir__():
    return sorted({*globals(), *__all__, *_EXPORTS})
