"""What each entry point loads: the package namespace is lazy, and each
command imports only the layers it reads.  Every case runs in a fresh
interpreter, so that nothing another test imported is counted."""

import json
import os
import subprocess
import sys

import pytest

import ellipsegas

# the names the package exported by eager imports, each with the layer it
# was imported from
_EXPORTED = {
    "errors": "DomainError OutOfRangeError SingularPointError TailDivergenceError",
    "geometry": "EllipseGeometry GasFamily PolyFamily PolyKind bulk_domain_contains contains "
                "edge_domain_contains ellipse_deficit joukowsky joukowsky_inverse log_weight "
                "log_weight_values mu one_minus_mu weight weight_values",
    "polynomials": "ScaledValue chebyshev_t chebyshev_u chebyshev_v gegenbauer jacobi "
                   "log_squared_norms monic_value squared_norm",
    "quadrature": "HALF_LINE UNIT_INTERVAL QuadratureSpec ellipse_rule integrate_c "
                  "integrate_ellipse rule_for_gas",
    "kernels_finite": "FiniteKernel kernel_elliptic_ginibre kernel_eval kernel_truncated "
                      "kernel_truncated_edge kernel_truncated_limit",
    "kernels_limit": "LimitKernelSpec LimitKind bessel_kernel bulk_from_edge_check bulk_strong "
                     "bulk_weak edge_strong edge_weak edge_weak_minus_cosine "
                     "edge_weak_minus_sine ginibre_kernel global_kernel global_kernel_t "
                     "global_kernel_u global_kernel_v global_rot_t global_rot_u global_rot_v "
                     "make_kernel sine_kernel",
    "correlations": "DensityGrid GridSpec correlation_k density_grid log_partition",
    "sampler": "ChainSettings PRNG_ALGORITHM ParticleConfiguration density_chi_square "
               "empirical_density integrated_autocorrelation log_density metropolis_accept "
               "run_chain",
    "specialfns": "BesselOrder W_MAX bessel_i bessel_j ln_gamma log_bessel_i log_i_ratio",
}

_LAYERS = ("errors", "geometry", "specialfns", "polynomials", "quadrature", "kernels_finite",
           "kernels_limit", "correlations", "sampler")


def _fresh(script: str):
    """The JSON that `script` prints as its last line, run in a fresh
    interpreter that imports this checkout's package; `loaded()` in the
    script gives the ellipsegas layers and the watched modules loaded."""
    prelude = (
        "import json, sys\n"
        "def loaded():\n"
        "    mods = sorted(m.split('.')[1] for m in sys.modules if m.startswith('ellipsegas.'))\n"
        "    return mods + [m for m in ('argparse', 'fractions') if m in sys.modules]\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(ellipsegas.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, "-c", prelude + script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_importing_the_package_loads_no_layer():
    assert _fresh("import ellipsegas\nprint(json.dumps(loaded()))") == []


def test_importing_the_cli_loads_only_geometry_and_no_argparse():
    got = _fresh("import ellipsegas.cli\nprint(json.dumps(loaded()))")
    assert got == ["cli", "errors", "geometry", "specialfns"]


_COMMANDS = {
    "density": (["density", "--tau", "0.5", "--N", "3", "--nx", "3", "--ny", "2"],
                {"kernels_limit", "sampler", "quadrature"}),
    "kernel-bulk-weak": (["kernel", "--kind", "bulk-weak", "--a", "1", "--s", "1",
                          "--points", "0.3,0.2"],
                         {"kernels_finite", "correlations", "sampler"}),
    "kernel-finite": (["kernel", "--kind", "finite", "--tau", "0.5", "--N", "3",
                       "--points", "0.3,0.2"],
                      {"kernels_limit", "correlations", "sampler", "quadrature"}),
    "sample": (["sample", "--tau", "0.5", "--N", "3", "--steps", "300", "--burn-in", "10",
                "--thin", "10"],
               {"kernels_limit", "quadrature"}),
    "converge": (["converge", "--study", "bulk-weak", "--a", "1", "--schedule", "2,3"],
                 {"correlations", "sampler"}),
    "orthocheck": (["orthocheck", "--tau", "0.5", "--max-degree", "2"],
                   {"kernels_finite", "kernels_limit", "correlations", "sampler"}),
}


@pytest.mark.parametrize("name", list(_COMMANDS))
def test_each_command_loads_only_its_layers(name, tmp_path):
    argv, absent = _COMMANDS[name]
    out = str(tmp_path / "out")
    got = _fresh(f"import ellipsegas.cli as cli\n"
                 f"assert cli.main({argv!r} + ['--output', {out!r}]) == 0\n"
                 f"print(json.dumps(loaded()))")
    assert not absent & set(got), got
    assert "fractions" not in got


def test_every_exported_name_resolves_to_its_layer_and_is_listed():
    names = {name: layer for layer, text in _EXPORTED.items() for name in text.split()}
    got = _fresh(f"import importlib, ellipsegas\n"
                 f"names = {names!r}\n"
                 f"listed = set(dir(ellipsegas))\n"
                 f"bad = [n for n, layer in names.items()\n"
                 f"       if getattr(ellipsegas, n) is not getattr(\n"
                 f"           importlib.import_module('ellipsegas.' + layer), n)\n"
                 f"       or n not in listed]\n"
                 f"from ellipsegas import *\n"
                 f"print(json.dumps([bad, sorted(set(names) - set(globals()))]))")
    assert got == [[], []]


def test_the_package_binds_no_export_and_reads_each_from_its_layer():
    # once every layer is imported, no export is bound in the package, and
    # each read goes to the layer: a layer attribute patched and then
    # restored reads through the package as the patch, then as the original
    got = _fresh(f"import importlib, ellipsegas\n"
                 f"bad = []\n"
                 f"for layer in {list(_LAYERS)!r}:\n"
                 f"    module = importlib.import_module('ellipsegas.' + layer)\n"
                 f"    for n in ellipsegas._EXPORTS.get(layer, ()):\n"
                 f"        real, patch = getattr(module, n), object()\n"
                 f"        setattr(module, n, patch)\n"
                 f"        seen = getattr(ellipsegas, n)\n"
                 f"        setattr(module, n, real)\n"
                 f"        if seen is not patch or getattr(ellipsegas, n) is not real:\n"
                 f"            bad.append(n)\n"
                 f"bound = [n for n in ellipsegas.__all__ if n in vars(ellipsegas)]\n"
                 f"print(json.dumps([bound, bad]))")
    assert got == [[], []]


def test_a_patch_on_a_layer_reaches_the_cli(tmp_path):
    # the layers are imported before they are patched, and each command reads
    # its names from them when it runs
    out = str(tmp_path / "out")
    argvs = [["density", "--tau", "0.5", "--N", "3", "--nx", "3", "--ny", "2"],
             ["sample", "--tau", "0.5", "--N", "3", "--steps", "300", "--burn-in", "10",
              "--thin", "10"],
             ["kernel", "--kind", "finite", "--tau", "0.5", "--N", "3", "--points", "0.3,0.2"]]
    got = _fresh(f"import ellipsegas.cli as cli\n"
                 f"from ellipsegas import correlations, kernels_finite, sampler\n"
                 f"called = []\n"
                 f"def spy(module, name):\n"
                 f"    real = getattr(module, name)\n"
                 f"    def patch(*args, **kwargs):\n"
                 f"        called[-1].append(name)\n"
                 f"        return real(*args, **kwargs)\n"
                 f"    setattr(module, name, patch)\n"
                 f"spy(correlations, 'density_grid')\n"
                 f"spy(sampler, 'run_chain')\n"
                 f"spy(kernels_finite, 'FiniteKernel')\n"
                 f"for argv in {argvs!r}:\n"
                 f"    called.append([])\n"
                 f"    assert cli.main(argv + ['--output', {out!r}]) == 0\n"
                 f"print(json.dumps(called))")
    assert got == [["FiniteKernel", "density_grid"], ["run_chain", "FiniteKernel"],
                   ["FiniteKernel"]]


def test_unknown_names_raise_attribute_error():
    import ellipsegas.cli as cli

    for module in (ellipsegas, cli):
        with pytest.raises(AttributeError, match="no attribute 'nope'"):
            getattr(module, "nope")


def test_choice_tables_are_the_same_objects_in_every_layer():
    from ellipsegas import correlations, geometry, kernels_limit

    assert kernels_limit.LimitKind is geometry.LimitKind is ellipsegas.LimitKind
    assert correlations.RESCALE_MAPS is geometry.RESCALE_MAPS
