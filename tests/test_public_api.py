"""The public names of gammakde, pinned.

A name leaves or joins the package surface only by editing PUBLIC below,
and every name the benchmark under bench/ reaches through the package must
stay present.
"""

import ast
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import gammakde
import gammakde.cli

PUBLIC = [
    "BandwidthConstants",
    "BandwidthReport",
    "BandwidthsConfig",
    "ChiSquareParams",
    "ConfigError",
    "ConvergenceConfig",
    "ConvergenceResult",
    "DegenerateIntegralError",
    "ExperimentConfig",
    "ExperimentReport",
    "FixedBandwidth",
    "GridEvaluation",
    "GridSpec",
    "IntegrationError",
    "MaxwellParams",
    "MiseIntegrals",
    "MomentCheckConfig",
    "MomentCheckReport",
    "NoRootError",
    "PdfDerivs",
    "PointwiseBandwidth",
    "QuadratureResult",
    "ReferenceDensity",
    "RefinedBandwidth",
    "Sample",
    "asymptotic_moment_check",
    "bandwidth_report",
    "bias_boundary",
    "bias_interior",
    "chen_bandwidth",
    "chen_constants",
    "chi_square_pdf_derivs",
    "chi_square_reference",
    "convergence_study",
    "curvature_term",
    "density_at",
    "derivative_at",
    "derived_seed",
    "digamma",
    "evaluate_on_grid",
    "find_root",
    "global_bandwidth_plugin",
    "integrate_semi_infinite",
    "kernel_value",
    "kernel_x_derivative",
    "log_gamma",
    "maxwell_pdf_derivs",
    "maxwell_reference",
    "mise_integrals",
    "mise_leading",
    "mse_leading",
    "pointwise_optimal",
    "reference_for",
    "refined_bandwidth",
    "run_experiment",
    "sample",
    "squared_kernel_constant",
    "stirling_ratio",
    "variance_leading",
    "write_report",
]

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"


def _modules():
    return [
        importlib.import_module(f"gammakde.{info.name}")
        for info in pkgutil.iter_modules(gammakde.__path__)
    ]


def test_package_all_is_pinned():
    assert PUBLIC == sorted(PUBLIC)
    assert len(set(PUBLIC)) == len(PUBLIC)
    assert gammakde.__all__ == PUBLIC


def test_reexports_are_the_defining_objects():
    for name in gammakde.__all__:
        obj = getattr(gammakde, name)
        home = inspect.getmodule(obj)
        assert home.__name__.startswith("gammakde."), name
        assert name in home.__all__, name
        assert getattr(home, name) is obj, name


def test_every_module_all_entry_exists():
    modules = _modules()
    assert {m.__name__ for m in modules} >= {"gammakde.kernels", "gammakde.cli"}
    for module in modules:
        names = getattr(module, "__all__", [])
        assert len(set(names)) == len(names), module.__name__
        for name in names:
            assert hasattr(module, name), f"{module.__name__}.{name}"


def test_names_the_benchmark_uses_are_present():
    used = set()
    for path in BENCH.glob("*.py"):
        used |= set(re.findall(r"\b(?:gk|gammakde)\.([A-Za-z_]\w*)", path.read_text()))
    # the benchmark's estimator oracle and its direct selector calls
    assert {"kernel_x_derivative", "global_bandwidth_plugin", "bandwidth_report"} <= used
    for name in sorted(used):
        assert hasattr(gammakde, name), name
    for cls in (gammakde.ExperimentConfig, gammakde.ConvergenceConfig,
                gammakde.MomentCheckConfig):
        assert callable(cls.from_dict)


def test_no_module_imports_a_private_name_of_another():
    # A private name stays in its module; what another module needs is public.
    leaks = []
    for path in sorted((ROOT / "src" / "gammakde").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level == 0 and not (node.module or "").startswith("gammakde"):
                continue
            leaks += [
                f"{path.name}:{node.lineno} imports {alias.name}"
                for alias in node.names
                if alias.name.startswith("_")
            ]
    assert leaks == []
