"""Gamma-kernel estimation of densities and their derivatives on [0, inf).

The estimator places a gamma density at each evaluation point, with the
shape parameter tied to the point so that no kernel mass ever falls below
zero.  Alongside the estimator itself the package carries its asymptotic
moment expansions, three data-independent bandwidth rules built from them,
and a reproducible simulation harness.

Layout
------
kernels      gamma kernel and its derivative in the evaluation point
estimator    sample container and grid evaluation of the two estimators
refdens      reference densities (Maxwell, chi-square) and exact sampling
asymptotics  bias/variance/MSE/MISE expansions and bandwidth selectors
harness      experiment configs, replication engine, JSON/CSV reports
specfun      log-gamma, digamma, Stirling gamma ratio (self-contained)
numerics     adaptive quadrature on (0, inf), bisection
cli          `gammakde` command line front end
"""

import os as _os
import sys as _sys
from types import ModuleType as _ModuleType

# numpy's bundled OpenBLAS starts a worker thread per CPU beyond the first
# when it loads, and on a 2-CPU host that thread spins for about 0.12 s of
# CPU.  The package's only BLAS calls are tiny, and its parallelism is
# worker processes, so it loads numpy with one BLAS thread.  OpenBLAS reads
# the variable once, at load, so it is removed again at once: the caller's
# environment and later child processes keep what they had.  A caller's own
# OPENBLAS_NUM_THREADS wins, and so does a numpy the caller imported first.
if "numpy" not in _sys.modules and "OPENBLAS_NUM_THREADS" not in _os.environ:
    _os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy as _numpy  # noqa: F401
    finally:
        del _os.environ["OPENBLAS_NUM_THREADS"]

from .asymptotics import (
    BandwidthConstants,
    BandwidthReport,
    MiseIntegrals,
    PointwiseBandwidth,
    RefinedBandwidth,
    bandwidth_report,
    bias_boundary,
    bias_interior,
    chen_bandwidth,
    chen_constants,
    curvature_term,
    global_bandwidth_plugin,
    mise_integrals,
    mise_leading,
    mse_leading,
    pointwise_optimal,
    refined_bandwidth,
    squared_kernel_constant,
    variance_leading,
)
from .estimator import (
    GridEvaluation,
    Sample,
    density_at,
    derivative_at,
    evaluate_on_grid,
)
from .harness import (
    BandwidthsConfig,
    ConfigError,
    ConvergenceConfig,
    ConvergenceResult,
    ExperimentConfig,
    ExperimentReport,
    FixedBandwidth,
    GridSpec,
    MomentCheckConfig,
    MomentCheckReport,
    asymptotic_moment_check,
    convergence_study,
    run_experiment,
    write_report,
)
from .kernels import kernel_value, kernel_x_derivative
from .numerics import (
    DegenerateIntegralError,
    IntegrationError,
    NoRootError,
    QuadratureResult,
    find_root,
    integrate_semi_infinite,
)
from .refdens import (
    ChiSquareParams,
    MaxwellParams,
    PdfDerivs,
    ReferenceDensity,
    chi_square_pdf_derivs,
    chi_square_reference,
    derived_seed,
    maxwell_pdf_derivs,
    maxwell_reference,
    reference_for,
    sample,
)
from .specfun import digamma, log_gamma, stirling_ratio

__version__ = "0.1.0"

# Every public name the imports above bind, less the submodules they bind too.
__all__ = sorted(name for name, obj in vars().items()
                 if not name.startswith("_") and not isinstance(obj, _ModuleType))
