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

__all__ = [
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
