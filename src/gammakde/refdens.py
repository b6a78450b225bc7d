"""Reference densities with closed-form derivatives and seeded samplers.

Two families are provided: the Maxwell distribution (speed of an isotropic
3-D Gaussian vector) and the chi-square family. Both expose the density and
its first two derivatives in closed form, which the plug-in bandwidth
machinery consumes directly.

Sampling reduces everything to standard normals: a Maxwell draw is the norm
of three of them scaled by sigma, and a chi-square draw with m degrees of
freedom is a sum of m squares. Normals come from a counter-based generator
(Philox) keyed through numpy's SeedSequence, so per-replication streams can
be split deterministically regardless of execution order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .estimator import Sample

__all__ = [
    "MaxwellParams",
    "ChiSquareParams",
    "PdfDerivs",
    "ReferenceDensity",
    "maxwell_pdf_derivs",
    "chi_square_pdf_derivs",
    "maxwell_reference",
    "chi_square_reference",
    "reference_for",
    "sample",
    "derived_seed",
]

_SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)


@dataclass(frozen=True)
class MaxwellParams:
    """Scale parameter of the Maxwell distribution."""

    sigma: float = 1.0

    def __post_init__(self):
        if not (math.isfinite(self.sigma) and self.sigma > 0.0):
            raise ValueError(f"sigma must be finite and > 0, got {self.sigma!r}")

    @property
    def label(self) -> str:
        return f"maxwell(sigma={self.sigma:g})"


@dataclass(frozen=True)
class ChiSquareParams:
    """Degrees of freedom of the chi-square distribution, m >= 3."""

    m: int

    def __post_init__(self):
        if not isinstance(self.m, int) or self.m < 3:
            raise ValueError(f"degrees of freedom must be an integer >= 3, got {self.m!r}")

    @property
    def label(self) -> str:
        return f"chi_square(m={self.m})"


@dataclass(frozen=True)
class PdfDerivs:
    """Density with its first and second derivatives at the query points."""

    f: float | np.ndarray
    d1: float | np.ndarray
    d2: float | np.ndarray


def _as_float_array(x) -> tuple[np.ndarray, bool]:
    arr = np.asarray(x, dtype=float)
    return arr, arr.ndim == 0


def maxwell_pdf_derivs(params: MaxwellParams, x) -> PdfDerivs:
    """Maxwell density and derivatives; x may be scalar or ndarray, x >= 0.

    f(x)  = sqrt(2/pi) x^2 exp(-x^2 / (2 sigma^2)) / sigma^3
    f'(x) = -sqrt(2/pi) x (x^2 - 2 sigma^2) exp(-x^2 / (2 sigma^2)) / sigma^5
    f''(x) = sqrt(2/pi) (x^4 - 5 sigma^2 x^2 + 2 sigma^4)
             exp(-x^2 / (2 sigma^2)) / sigma^7
    """
    arr, scalar = _as_float_array(x)
    if np.any(arr < 0.0) or not np.all(np.isfinite(arr)):
        raise ValueError("maxwell_pdf_derivs requires finite x >= 0")
    s2 = params.sigma * params.sigma
    expo = np.exp(-arr * arr / (2.0 * s2))
    base = _SQRT_2_OVER_PI * expo
    f = base * arr * arr / params.sigma**3
    d1 = -base * arr * (arr * arr - 2.0 * s2) / params.sigma**5
    d2 = base * (arr**4 - 5.0 * s2 * arr * arr + 2.0 * s2 * s2) / params.sigma**7
    if scalar:
        return PdfDerivs(float(f), float(d1), float(d2))
    return PdfDerivs(f, d1, d2)


def chi_square_pdf_derivs(params: ChiSquareParams, x) -> PdfDerivs:
    """Chi-square density and derivatives via logarithmic differentiation.

    With f(x) = x^{m/2 - 1} e^{-x/2} / (2^{m/2} Gamma(m/2)) and
    a = m/2 - 1:  f' = f (a/x - 1/2),  f'' = f ((a/x - 1/2)^2 - a/x^2).
    Requires x > 0 (derivatives blow up at the origin for small m).
    """
    arr, scalar = _as_float_array(x)
    if np.any(arr <= 0.0) or not np.all(np.isfinite(arr)):
        raise ValueError("chi_square_pdf_derivs requires finite x > 0")
    half_m = 0.5 * params.m
    a = half_m - 1.0
    log_norm = half_m * math.log(2.0) + math.lgamma(half_m)
    f = np.exp(a * np.log(arr) - 0.5 * arr - log_norm)
    ratio = a / arr - 0.5
    d1 = f * ratio
    d2 = f * (ratio * ratio - a / (arr * arr))
    if scalar:
        return PdfDerivs(float(f), float(d1), float(d2))
    return PdfDerivs(f, d1, d2)


@dataclass(frozen=True)
class ReferenceDensity:
    """Bundle of callables the bandwidth selectors and the harness consume."""

    label: str
    pdf: Callable[[np.ndarray], np.ndarray]
    d1: Callable[[np.ndarray], np.ndarray]
    d2: Callable[[np.ndarray], np.ndarray]


def maxwell_reference(sigma: float = 1.0) -> ReferenceDensity:
    params = MaxwellParams(sigma=sigma)
    return ReferenceDensity(
        label=params.label,
        pdf=lambda x: maxwell_pdf_derivs(params, x).f,
        d1=lambda x: maxwell_pdf_derivs(params, x).d1,
        d2=lambda x: maxwell_pdf_derivs(params, x).d2,
    )


def chi_square_reference(m: int) -> ReferenceDensity:
    params = ChiSquareParams(m=m)
    return ReferenceDensity(
        label=params.label,
        pdf=lambda x: chi_square_pdf_derivs(params, x).f,
        d1=lambda x: chi_square_pdf_derivs(params, x).d1,
        d2=lambda x: chi_square_pdf_derivs(params, x).d2,
    )


def reference_for(params: MaxwellParams | ChiSquareParams) -> ReferenceDensity:
    if isinstance(params, MaxwellParams):
        return maxwell_reference(params.sigma)
    if isinstance(params, ChiSquareParams):
        return chi_square_reference(params.m)
    raise TypeError(f"unsupported distribution parameters: {params!r}")


def _generator(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


def derived_seed(root_seed: int, *indices: int) -> int:
    """Deterministic child seed at a coordinate under `root_seed`.

    Distinct index tuples give statistically independent streams, so
    replication r of a run can be addressed as (r,) and replication r at
    ladder position s as (s, r) without seed collisions.
    """
    if not indices:
        raise ValueError("at least one index is required")
    ss = np.random.SeedSequence(
        entropy=int(root_seed), spawn_key=tuple(int(i) for i in indices)
    )
    return int(ss.generate_state(1, np.uint64)[0])


def sample(params: MaxwellParams | ChiSquareParams, n: int, seed: int) -> Sample:
    """Draw n observations; identical (params, n, seed) give identical draws."""
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"n must be a positive integer, got {n!r}")
    rng = _generator(seed)
    if isinstance(params, MaxwellParams):
        g = rng.standard_normal((n, 3))
        g *= g
        # numpy sums a row of fewer than 8 entries left to right, so adding
        # the columns gives the bits of g.sum(axis=1) without the reduction.
        values = params.sigma * np.sqrt(g[:, 0] + g[:, 1] + g[:, 2])
    elif isinstance(params, ChiSquareParams):
        g = rng.standard_normal((n, params.m))
        g *= g
        # From 8 entries numpy sums a row pairwise; column additions differ
        # from that in 31-85% of rows for m = 8..200, so the reduction stays.
        values = g.sum(axis=1)
    else:
        raise TypeError(f"unsupported distribution parameters: {params!r}")
    return Sample(values=values)
