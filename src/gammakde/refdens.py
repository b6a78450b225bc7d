"""Reference densities with closed-form derivatives and seeded samplers.

Two families are provided: the Maxwell distribution (speed of an isotropic
3-D Gaussian vector) and the chi-square family. Both expose the density and
its first two derivatives in closed form, which the plug-in bandwidth
machinery consumes directly. Cost model: ReferenceDensity.derivs is one
closed-form evaluation of f, f' and f''; its views pdf, d1 and d2 cost one each.

Sampling reduces everything to standard normals: a Maxwell draw is the norm
of three of them scaled by sigma, and a chi-square draw with m degrees of
freedom is a sum of m squares. Normals come from a counter-based generator
(Philox) keyed through numpy's SeedSequence, so per-replication streams can
be split deterministically regardless of execution order. They are drawn
in chunks of whole rows, as many as fit in 2^15 normals (256 KiB) and at
least one, into one reused buffer, squared in place and reduced straight
into the draws, so a sample of n holds 8n bytes and one chunk whatever the
family. The stream runs on across chunks and each row is reduced on its
own, so the chunks change no bit of any draw.
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


def _fields(arr: np.ndarray, f, d1, d2) -> PdfDerivs:
    """Floats for a 0-d query, arrays otherwise."""
    if arr.ndim == 0:
        return PdfDerivs(float(f), float(d1), float(d2))
    return PdfDerivs(f, d1, d2)


def maxwell_pdf_derivs(params: MaxwellParams, x) -> PdfDerivs:
    """Maxwell density and derivatives; x may be scalar or ndarray, x >= 0.

    In u = x / sigma, with phi(u) = sqrt(2/pi) u^2 exp(-u^2 / 2):

    f(x)   = phi(u) / sigma
    f'(x)  = -sqrt(2/pi) u (u^2 - 2) exp(-u^2 / 2) / sigma^2
    f''(x) = sqrt(2/pi) (u^4 - 5 u^2 + 2) exp(-u^2 / 2) / sigma^3

    dividing by sigma one factor at a time, so no power of sigma leaves the
    float range. u is capped at 40, where exp(-u^2 / 2) is already 0.0, so
    a point far out in the tail (or a tiny sigma) gives 0.0, not nan.
    """
    arr = np.asarray(x, dtype=float)
    if not ((arr >= 0.0) & (arr < np.inf)).all():
        raise ValueError("maxwell_pdf_derivs requires finite x >= 0")
    sigma = params.sigma
    u = np.minimum(arr, 40.0 * sigma) / sigma
    base = _SQRT_2_OVER_PI * np.exp(-u * u / 2.0)
    f = base * u * u / sigma
    d1 = -base * u * (u * u - 2.0) / sigma / sigma
    d2 = base * (u**4 - 5.0 * u * u + 2.0) / sigma / sigma / sigma
    return _fields(arr, f, d1, d2)


def chi_square_pdf_derivs(params: ChiSquareParams, x) -> PdfDerivs:
    """Chi-square density and derivatives via logarithmic differentiation.

    With f(x) = x^{m/2 - 1} e^{-x/2} / (2^{m/2} Gamma(m/2)) and
    a = m/2 - 1:  f' = f (a/x - 1/2),  f'' = f ((a/x - 1/2)^2 - a/x^2).
    Requires x > 0 (derivatives blow up at the origin for small m).
    """
    arr = np.asarray(x, dtype=float)
    if not ((arr > 0.0) & (arr < np.inf)).all():
        raise ValueError("chi_square_pdf_derivs requires finite x > 0")
    half_m = 0.5 * params.m
    a = half_m - 1.0
    log_norm = half_m * math.log(2.0) + math.lgamma(half_m)
    f = np.exp(a * np.log(arr) - 0.5 * arr - log_norm)
    ratio = a / arr - 0.5
    d1 = f * ratio
    d2 = f * (ratio * ratio - a / (arr * arr))
    return _fields(arr, f, d1, d2)


@dataclass(frozen=True)
class ReferenceDensity:
    """One closed-form derivs(x) -> PdfDerivs; pdf, d1 and d2 are its fields.

    params names a built-in family, whose selector integrals have closed
    forms (see asymptotics); None (a reference built by hand) leaves them
    to quadrature.
    """

    label: str
    derivs: Callable[[np.ndarray], PdfDerivs]
    params: MaxwellParams | ChiSquareParams | None = None

    def pdf(self, x):
        return self.derivs(x).f

    def d1(self, x):
        return self.derivs(x).d1

    def d2(self, x):
        return self.derivs(x).d2


# The lambdas look the closed form up per call, so a replaced module attribute is used.
def maxwell_reference(sigma: float = 1.0) -> ReferenceDensity:
    params = MaxwellParams(sigma=sigma)
    return ReferenceDensity(
        params.label, lambda x: maxwell_pdf_derivs(params, x), params
    )


def chi_square_reference(m: int) -> ReferenceDensity:
    params = ChiSquareParams(m=m)
    return ReferenceDensity(
        params.label, lambda x: chi_square_pdf_derivs(params, x), params
    )


def reference_for(params: MaxwellParams | ChiSquareParams) -> ReferenceDensity:
    if isinstance(params, MaxwellParams):
        return maxwell_reference(params.sigma)
    if isinstance(params, ChiSquareParams):
        return chi_square_reference(params.m)
    raise TypeError(f"unsupported distribution parameters: {params!r}")


# Normals drawn per chunk (256 KiB), rounded down to whole rows.
_CHUNK_NORMALS = 2**15


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
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise ValueError(f"n must be a positive integer, got {n!r}")
    if isinstance(params, MaxwellParams):
        width = 3
    elif isinstance(params, ChiSquareParams):
        width = params.m
    else:
        raise TypeError(f"unsupported distribution parameters: {params!r}")
    rng = _generator(seed)
    values = np.empty(n)
    rows = max(1, _CHUNK_NORMALS // width)
    chunk = np.empty((rows, width))
    # A draw past the largest float becomes inf, which Sample rejects.
    with np.errstate(over="ignore"):
        for start in range(0, n, rows):
            out = values[start : start + rows]
            g = chunk[: out.size]
            rng.standard_normal(out=g)
            g *= g
            if isinstance(params, MaxwellParams):
                # numpy sums a row of fewer than 8 entries left to right, so adding
                # the columns gives the bits of g.sum(axis=1) without the reduction.
                np.add(g[:, 0], g[:, 1], out=out)
                out += g[:, 2]
                np.sqrt(out, out=out)
                out *= params.sigma
            else:
                # From 8 entries numpy sums a row pairwise; column additions differ
                # from that in 31-85% of rows for m = 8..200, so the reduction stays.
                g.sum(axis=1, out=out)
    del chunk, g  # freed before the checks of Sample allocate their masks
    return Sample(values=values)
