"""Reference densities with closed-form derivatives and seeded samplers.

Two families are provided: the Maxwell distribution (speed of an isotropic
3-D Gaussian vector) and the chi-square family. Both expose the density and
its first two derivatives in closed form, which the plug-in bandwidth
machinery consumes directly. Cost model: ReferenceDensity.derivs is one
closed-form evaluation of f, f' and f''; its views pdf, d1 and d2 cost one each.

The five integrals the bandwidth selectors need (curvature, mass and
correction of the MISE rules; the x^-1/2 mass and beta of the reference
rule) are finite sums of Gamma functions for both families. Like powers are
combined in exact rational arithmetic, so a divergence at the origin is
read off the lowest power, and only a few constants (pi, sqrt(2), Gamma at
quarter-integers, a central binomial ratio) are rounded. ReferenceDensity.params
names the family, which is how the selectors find these closed forms; a
reference without params is integrated by quadrature. Cost model: the
exact algebra runs once per process for each name (Maxwell, where sigma
then enters as one power) or each (m, name) (chi-square), in a bounded
cache; every later call is a lookup and, for Maxwell, a multiply. So the
selectors keep no integrals of their own: each one asks again, and a study
that runs all three asks two or three times for the same values.

Sampling reduces everything to standard normals: a Maxwell draw is the norm
of three of them scaled by sigma, and a chi-square draw with m degrees of
freedom is a sum of m squares. Normals come from a counter-based generator
(Philox) keyed through numpy's SeedSequence, so per-replication streams can
be split deterministically regardless of execution order.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .estimator import Sample
from .numerics import IntegrationError

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
_SQRT_PI = math.sqrt(math.pi)
# The integrands that are squares of f-terms; the rest are linear in f.
_SQUARED = ("curvature", "beta")


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


def _times(*factors: dict) -> dict:
    """Product of sums of powers, each a dict power -> coefficient, exactly."""
    out = {0: 1}
    for factor in factors:
        product: dict = {}
        for p, c in out.items():
            for q, d in factor.items():
                product[p + q] = product.get(p + q, 0) + c * d
        out = product
    return out


def _rising(x, k: int):
    """Pochhammer symbol (x)_k = Gamma(x + k) / Gamma(x), for any integer k."""
    out = 1
    for i in range(k):
        out *= x + i
    for i in range(1, 1 - k):
        out /= x - i
    return out


def _gamma_sum(name: str, terms: dict, d: int, q, anchor):
    """Exact S with integral of sum(c t^p e^{-q t^d}) = S Gamma(A) q^-A / d.

    Each term integrates to c Gamma(s) q^-s / d with s = (p + 1) / d, and
    Gamma(s) q^-s = Gamma(A) q^-A (A)_k q^-k where A is the anchor and
    k = s - A an integer. Powers and coefficients are Fractions. The lowest
    power with a nonzero coefficient sets the behaviour at 0: at p <= -1 the
    integral diverges, which raises IntegrationError.
    """
    live = {p: c for p, c in terms.items() if c}
    low = min(live)
    if low <= -1:
        raise IntegrationError(
            f"the {name} integral diverges at the origin like x^{low}"
        )
    total = 0
    for p, c in live.items():
        k = int((p + 1) / d - anchor)
        total += c * _rising(anchor, k) / q**k
    return total


# The exact sums depend on the name alone (Maxwell) or on (m, name)
# (chi-square), so each is computed once per process; this many are kept.
_EXACT_SUMS_KEPT = 256

# Gamma at the anchors of the Maxwell sums, correctly rounded (40-digit mpmath).
_MAXWELL_GAMMA = {0.25: 3.625609908221908, 0.5: _SQRT_PI, 0.75: 1.2254167024651776}


def _maxwell_integral(sigma: float, name: str) -> float:
    """One selector integral of the Maxwell density: unit * sigma^power.

    A sigma power past the float range raises IntegrationError, on every
    call; one that underflows gives 0.
    """
    power, unit = _maxwell_unit(name)
    try:
        scale = sigma**power
    except OverflowError:
        scale = math.inf
    value = unit * scale
    if math.isinf(value):
        raise IntegrationError(
            f"the {name} integral overflows the float range at sigma={sigma!r}"
        )
    return value


@functools.lru_cache(maxsize=_EXACT_SUMS_KEPT)
def _maxwell_unit(name: str) -> tuple[float, float]:
    """(power, unit) of one Maxwell selector integral, which is unit sigma^power.

    In u = x / sigma, with the density's sqrt(2/pi) and sigma powers in front:

        curvature   (2/pi) sigma^-5 (u^4 - 5u^2 + 7/3)^2 e^{-u^2}
        mass        sqrt(2/pi) sigma^-3/2 u^1/2 e^{-u^2/2}
        correction  sqrt(2/pi) sigma^-5/2 (u^3/2 - u^-1/2) e^{-u^2/2}
        root_mass   sqrt(2/pi) sigma^-1/2 u^3/2 e^{-u^2/2}
        beta        (2/pi) sigma^-3 u^2 (u^4 - 5u^2 + 2)^2 e^{-u^2}

    and u^p e^{-r u^2} integrates to Gamma((p+1)/2) / (2 r^{(p+1)/2}). The
    Gamma sum is anchored at the fractional part of the lowest (p+1)/2, a
    quarter-integer. No sigma enters, so the algebra runs once per name.
    """
    from fractions import Fraction as F

    d2 = {4: 1, 2: -5, 0: 2}  # f'' / (sqrt(2/pi) sigma^-3 e^{-u^2/2})
    power, terms = {
        "curvature": lambda: (-5, _times(*2 * [{**d2, 0: F(7, 3)}])),
        "mass": lambda: (-1.5, {F(1, 2): 1}),
        "correction": lambda: (-2.5, {F(3, 2): 1, F(-1, 2): -1}),
        "root_mass": lambda: (-0.5, {F(3, 2): 1}),
        "beta": lambda: (-3, _times({2: 1}, d2, d2)),
    }[name]()
    anchor = (F(min(terms)) + 1) / 2 % 1
    if name in _SQUARED:
        total = _gamma_sum(name, terms, 2, F(1), anchor)
        front = 1.0 / math.pi  # (2/pi) / 2
    else:
        total = _gamma_sum(name, terms, 2, F(1, 2), anchor)
        front = _SQRT_2_OVER_PI * 2.0 ** float(anchor) / 2.0
    return power, float(total) * _MAXWELL_GAMMA[float(anchor)] * front


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


_HALF_STEP_EXACT_MAX_M = 1000


def _half_step_ratio(m: int):
    """Gamma(z + 1/2) / Gamma(z) at z = m/2, as (R, j) with value R pi^{j/2}.

    Up to m = 1000, R is the exact rational of the central binomial
    coefficient:

        H(n) = sqrt(pi) n C(2n, n) / 4^n,   H(n + 1/2) = 4^n / (sqrt(pi) C(2n, n)).

    Above, R is a float of the large-z series sqrt(z) (1 - 1/(8z)
    + 1/(128z^2) + 5/(1024z^3) - 21/(32768z^4) - 399/(262144z^5)), whose
    truncation error there is below 2e-20, and j = 0: the binomial's cost
    grows like m^1.6, to 10 s at m = 1e6.
    """
    from fractions import Fraction

    n = m // 2
    if m <= _HALF_STEP_EXACT_MAX_M:
        c = math.comb(2 * n, n)
        return (Fraction(n * c, 4**n), 1) if m % 2 == 0 else (Fraction(4**n, c), -1)
    w = 2.0 / m
    series = -21.0 / 32768.0 - w * 399.0 / 262144.0
    for coef in (5.0 / 1024.0, 1.0 / 128.0, -1.0 / 8.0, 1.0):
        series = coef + w * series
    return math.sqrt(m / 2.0) * series, 0


@functools.lru_cache(maxsize=_EXACT_SUMS_KEPT)
def _chi_square_integral(m: int, name: str) -> float:
    """One selector integral of the chi-square density, in closed form.

    With z = m/2, a = z - 1 and f = x^a e^{-x/2} / (2^z Gamma(z)):

        curvature   f^2 ((a^2 - a + 1/3)/x^2 - a/x + 1/4)^2
        mass        x^-3/2 f
        correction  x^-3/2 f ((1 - a)/x + 1/2)
        root_mass   x^-1/2 f
        beta        f^2 ((a^2 - a)/x - a + x/4)^2

    Each term c x^p e^{-qx} integrates to c Gamma(p + 1) / q^{p+1}. By the
    duplication formula Gamma(2z) = 2^{2z-1} Gamma(z) Gamma(z + 1/2) / sqrt(pi),
    the f^2 sums are H / (2 sqrt(pi)) times a Gamma sum anchored at 2z, and
    the f sums sqrt(2) H times one anchored at z + 1/2, where
    H = Gamma(z + 1/2) / Gamma(z) (_half_step_ratio). The rational parts
    are multiplied exactly and rounded once; for even m the f^2 integrals
    are rationals. A divergent integral raises IntegrationError, which the
    cache does not keep, so it raises again on every call.
    """
    from fractions import Fraction as F

    z = F(m, 2)
    a = z - 1
    terms = {
        "curvature": lambda: _times(
            {2 * a: 1}, *2 * [{-2: a * a - a + F(1, 3), -1: -a, 0: F(1, 4)}]
        ),
        "mass": lambda: {a - F(3, 2): 1},
        "correction": lambda: {a - F(5, 2): 1 - a, a - F(3, 2): F(1, 2)},
        "root_mass": lambda: {a - F(1, 2): 1},
        "beta": lambda: _times({2 * a: 1}, *2 * [{-1: a * a - a, 0: -a, 1: F(1, 4)}]),
    }[name]()
    ratio, pi_power = _half_step_ratio(m)
    if name in _SQUARED:
        total = _gamma_sum(name, terms, 1, F(1), 2 * z)
        front = 0.5  # and pi^-1/2
        pi_power -= 1
    else:
        total = _gamma_sum(name, terms, 1, F(1, 2), z + F(1, 2))
        front = math.sqrt(2.0)
    return float(total * ratio) * math.pi ** (pi_power / 2) * front


@dataclass(frozen=True)
class ReferenceDensity:
    """One closed-form derivs(x) -> PdfDerivs; pdf, d1 and d2 are its fields.

    params names a built-in family, whose selector integrals have closed
    forms; None (a reference built by hand) leaves them to quadrature.
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


def _selector_integrals(
    params: MaxwellParams | ChiSquareParams, *names: str
) -> tuple[float, ...]:
    """The named selector integrals of a built-in family, in closed form.

    Names: curvature, mass, correction, root_mass (the integral of
    x^-1/2 f) and beta; they are computed in order, so the first divergent
    one raises.
    """
    if isinstance(params, MaxwellParams):
        return tuple(_maxwell_integral(params.sigma, name) for name in names)
    return tuple(_chi_square_integral(params.m, name) for name in names)


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
