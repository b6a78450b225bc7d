"""Leading-order accuracy theory for the derivative estimator.

Everything in this module is phrased against a reference density with
closed-form first and second derivatives (see refdens). The pointwise
mean-squared-error expansion drives a per-point bandwidth; integrating it
gives a global mean-integrated-squared-error expansion and three global
bandwidth selectors:

* a plug-in rule from the two leading MISE terms (closed form),
* a refined rule keeping the next-order variance correction (root of a
  transcendental residual),
* a density-oriented reference rule built from the squared second moment
  of x f''(x) (for comparison; it targets the density, not its slope).

Bandwidth powers follow from balancing squared bias O(b^2) against variance
O(n^-1 b^-3/2): the optimum scales as n^(-2/7) and the MSE there as n^(-4/7).

Cost model: each pointwise formula makes one closed-form evaluation,
ref.derivs, whichever of f, f' and f'' it reads. The global integrals of a
built-in reference (ref.params set) are closed-form Gamma sums and call no
integrand; any other reference is integrated by quadrature, with one
ref.derivs evaluation per integrand call. Each SELECTORS entry evaluates
the integrals its rule needs on every call, which for a built-in reference
is a cache lookup (see refdens); bandwidth_report evaluates each set once
for all three rules, so a reference without params is integrated once.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import numerics
from .refdens import PdfDerivs, ReferenceDensity, _selector_integrals
from .specfun import stirling_ratio

__all__ = [
    "curvature_term",
    "bias_interior",
    "bias_boundary",
    "variance_leading",
    "squared_kernel_constant",
    "mse_leading",
    "PointwiseBandwidth",
    "pointwise_optimal",
    "MiseIntegrals",
    "mise_integrals",
    "mise_leading",
    "global_bandwidth_plugin",
    "RefinedBandwidth",
    "refined_bandwidth",
    "chen_constants",
    "chen_bandwidth",
    "BandwidthConstants",
    "SELECTORS",
    "BandwidthReport",
    "bandwidth_report",
]

_SQRT_PI = math.sqrt(math.pi)
_QUAD_REL_TOL = 1e-10  # relative accuracy of every global integral
_ROOT_SCAN_EDGES = 201  # 200 log-spaced brackets over the scan interval
_ROOT_SCAN_LO = 1e-4
_ROOT_SCAN_HI = 1.0


def _check_n(n: int) -> int:
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"sample size must be a positive integer, got {n!r}")
    return n


def _check_bandwidth(b: float) -> float:
    b = float(b)
    if not (math.isfinite(b) and b > 0.0):
        raise ValueError(f"bandwidth must be finite and > 0, got {b!r}")
    return b


def _curvature(d: PdfDerivs, x):
    term = d.f / (3.0 * x * x) + d.d2
    return term * term


def curvature_term(ref: ReferenceDensity, x) -> float | np.ndarray:
    """Squared curvature factor (f(x)/(3 x^2) + f''(x))^2 driving the bias.

    Accepts scalars or arrays with x > 0.
    """
    arr = np.asarray(x, dtype=float)
    if not ((arr > 0.0) & (arr < np.inf)).all():
        raise ValueError("curvature_term requires finite x > 0")
    out = _curvature(ref.derivs(arr), arr)
    return float(out) if arr.ndim == 0 else out


def bias_interior(ref: ReferenceDensity, x: float, b: float) -> float:
    """Leading bias of the derivative estimate away from the origin.

    bias = b (f(x) / (12 x^2) + f''(x) / 4), valid on x >= 2 b.

    Notes
    -----
    Monte Carlo moment checks show this expression misses the estimator's
    actual O(b) bias, which exact gamma-moment algebra puts at
    b (f''(x)/2 + x f'''(x)/2): the expression above drops the kernel's
    third central moment (2 x b^2), which survives at O(b) through the
    derivative kernel's 1/b prefactor. It is kept as the prediction under
    test, and the gap is surfaced rather than silently corrected; see
    asymptotic_moment_check and the acceptance suite.
    """
    b = _check_bandwidth(b)
    x = float(x)
    if not (math.isfinite(x) and x >= 2.0 * b):
        raise ValueError(f"interior bias requires x >= 2 b, got x={x!r}, b={b!r}")
    if x * x == 0.0:
        raise ValueError(f"interior bias at x={x!r}: x^2 underflows to 0")
    with np.errstate(all="ignore"):  # a term out of the float range is tested below
        d = ref.derivs(x)
    bias = b * (float(d.f) / (12.0 * x * x) + float(d.d2) / 4.0)
    if not math.isfinite(bias):
        raise ValueError(f"interior bias at x={x!r}, b={b!r} leaves the float range")
    return bias


def bias_boundary(ref: ReferenceDensity, b: float, kappa: float) -> float:
    """Leading bias in the boundary regime x = kappa * b with kappa in (0, 2].

    bias = f'(kappa b) (3 kappa^2 - 6 kappa - 1) / (6 kappa)
           + b f''(kappa b) (7 kappa / 48 + kappa^2 / 2)

    At kappa = 2 the derivative coefficient is exactly -1/12.
    """
    b = _check_bandwidth(b)
    kappa = float(kappa)
    if not (math.isfinite(kappa) and 0.0 < kappa <= 2.0):
        raise ValueError(f"boundary regime requires kappa in (0, 2], got {kappa!r}")
    x = kappa * b
    slope_coef = (3.0 * kappa * kappa - 6.0 * kappa - 1.0) / (6.0 * kappa)
    curve_coef = 7.0 * kappa / 48.0 + kappa * kappa / 2.0
    d = ref.derivs(x)
    return float(d.d1) * slope_coef + b * float(d.d2) * curve_coef


def variance_leading(ref: ReferenceDensity, x: float, b: float, n: int) -> float:
    """Leading variance of the derivative estimate away from the origin.

    var = (b^{-3/2} x^{-1/2} / (2 sqrt(pi) n))
          * (f(x) / (2 x) + b (f(x) / (4 x^2) - f'(x) / (4 x)))
    """
    b = _check_bandwidth(b)
    n = _check_n(n)
    x = float(x)
    if not (math.isfinite(x) and x >= 2.0 * b):
        raise ValueError(f"interior variance requires x >= 2 b, got x={x!r}, b={b!r}")
    with np.errstate(all="ignore"):  # a term out of the float range is tested below
        d = ref.derivs(x)
    f, d1 = float(d.f), float(d.d1)
    try:
        scale = 2.0 * _SQRT_PI * n * b ** 1.5 * math.sqrt(x)
        variance = (f / (2.0 * x) + b * (f / (4.0 * x * x) - d1 / (4.0 * x))) / scale
    except (OverflowError, ZeroDivisionError):  # b^(3/2) overflows, or x^2 or the scale underflows
        scale = variance = math.nan
    if not (math.isfinite(scale) and math.isfinite(variance)):
        raise ValueError(f"interior variance at x={x!r}, b={b!r} leaves the float range")
    return variance


def squared_kernel_constant(x: float, b: float) -> float:
    """Normalization constant B(x, b) of the squared interior kernel.

    Squaring the interior gamma kernel with shape rho = x / b and
    renormalizing to a gamma density with doubled rate yields

        B(x, b) = b^-5 x^2 Gamma(2 rho - 1) / (2^{2 rho - 2} Gamma(rho + 1)^2)
                = R(rho)^2 / (sqrt(pi) R(2 rho) b^{5/2} sqrt(x) (1 - b / (2 x))),

    equivalently (2 / b^2) * integral of the squared kernel, with R the
    stirling_ratio. The second form is evaluated: its factors stay near 1
    where the log-gamma terms of the first, each of order rho ln rho,
    cancel. Requires x > b / 2 so the gamma arguments stay positive.
    """
    b = _check_bandwidth(b)
    x = float(x)
    if not (math.isfinite(x) and x > b / 2.0):
        raise ValueError(f"squared kernel constant requires x > b / 2, got {x!r}")
    # Past rho = 1e300 each ratio is 1.0 in floating point, and 2 rho may overflow.
    rho = min(x / b, 1e300)
    ratio = stirling_ratio(rho) ** 2 / (stirling_ratio(2.0 * rho) * (1.0 - 0.5 / rho))
    try:
        value = ratio * math.exp(-2.5 * math.log(b) - 0.5 * math.log(x)) / _SQRT_PI
    except OverflowError:
        value = math.inf
    if not (math.isfinite(value) and value > 0.0):
        raise ValueError(f"squared kernel constant at x={x!r}, b={b!r} leaves the float range")
    return value


def mse_leading(ref: ReferenceDensity, x: float, b: float, n: int) -> float:
    """Pointwise leading MSE: (b^2 / 16) curvature + leading variance."""
    return (b * b / 16.0) * float(curvature_term(ref, x)) + variance_leading(
        ref, x, b, n
    )


@dataclass(frozen=True)
class PointwiseBandwidth:
    """Optimal local bandwidth and the MSE value it achieves."""

    b_opt: float
    mse_opt: float


def pointwise_optimal(ref: ReferenceDensity, x: float, n: int) -> PointwiseBandwidth:
    """Minimize the two-term pointwise MSE in b at a fixed interior point.

    Balancing (b^2/16) P(x) against the leading variance term gives

        b_opt = (3 f(x) x^{-3/2} / (sqrt(pi) P(x)))^{2/7} n^{-2/7}

    and mse_opt = (A^2 P(x) / 16 + f(x) x^{-3/2} A^{-3/2} / (4 sqrt(pi)))
    n^{-4/7} where A is the n-free factor of b_opt.
    """
    n = _check_n(n)
    x = float(x)
    if not (math.isfinite(x) and x > 0.0):
        raise ValueError(f"pointwise_optimal requires x > 0, got {x!r}")
    d = ref.derivs(x)
    p, f = float(_curvature(d, x)), float(d.f)
    if p <= 0.0 or f <= 0.0:
        raise ValueError(
            f"degenerate curvature or density at x={x!r}: P={p!r}, f={f!r}"
        )
    x_m32 = x ** -1.5
    a = (3.0 * f * x_m32 / (_SQRT_PI * p)) ** (2.0 / 7.0)
    b_opt = a * n ** (-2.0 / 7.0)
    mse_opt = (
        a * a * p / 16.0 + f * x_m32 * a ** -1.5 / (4.0 * _SQRT_PI)
    ) * n ** (-4.0 / 7.0)
    return PointwiseBandwidth(b_opt=b_opt, mse_opt=mse_opt)


@dataclass(frozen=True)
class MiseIntegrals:
    """The three reference-density integrals the global rules consume.

    curvature:  integral of the squared curvature factor
    mass:       integral of x^{-3/2} f(x)
    correction: integral of x^{-3/2} (f(x)/x - f'(x))
    """

    curvature: float
    mass: float
    correction: float


def _integral(g) -> float:
    """Integral of g over (0, inf) at the accuracy of every global integral."""
    return numerics.integrate_semi_infinite(g, _QUAD_REL_TOL).value


def mise_integrals(ref: ReferenceDensity) -> MiseIntegrals:
    """Evaluate the global integrals; diverging ones raise IntegrationError.

    A built-in reference uses its closed forms, any other one quadrature.
    """
    if ref.params is not None:
        return MiseIntegrals(
            *_selector_integrals(ref.params, "curvature", "mass", "correction")
        )

    def correction(t):
        d = ref.derivs(t)
        return t ** -1.5 * (d.f / t - d.d1)

    return MiseIntegrals(
        curvature=_integral(lambda t: curvature_term(ref, t)),
        mass=_integral(lambda t: t ** -1.5 * ref.pdf(t)),
        correction=_integral(correction),
    )


def _rule_integrals(
    ref: ReferenceDensity, integrals: MiseIntegrals | None, what: str
) -> MiseIntegrals:
    """The caller's integrals or mise_integrals(ref), with the signs the rules assume."""
    ints = integrals if integrals is not None else mise_integrals(ref)
    if ints.curvature <= 0.0:
        raise numerics.DegenerateIntegralError(
            f"degenerate curvature integral; no {what}"
        )
    if ints.mass < 0.0:
        raise numerics.DegenerateIntegralError(
            f"negative mass integral {ints.mass!r}; no {what}"
        )
    return ints


def mise_leading(
    ref: ReferenceDensity,
    b: float,
    n: int,
    *,
    integrals: MiseIntegrals | None = None,
) -> float:
    """Leading MISE of the derivative estimate at bandwidth b.

    mise = (b^2 / 16) * curvature
           + (b^{-3/2} / (4 sqrt(pi) n)) * (mass + (b/2) * correction)

    Integrals with curvature <= 0 or mass < 0, or a negative variance part
    mass + (b/2) correction, raise DegenerateIntegralError.
    """
    b = _check_bandwidth(b)
    n = _check_n(n)
    ints = _rule_integrals(ref, integrals, "leading MISE")
    variance_part = ints.mass + 0.5 * b * ints.correction
    if variance_part < 0.0:
        raise numerics.DegenerateIntegralError(
            f"negative variance part {variance_part!r} at b={b!r}; no leading MISE"
        )
    return (b * b / 16.0) * ints.curvature + variance_part / (
        4.0 * _SQRT_PI * n * b ** 1.5
    )


def global_bandwidth_plugin(
    ref: ReferenceDensity,
    n: int,
    *,
    integrals: MiseIntegrals | None = None,
) -> float:
    """Closed-form minimizer of the two leading MISE terms.

    b0 = (3 mass / (sqrt(pi) curvature))^{2/7} n^{-2/7}

    Integrals with curvature <= 0 or mass <= 0, or a ratio that is not
    finite, raise DegenerateIntegralError.
    """
    n = _check_n(n)
    ints = _rule_integrals(ref, integrals, "plug-in bandwidth")
    ratio = 3.0 * ints.mass / (_SQRT_PI * ints.curvature)
    if ratio == 0.0:
        raise numerics.DegenerateIntegralError(
            f"mass integral {ints.mass!r} gives a zero plug-in bandwidth"
        )
    if not math.isfinite(ratio):
        raise numerics.DegenerateIntegralError(
            f"mass {ints.mass!r} over curvature {ints.curvature!r} is not finite; "
            "no plug-in bandwidth"
        )
    return ratio ** (2.0 / 7.0) * n ** (-2.0 / 7.0)


@dataclass(frozen=True)
class RefinedBandwidth:
    """Root-based refinement of the plug-in bandwidth.

    residual is the stationarity function and b_refined its root; roots
    holds that one root, since the residual changes sign at most once.
    """

    b_refined: float
    residual: Callable[[float], float]
    roots: tuple[float, ...]


def _residual_coefficients(ints: MiseIntegrals, n: int) -> tuple[float, float, float]:
    """Coefficients of b, b^{-5/2} and b^{-3/2} in the stationarity residual."""
    return (
        ints.curvature / 8.0,
        3.0 * ints.mass / (8.0 * _SQRT_PI * n),
        ints.correction / (16.0 * _SQRT_PI * n),
    )


def refined_bandwidth(
    ref: ReferenceDensity,
    n: int,
    *,
    integrals: MiseIntegrals | None = None,
) -> RefinedBandwidth:
    """Keep the next-order variance correction and solve for stationarity.

    The residual whose root is sought is

        c1 b - c2 b^{-5/2} + c3 b^{-3/2},
        c1 = curvature / 8,  c2 = 3 mass / (8 sqrt(pi) n),
        c3 = correction / (16 sqrt(pi) n).

    Times b^{5/2} it is g(b) = c1 b^{7/2} + c3 b - c2. Here c1 > 0 and
    c2 >= 0 (both checked below). So g is strictly convex with g(0) <= 0,
    and the residual changes sign at most once, from negative to positive.
    A binary search over 201 log-spaced edges of (1e-4, 1) finds the bracket
    of that sign change, and bisection the root; a root outside the window
    raises NoRootError. Integrals with curvature <= 0 or mass < 0 give no
    meaningful root and raise DegenerateIntegralError.
    """
    n = _check_n(n)
    ints = _rule_integrals(ref, integrals, "refined bandwidth")
    coef_b, coef_bm52, coef_bm32 = _residual_coefficients(ints, n)

    def residual(b: float) -> float:
        return coef_b * b - coef_bm52 * b ** -2.5 + coef_bm32 * b ** -1.5

    edges = np.logspace(
        math.log10(_ROOT_SCAN_LO), math.log10(_ROOT_SCAN_HI), _ROOT_SCAN_EDGES
    )
    first, last = residual(edges[0]), residual(edges[-1])
    if first > 0.0 or last < 0.0:
        raise numerics.NoRootError(
            "stationarity residual has no sign change on "
            f"({_ROOT_SCAN_LO:g}, {_ROOT_SCAN_HI:g}): endpoints "
            f"{first:.6e} and {last:.6e}"
        )
    # The first edge with residual >= 0; its bracket's lower edge is < 0
    # unless the residual vanishes on edges[0] itself.
    i = max(1, bisect.bisect_left(edges, True, key=lambda e: residual(e) >= 0.0))
    root = numerics.find_root(residual, float(edges[i - 1]), float(edges[i]), 1e-13)
    return RefinedBandwidth(b_refined=root, residual=residual, roots=(root,))


def chen_constants(ref: ReferenceDensity) -> tuple[float, float]:
    """Constants (V, beta) of the density-oriented reference rule.

    V = (1 / (2 sqrt(pi))) integral of x^{-1/2} f(x)
    beta = integral of (x f''(x))^2

    A built-in reference uses its closed forms, any other one quadrature.
    """
    if ref.params is not None:
        root_mass, beta = _selector_integrals(ref.params, "root_mass", "beta")
    else:
        root_mass = _integral(lambda t: np.sqrt(1.0 / t) * ref.pdf(t))
        beta = _integral(lambda t: (t * ref.d2(t)) ** 2)
    return root_mass / (2.0 * _SQRT_PI), beta


def _chen_from_constants(v: float, beta: float, n: int) -> float:
    if beta <= 0.0:
        raise numerics.DegenerateIntegralError(
            "degenerate curvature (beta = 0); no reference bandwidth"
        )
    return (v / beta) ** 0.4 * n ** -0.4


def chen_bandwidth(ref: ReferenceDensity, n: int) -> float:
    """Density-oriented reference bandwidth b = (V / beta)^{2/5} n^{-2/5}."""
    n = _check_n(n)
    return _chen_from_constants(*chen_constants(ref), n)


@dataclass(frozen=True)
class BandwidthConstants:
    """Audit constants behind a bandwidth report.

    numerator_27 and denominator_27 rebuild the plug-in bandwidth as
    (numerator_27 / denominator_27) * n_pow; the coef_* fields are the
    refinement-residual coefficients and (V, beta) the reference-rule pair.
    """

    numerator_27: float
    denominator_27: float
    n_pow: float
    coef_b: float
    coef_bm52: float
    coef_bm32: float
    V: float
    beta: float

    @classmethod
    def build(
        cls, ints: MiseIntegrals, n: int, v: float, beta: float
    ) -> "BandwidthConstants":
        coef_b, coef_bm52, coef_bm32 = _residual_coefficients(ints, n)
        return cls(
            numerator_27=(3.0 * ints.mass / _SQRT_PI) ** (2.0 / 7.0),
            denominator_27=ints.curvature ** (2.0 / 7.0),
            n_pow=n ** (-2.0 / 7.0),
            coef_b=coef_b,
            coef_bm52=coef_bm52,
            coef_bm32=coef_bm32,
            V=v,
            beta=beta,
        )


# Every global selector as fn(ref, n) -> bandwidth. The entries look the
# selector functions up when called, not when this table is built, so a
# module attribute replaced later (as bench/tracer.py does) is the one used.
SELECTORS: dict[str, Callable[[ReferenceDensity, int], float]] = {
    "plugin": lambda ref, n: global_bandwidth_plugin(ref, n),
    "refined": lambda ref, n: refined_bandwidth(ref, n).b_refined,
    "chen": lambda ref, n: chen_bandwidth(ref, n),
}


@dataclass(frozen=True)
class BandwidthReport:
    """All three global bandwidths for one (density, n) pair."""

    n: int
    b_plugin: float
    b_refined: float
    b_chen: float
    constants: BandwidthConstants


def bandwidth_report(ref: ReferenceDensity, n: int) -> BandwidthReport:
    """Compute all selectors and the constants needed to audit them.

    Each set of integrals is evaluated once, in the selectors' order
    (plug-in, refined, reference), so the first failure is the one raised.
    """
    n = _check_n(n)
    ints = mise_integrals(ref)
    b_plugin = global_bandwidth_plugin(ref, n, integrals=ints)
    b_refined = refined_bandwidth(ref, n, integrals=ints).b_refined
    v, beta = chen_constants(ref)
    return BandwidthReport(
        n=n,
        b_plugin=b_plugin,
        b_refined=b_refined,
        b_chen=_chen_from_constants(v, beta, n),
        constants=BandwidthConstants.build(ints, n, v, beta),
    )
