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
ref.derivs, whichever of f, f' and f'' it reads. The selectors need five
integrals of the reference density (curvature, mass and correction for the
MISE rules; root_mass, of x^-1/2 f, and beta for the reference rule), all
through _integrals. For a built-in family (ref.params set) they are finite
Gamma sums that call no integrand: like powers combine exactly, as
rationals held in pairs of Python ints, so a divergence at the origin is
read off the lowest power, and only a few constants (pi, sqrt(2), Gamma at
quarter-integers, a central binomial ratio) are rounded. The exact algebra
runs once per process for each name (Maxwell, where sigma then enters as one
power) or each (m, name) (chi-square), in a bounded cache, and costs well
under a millisecond per family; a later call is a lookup and, for Maxwell,
a multiply. Any other reference is integrated by quadrature, with one
ref.derivs evaluation per integrand call. The selectors keep no integrals:
each SELECTORS entry asks again, while bandwidth_report evaluates each set
once for all three rules, so a reference without params is integrated once.
"""

from __future__ import annotations

import bisect
import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import numerics
from .refdens import ChiSquareParams, MaxwellParams, PdfDerivs, ReferenceDensity
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
_SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)
_QUAD_REL_TOL = 1e-10  # relative accuracy of every global integral
_ROOT_SCAN_EDGES = 201  # 200 log-spaced brackets over the scan interval
_ROOT_SCAN_LO = 1e-4
_ROOT_SCAN_HI = 1.0


def _check_n(n: int) -> int:
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
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

    Accepts scalars or arrays with x > 0. A value out of the float range, as
    where x^2 underflows, raises ValueError naming the first such x.
    """
    arr = np.asarray(x, dtype=float)
    if not ((arr > 0.0) & (arr < np.inf)).all():
        raise ValueError("curvature_term requires finite x > 0")
    with np.errstate(all="ignore"):  # a value out of the float range is tested below
        out = _curvature(ref.derivs(arr), arr)
    bad = ~np.isfinite(out)
    if bad.any():
        raise ValueError(f"curvature term at x={float(arr[bad][0])!r} leaves the float range")
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
    with np.errstate(all="ignore"):  # a term out of the float range is tested below
        d = ref.derivs(x)
    bias = float(d.d1) * slope_coef + b * float(d.d2) * curve_coef
    if not math.isfinite(bias):
        raise ValueError(
            f"boundary bias at b={b!r}, kappa={kappa!r} leaves the float range"
        )
    return bias


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
    """Pointwise leading MSE: (b^2 / 16) curvature + leading variance.

    Raises ValueError where either term leaves the float range.
    """
    variance = variance_leading(ref, x, b, n)
    with np.errstate(all="ignore"):  # a term out of the float range is tested below
        mse = (b * b / 16.0) * float(_curvature(ref.derivs(x), x)) + variance
    if not math.isfinite(mse):
        raise ValueError(f"leading MSE at x={x!r}, b={b!r} leaves the float range")
    return mse


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
    n^{-4/7} where A is the n-free factor of b_opt. An x whose x^2 or P(x)
    leaves the float range raises ValueError.
    """
    n = _check_n(n)
    x = float(x)
    if not (math.isfinite(x) and x > 0.0):
        raise ValueError(f"pointwise_optimal requires x > 0, got {x!r}")
    if x * x == 0.0:
        raise ValueError(f"pointwise optimum at x={x!r}: x^2 underflows to 0")
    with np.errstate(all="ignore"):  # a term out of the float range is tested below
        d = ref.derivs(x)
    p, f = float(_curvature(d, x)), float(d.f)
    if p <= 0.0 or f <= 0.0:
        raise ValueError(
            f"degenerate curvature or density at x={x!r}: P={p!r}, f={f!r}"
        )
    if not math.isfinite(p):
        raise ValueError(f"pointwise optimum at x={x!r} leaves the float range: P={p!r}")
    x_m32 = x ** -1.5
    a = (3.0 * f * x_m32 / (_SQRT_PI * p)) ** (2.0 / 7.0)
    b_opt = a * n ** (-2.0 / 7.0)
    mse_opt = (
        a * a * p / 16.0 + f * x_m32 * a ** -1.5 / (4.0 * _SQRT_PI)
    ) * n ** (-4.0 / 7.0)
    return PointwiseBandwidth(b_opt=b_opt, mse_opt=mse_opt)


# The integrands that are squares of f-terms; the rest are linear in f.
_SQUARED = ("curvature", "beta")


# The exact algebra below runs on plain ints: a rational is an unreduced
# pair (num, den) with den > 0, and a power p of x is the int key 2p, since
# every power of both families is a multiple of 1/2. Each value is rounded
# once, by int / int true division, which is correctly rounded.


def _mul(x: tuple, y: tuple) -> tuple:
    return x[0] * y[0], x[1] * y[1]


def _add(x: tuple, y: tuple) -> tuple:
    return x[0] * y[1] + y[0] * x[1], x[1] * y[1]


def _times(*factors: dict) -> dict:
    """Product of sums of powers, each a dict power -> coefficient, exactly."""
    out = {0: (1, 1)}
    for factor in factors:
        product: dict = {}
        for p, c in out.items():
            for q, d in factor.items():
                product[p + q] = _add(product.get(p + q, (0, 1)), _mul(c, d))
        out = product
    return out


def _rising(x: tuple, k: int) -> tuple:
    """Pochhammer symbol (x)_k = Gamma(x + k) / Gamma(x), for any integer k."""
    num, den = x
    out = (1, 1)
    for i in range(k):
        out = _mul(out, (num + i * den, den))
    for i in range(1, 1 - k):  # x - i >= x + k > 0 for a convergent term
        out = _mul(out, (den, num - i * den))
    return out


def _gamma_sum(name: str, terms: dict, d: int, q: tuple, anchor: tuple) -> tuple:
    """Exact S with integral of sum(c t^p e^{-q t^d}) = S Gamma(A) q^-A / d.

    Each term integrates to c Gamma(s) q^-s / d with s = (p + 1) / d, and
    Gamma(s) q^-s = Gamma(A) q^-A (A)_k q^-k where A is the anchor and
    k = s - A an integer. Keys are 2p and coefficients, q, A and S int
    pairs. The lowest power with a nonzero coefficient sets the behaviour
    at 0: at p <= -1 the integral diverges, which raises IntegrationError.
    """
    live = {p: c for p, c in terms.items() if c[0]}
    low = min(live)
    if low <= -2:
        power = low // 2 if low % 2 == 0 else f"{low}/2"
        raise numerics.IntegrationError(
            f"the {name} integral diverges at the origin like x^{power}"
        )
    total = (0, 1)
    for p, c in live.items():
        k = ((p + 2) * anchor[1] - 2 * d * anchor[0]) // (2 * d * anchor[1])
        num, den = q if k < 0 else q[::-1]  # q^-k
        term = _mul(c, _rising(anchor, k))
        total = _add(total, _mul(term, (num ** abs(k), den ** abs(k))))
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
        raise numerics.IntegrationError(
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
    # f'' / (sqrt(2/pi) sigma^-3 e^{-u^2/2}), keyed by 2p
    d2 = {8: (1, 1), 4: (-5, 1), 0: (2, 1)}
    power, terms = {
        "curvature": lambda: (-5, _times(*2 * [{**d2, 0: (7, 3)}])),
        "mass": lambda: (-1.5, {1: (1, 1)}),
        "correction": lambda: (-2.5, {3: (1, 1), -1: (-1, 1)}),
        "root_mass": lambda: (-0.5, {3: (1, 1)}),
        "beta": lambda: (-3, _times({4: (1, 1)}, d2, d2)),
    }[name]()
    anchor = ((min(terms) + 2) % 4, 4)  # (p + 1) / 2 mod 1, with key 2p
    if name in _SQUARED:
        num, den = _gamma_sum(name, terms, 2, (1, 1), anchor)
        front = 1.0 / math.pi  # (2/pi) / 2
    else:
        num, den = _gamma_sum(name, terms, 2, (1, 2), anchor)
        front = _SQRT_2_OVER_PI * 2.0 ** (anchor[0] / 4) / 2.0
    return power, num / den * _MAXWELL_GAMMA[anchor[0] / 4] * front


_HALF_STEP_EXACT_MAX_M = 1000


def _half_step_ratio(m: int):
    """Gamma(z + 1/2) / Gamma(z) at z = m/2, as (R, j) with value R pi^{j/2}.

    Up to m = 1000, R is the exact (num, den) int pair of the central
    binomial coefficient:

        H(n) = sqrt(pi) n C(2n, n) / 4^n,   H(n + 1/2) = 4^n / (sqrt(pi) C(2n, n)).

    Above, R is a float of the large-z series sqrt(z) (1 - 1/(8z)
    + 1/(128z^2) + 5/(1024z^3) - 21/(32768z^4) - 399/(262144z^5)), whose
    truncation error there is below 2e-20, and j = 0: the binomial's cost
    grows like m^1.6, to 10 s at m = 1e6.
    """
    n = m // 2
    if m <= _HALF_STEP_EXACT_MAX_M:
        c = math.comb(2 * n, n)
        return ((n * c, 4**n), 1) if m % 2 == 0 else ((4**n, c), -1)
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
    e, aa = m - 2, (m - 2) * (m - 4)  # keys 2p: x^a is x^e; aa = 4 (a^2 - a)
    terms = {
        "curvature": lambda: _times(
            {2 * e: (1, 1)}, *2 * [{-4: (3 * aa + 4, 12), -2: (-e, 2), 0: (1, 4)}]
        ),
        "mass": lambda: {e - 3: (1, 1)},
        "correction": lambda: {e - 5: (2 - e, 2), e - 3: (1, 2)},
        "root_mass": lambda: {e - 1: (1, 1)},
        "beta": lambda: _times(
            {2 * e: (1, 1)}, *2 * [{-2: (aa, 4), 0: (-e, 2), 2: (1, 4)}]
        ),
    }[name]()
    ratio, pi_power = _half_step_ratio(m)
    if name in _SQUARED:
        total = _gamma_sum(name, terms, 1, (1, 1), (m, 1))
        front = 0.5  # and pi^-1/2
        pi_power -= 1
    else:
        total = _gamma_sum(name, terms, 1, (1, 2), (m + 1, 2))
        front = math.sqrt(2.0)
    if isinstance(ratio, tuple):  # exact up to _HALF_STEP_EXACT_MAX_M
        total, ratio = _mul(total, ratio), 1.0
    return total[0] / total[1] * ratio * math.pi ** (pi_power / 2) * front


# Each selector integrand from one ref.derivs(t) at the quadrature nodes t.
_INTEGRANDS: dict[str, Callable[[PdfDerivs, np.ndarray], np.ndarray]] = {
    "curvature": _curvature,
    "mass": lambda d, t: t ** -1.5 * d.f,
    "correction": lambda d, t: t ** -1.5 * (d.f / t - d.d1),
    "root_mass": lambda d, t: np.sqrt(1.0 / t) * d.f,
    "beta": lambda d, t: (t * d.d2) ** 2,
}


def _integrals(ref: ReferenceDensity, *names: str) -> tuple[float, ...]:
    """The named selector integrals, in order, so the first divergent one raises.

    Names are the keys of _INTEGRANDS: a built-in family's closed forms,
    or quadrature of the integrand for a reference without params.
    """
    params = ref.params
    if isinstance(params, MaxwellParams):
        return tuple(_maxwell_integral(params.sigma, name) for name in names)
    if isinstance(params, ChiSquareParams):
        return tuple(_chi_square_integral(params.m, name) for name in names)
    return tuple(
        numerics.integrate_semi_infinite(
            lambda t, g=_INTEGRANDS[name]: g(ref.derivs(t), t), _QUAD_REL_TOL
        ).value
        for name in names
    )


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


def mise_integrals(ref: ReferenceDensity) -> MiseIntegrals:
    """Evaluate the global integrals; diverging ones raise IntegrationError."""
    return MiseIntegrals(*_integrals(ref, "curvature", "mass", "correction"))


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
    mass + (b/2) correction, raise DegenerateIntegralError. A b at which
    b^{3/2} or the value leaves the float range raises ValueError.
    """
    b = _check_bandwidth(b)
    n = _check_n(n)
    ints = _rule_integrals(ref, integrals, "leading MISE")
    variance_part = ints.mass + 0.5 * b * ints.correction
    if variance_part < 0.0:
        raise numerics.DegenerateIntegralError(
            f"negative variance part {variance_part!r} at b={b!r}; no leading MISE"
        )
    try:
        mise = (b * b / 16.0) * ints.curvature + variance_part / (
            4.0 * _SQRT_PI * n * b ** 1.5
        )
    except (OverflowError, ZeroDivisionError):  # b^(3/2) overflows or underflows
        mise = math.nan
    if not math.isfinite(mise):
        raise ValueError(f"leading MISE at b={b!r} leaves the float range")
    return mise


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
    """
    root_mass, beta = _integrals(ref, "root_mass", "beta")
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
