"""Special functions used by the kernel and bandwidth machinery.

Only positive real arguments are supported; that is all the gamma-kernel
shapes ever produce. log_gamma_array and digamma_array evaluate a whole
array of shapes at once, which is how the estimator builds its per-point
kernel constants (kernels.KernelPlan); log_gamma and digamma are their
one-element forms for plain Python floats.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["log_gamma", "log_gamma_array", "digamma", "digamma_array", "stirling_ratio"]

_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)

# Lanczos approximation, g = 7, 9 coefficients. Standard double-precision
# coefficient set; relative accuracy of exp(log_gamma) is ~1e-15 on (0, inf).
_LANCZOS_G = 7.0
_LANCZOS_COEF = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)


def _check_positive(z, name: str) -> np.ndarray:
    arr = np.asarray(z, dtype=float)
    bad = ~(np.isfinite(arr) & (arr > 0.0))
    if np.any(bad):
        raise ValueError(
            f"{name} requires finite arguments > 0, got {float(arr[bad].flat[0])!r}"
        )
    return arr


def log_gamma_array(z) -> np.ndarray:
    """Natural log of the gamma function, elementwise, for an array of z > 0."""
    z = _check_positive(z, "log_gamma")
    small = z < 0.5
    # One shift, log Gamma(z) = log Gamma(z + 1) - log z, keeps the Lanczos
    # sum in its accurate range.
    w = np.where(small, z + 1.0, z) - 1.0
    acc = np.full_like(w, _LANCZOS_COEF[0])
    for i, c in enumerate(_LANCZOS_COEF[1:], start=1):
        acc += c / (w + i)
    t = w + _LANCZOS_G + 0.5
    out = _LOG_SQRT_2PI + (w + 0.5) * np.log(t) - t + np.log(acc)
    return np.where(small, out - np.log(z), out)


def log_gamma(z: float) -> float:
    """Natural log of the gamma function for z > 0."""
    return float(log_gamma_array(np.array([z], dtype=float))[0])


# Coefficients of the large-argument expansion
# digamma(z) ~ ln z - 1/(2z) - 1/(12 z^2) + 1/(120 z^4) - 1/(252 z^6),
# remainder O(z^-8). Accurate to ~1e-12 at the shift below.
_DIGAMMA_SHIFT = 16


def _digamma_asymptotic(z: np.ndarray) -> np.ndarray:
    """Large-argument digamma expansion; digamma shifts z to >= 16 first."""
    inv = 1.0 / z
    inv2 = inv * inv
    # Bernoulli-number series; truncation error ~ z^{-10}, below 1e-13 for
    # the z >= 16 arguments the public digamma shifts into.
    return (
        np.log(z)
        - 0.5 * inv
        - inv2
        * (1.0 / 12.0 - inv2 * (1.0 / 120.0 - inv2 * (1.0 / 252.0 - inv2 / 240.0)))
    )


def digamma_array(z) -> np.ndarray:
    """Digamma (logarithmic derivative of gamma), elementwise, for z > 0.

    Every argument is shifted up the same 16 steps with
    digamma(z) = digamma(z+1) - 1/z, which puts all of them where the
    asymptotic expansion applies without a per-element loop count.
    """
    z = _check_positive(z, "digamma")
    acc = np.zeros_like(z)
    for k in range(_DIGAMMA_SHIFT):
        acc -= 1.0 / (z + k)
    return acc + _digamma_asymptotic(z + _DIGAMMA_SHIFT)


def digamma(z: float) -> float:
    """Digamma (logarithmic derivative of gamma) for z > 0."""
    return float(digamma_array(np.array([z], dtype=float))[0])


# Stirling-series correction lnGamma(z+1) - [0.5 ln(2 pi) + (z+1/2) ln z - z];
# evaluated directly for large z to avoid the cancellation that computing the
# bracket in doubles would cause.
_STIRLING_SERIES_MIN = 10.0


def _log_stirling_ratio_series(z: float) -> float:
    inv = 1.0 / z
    inv2 = inv * inv
    # -(1/12z - 1/360z^3 + 1/1260z^5 - 1/1680z^7 + 1/1188z^9)
    return -inv * (
        1.0 / 12.0
        - inv2
        * (
            1.0 / 360.0
            - inv2 * (1.0 / 1260.0 - inv2 * (1.0 / 1680.0 - inv2 / 1188.0))
        )
    )


def stirling_ratio(z: float) -> float:
    """Ratio of the Stirling approximation to the exact gamma function.

    stirling_ratio(z) = sqrt(2 pi) e^{-z} z^{z + 1/2} / Gamma(z + 1).
    Increasing on [0, inf), equal to 0 at z = 0, and tends to 1 from below.
    """
    z = float(z)
    if not math.isfinite(z) or z < 0.0:
        raise ValueError(f"stirling_ratio requires a finite argument >= 0, got {z!r}")
    if z == 0.0:
        return 0.0
    if z >= _STIRLING_SERIES_MIN:
        return math.exp(_log_stirling_ratio_series(z))
    return math.exp(_LOG_SQRT_2PI - z + (z + 0.5) * math.log(z) - log_gamma(z + 1.0))
