"""Independent reference routines that the tests check the package against.

None of these runs in the package itself: they are the golden-section
minimizer and central difference that the asymptotic and kernel tests use
as numeric oracles; the refined selector's former 200-bracket root scan,
kept to prove that the single-root search returns the same bits; the
Maxwell distribution function, against which the sampler is tested; and
the squared-kernel constant through log-gamma terms, a second route to
asymptotics.squared_kernel_constant at moderate x / b.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from gammakde.asymptotics import MiseIntegrals
from gammakde.numerics import NoRootError, find_root
from gammakde.refdens import MaxwellParams

_INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0  # 0.618...
_SQRT_PI = math.sqrt(math.pi)
_SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)


def minimize_scalar(
    g: Callable[[float], float], lo: float, hi: float, tol: float = 1e-10
) -> float:
    """Golden-section minimizer of a unimodal scalar function on [lo, hi]."""
    lo = float(lo)
    hi = float(hi)
    if not (math.isfinite(lo) and math.isfinite(hi)) or lo >= hi:
        raise ValueError(f"invalid interval [{lo!r}, {hi!r}]")
    if tol <= 0.0:
        raise ValueError(f"tol must be > 0, got {tol!r}")
    a, b = lo, hi
    c = b - _INV_GOLDEN * (b - a)
    d = a + _INV_GOLDEN * (b - a)
    g_c = float(g(c))
    g_d = float(g(d))
    while b - a > tol:
        if g_c < g_d:
            b, d, g_d = d, c, g_c
            c = b - _INV_GOLDEN * (b - a)
            g_c = float(g(c))
        else:
            a, c, g_c = c, d, g_d
            d = a + _INV_GOLDEN * (b - a)
            g_d = float(g(d))
        if not (a < c < d < b):
            break  # interval at floating-point resolution
    return 0.5 * (a + b)


def central_difference(g: Callable[[float], float], x: float, h: float) -> float:
    """Symmetric two-point difference approximation of g'(x)."""
    h = float(h)
    if h <= 0.0 or not math.isfinite(h):
        raise ValueError(f"h must be finite and > 0, got {h!r}")
    return (float(g(x + h)) - float(g(x - h))) / (2.0 * h)


def refined_scan(ints: MiseIntegrals, n: int) -> tuple[float, tuple[float, ...]]:
    """The refined selector as a scan of every bracket: (best root, all roots).

    Evaluates the stationarity residual on 201 log-spaced edges of (1e-4, 1),
    bisects every sign change, and returns the root with the lowest leading
    MISE. Raises NoRootError, with the selector's message, when no bracket
    changes sign.
    """
    coef_b = ints.curvature / 8.0
    coef_bm52 = 3.0 * ints.mass / (8.0 * _SQRT_PI * n)
    coef_bm32 = ints.correction / (16.0 * _SQRT_PI * n)

    def residual(b: float) -> float:
        return coef_b * b - coef_bm52 * b ** -2.5 + coef_bm32 * b ** -1.5

    edges = np.logspace(math.log10(1e-4), math.log10(1.0), 201)
    values = np.array([residual(e) for e in edges])
    roots: list[float] = []
    for lo, hi, v_lo, v_hi in zip(edges[:-1], edges[1:], values[:-1], values[1:]):
        if v_lo == 0.0:
            roots.append(float(lo))
        elif v_lo * v_hi < 0.0:
            roots.append(find_root(residual, float(lo), float(hi), 1e-13))
    if values[-1] == 0.0:
        roots.append(float(edges[-1]))
    if not roots:
        raise NoRootError(
            "stationarity residual has no sign change on "
            f"({1e-4:g}, {1.0:g}): endpoints "
            f"{values[0]:.6e} and {values[-1]:.6e}"
        )
    best = min(roots, key=lambda r: _leading_mise(ints, r, n))
    return best, tuple(roots)


def _leading_mise(ints: MiseIntegrals, b: float, n: int) -> float:
    """asymptotics.mise_leading's expression without its sign checks.

    The scan ranks roots of synthetic integrals whose variance part
    mass + (b/2) correction can be negative there, which mise_leading rejects.
    """
    variance_part = ints.mass + 0.5 * b * ints.correction
    return (b * b / 16.0) * ints.curvature + variance_part / (
        4.0 * _SQRT_PI * n * b ** 1.5
    )


def maxwell_cdf(params: MaxwellParams, x) -> float | np.ndarray:
    """Maxwell distribution function, via the error function."""
    arr = np.asarray(x, dtype=float)
    if np.any(arr < 0.0) or not np.all(np.isfinite(arr)):
        raise ValueError("maxwell_cdf requires finite x >= 0")
    z = arr / params.sigma
    erf_vec = np.vectorize(math.erf, otypes=[float])
    out = erf_vec(z / math.sqrt(2.0)) - _SQRT_2_OVER_PI * z * np.exp(-z * z / 2.0)
    if arr.ndim == 0:
        return float(out)
    return out


def squared_kernel_constant_log_gamma(x: float, b: float) -> float:
    """B(x, b) through log-gamma terms; an independent route for checking.

    B(x, b) = b^-5 x^2 Gamma(2 x / b - 1) / (2^{2 x / b - 2} Gamma(x / b + 1)^2),

    evaluated in log space with math.lgamma. Its log-gamma terms are each
    of order rho ln rho, with rho = x / b, and they cancel, so the route
    loses about rho ln rho ulps: use it only at moderate rho (the tests
    stay at rho <= 125).
    """
    b = float(b)
    x = float(x)
    if not (math.isfinite(b) and b > 0.0):
        raise ValueError(f"bandwidth must be finite and > 0, got {b!r}")
    if not (math.isfinite(x) and x > b / 2.0):
        raise ValueError(f"squared kernel constant requires x > b / 2, got {x!r}")
    rho = x / b
    return math.exp(
        -5.0 * math.log(b)
        + 2.0 * math.log(x)
        + math.lgamma(2.0 * rho - 1.0)
        - (2.0 * rho - 2.0) * math.log(2.0)
        - 2.0 * math.lgamma(rho + 1.0)
    )
