"""Gamma kernels with a boundary-corrected shape rule.

The kernel placed at evaluation point x with bandwidth b is the gamma
density with scale b and shape

    rho = x / b              for x >= 2 b   (interior branch)
    rho = (x / (2 b))^2 + 1  for x <  2 b   (boundary branch)

so the kernel support is [0, inf) and no mass ever leaks across the origin.
At the branch switch x = 2 b both rules give rho = 2; the interior branch is
used there. Evaluations run in log space and only exponentiate at the end:
far tails underflow cleanly to exactly 0.0 instead of raising.

KernelPlan resolves the per-point constants (shape, log-normaliser,
digamma of the shape, derivative prefactor) for a whole array of points at
once and writes the kernel matrix in place; the one-point functions below
are thin wrappers over a one-point plan, so each formula is written once.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .specfun import digamma_array, log_gamma_array

__all__ = [
    "Branch",
    "KernelShape",
    "KernelPlan",
    "shape_params",
    "kernel_value",
    "log_factor",
    "kernel_x_derivative",
]


class Branch(enum.Enum):
    INTERIOR = "interior"
    BOUNDARY = "boundary"


@dataclass(frozen=True)
class KernelShape:
    """Resolved kernel parameters for one evaluation point."""

    x: float
    b: float
    rho: float
    branch: Branch


class KernelPlan:
    """Kernel constants for evaluation points xs at bandwidth b.

    Per point it holds the shape rho, the log-normaliser
    lognorm = rho ln b + ln Gamma(rho), psi = digamma(rho), whether the
    interior branch applies, and the prefactor of the x-derivative:
    1 / b on the interior branch and x / (2 b^2) on the boundary branch.
    These arrays are read-only, so that one plan can serve many callers.
    """

    def __init__(self, xs, b: float):
        xs = np.array(xs, dtype=float)
        b = float(b)
        if xs.ndim != 1:
            raise ValueError("evaluation points must form a 1-D array")
        bad = ~(np.isfinite(xs) & (xs >= 0.0))
        if np.any(bad):
            x = float(xs[bad][0])
            raise ValueError(f"evaluation point must be finite and >= 0, got {x!r}")
        if not math.isfinite(b) or b <= 0.0:
            raise ValueError(f"bandwidth must be finite and > 0, got {b!r}")
        self.xs = xs
        self.b = b
        self.interior = xs >= 2.0 * b
        half = xs / (2.0 * b)
        self.rho = np.where(self.interior, xs / b, half * half + 1.0)
        self.lognorm = self.rho * math.log(b) + log_gamma_array(self.rho)
        self.psi = digamma_array(self.rho)
        self.prefactor = np.where(self.interior, 1.0 / b, xs / (2.0 * b * b))
        for arr in (self.xs, self.interior, self.rho, self.lognorm, self.psi,
                    self.prefactor):
            arr.flags.writeable = False

    def fill_kernel(self, rows: slice, log_t, t_over_b, out: np.ndarray) -> np.ndarray:
        """Write the kernels of the points in `rows` at observations t > 0 into out.

        With log_t = ln t and t_over_b = t / b, out[i, j] becomes
        exp((rho_i - 1) ln t_j - t_j / b - lognorm_i), computed in place.
        """
        np.multiply(self.rho[rows, None] - 1.0, log_t, out=out)
        out -= t_over_b
        out -= self.lognorm[rows, None]
        return np.exp(out, out=out)


def shape_params(x: float, b: float) -> KernelShape:
    """Resolve the shape parameter and branch for evaluation point x."""
    plan = KernelPlan([x], b)
    branch = Branch.INTERIOR if plan.interior[0] else Branch.BOUNDARY
    return KernelShape(x=float(plan.xs[0]), b=plan.b, rho=float(plan.rho[0]), branch=branch)


def _as_checked_array(t, name: str) -> tuple[np.ndarray, bool]:
    arr = np.asarray(t, dtype=float)
    scalar = arr.ndim == 0
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite")
    return arr, scalar


def _kernel(plan: KernelPlan, tp: np.ndarray) -> np.ndarray:
    """Kernel of a one-point plan at observations tp > 0."""
    out = np.empty((1, tp.size))
    return plan.fill_kernel(slice(0, 1), np.log(tp), tp / plan.b, out)[0]


def _log_factor(plan: KernelPlan, tp: np.ndarray) -> np.ndarray:
    """ln(t / b) - digamma(rho) of a one-point plan at observations tp > 0."""
    return np.log(tp / plan.b) - plan.psi[0]


def kernel_value(shape: KernelShape, t) -> float | np.ndarray:
    """Gamma kernel density at observation t (scalar or ndarray), t >= 0.

    `shape` is the resolution of shape_params(x, b). The t = 0 limit is 0
    for rho > 1 and 1/b for rho = 1 (the x = 0 kernel, which is the
    exponential density).
    """
    arr, scalar = _as_checked_array(t, "t")
    if np.any(arr < 0.0):
        raise ValueError("kernel argument t must be >= 0")
    plan = KernelPlan([shape.x], shape.b)
    out = np.zeros_like(arr)
    pos = arr > 0.0
    out[pos] = _kernel(plan, arr[pos])
    if plan.rho[0] == 1.0:
        out[~pos] = 1.0 / plan.b
    if scalar:
        return float(out)
    return out


def log_factor(shape: KernelShape, t) -> float | np.ndarray:
    """Logarithmic factor ln t - ln b - digamma(rho) for t > 0.

    This is the derivative of the log-kernel with respect to the shape
    parameter; the bias and variance expansions are phrased through its
    moments under the kernel.
    """
    arr, scalar = _as_checked_array(t, "t")
    if np.any(arr <= 0.0):
        raise ValueError("log_factor requires t > 0")
    out = _log_factor(KernelPlan([shape.x], shape.b), arr)
    if scalar:
        return float(out)
    return out


def kernel_x_derivative(x: float, b: float, t) -> float | np.ndarray:
    """Derivative of the kernel with respect to the evaluation point x.

    Differentiating through the shape rule gives

        interior:  (1 / b)         * K(t) * log_factor(t)
        boundary:  (x / (2 b^2))   * K(t) * log_factor(t)

    with the branch prefactors agreeing at x = 2 b. The t = 0 limit is 0 on
    both branches.
    """
    plan = KernelPlan([x], b)
    arr, scalar = _as_checked_array(t, "t")
    if np.any(arr < 0.0):
        raise ValueError("kernel argument t must be >= 0")
    prefactor = plan.prefactor[0]
    out = np.zeros_like(arr)
    pos = arr > 0.0
    if prefactor != 0.0 and np.any(pos):
        tp = arr[pos]
        out[pos] = prefactor * _kernel(plan, tp) * _log_factor(plan, tp)
    if scalar:
        return float(out)
    return out
