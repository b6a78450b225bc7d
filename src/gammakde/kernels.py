"""Gamma kernels with a boundary-corrected shape rule.

The kernel placed at evaluation point x with bandwidth b is the gamma
density with scale b and shape

    rho = x / b              for x >= 2 b   (interior branch)
    rho = (x / (2 b))^2 + 1  for x <  2 b   (boundary branch)

so the kernel support is [0, inf) and no mass ever leaks across the origin.
At the branch switch x = 2 b both rules give rho = 2; the interior branch is
used there. Evaluations run in log space and only exponentiate at the end:
far tails underflow cleanly to exactly 0.0 instead of raising.

In u = t / b the kernel is u^(rho - 1) e^(-u) / (b Gamma(rho)), so b K is
a function of u alone. KernelPlan resolves the per-point constants (shape,
ln Gamma and digamma of the shape, derivative prefactor) for a whole array
of points at once and writes b K in place, so each formula is written
once. kernel_value(x, b, t) and kernel_x_derivative(x, b, t) evaluate the
kernel of one point and its x-derivative through a one-point plan; they
are the per-observation oracles the estimator is checked against.
"""

from __future__ import annotations

import math

import numpy as np

from .specfun import digamma_array, log_gamma_array

__all__ = ["KernelPlan", "kernel_value", "kernel_x_derivative"]

# numpy's smallest ufunc buffer, in elements. A broadcast pass over rows
# shorter than the buffer (8192 by default) is copied through it, which
# costs several times the arithmetic; at this size each pass runs straight
# over its operands. Row sums keep the default, which suits them better.
UNBUFFERED = 16


class KernelPlan:
    """Kernel constants for evaluation points xs at bandwidth b.

    Per point it holds the shape rho, lognorm = ln Gamma(rho),
    psi = digamma(rho), whether the interior branch applies, and the
    x-derivative's unitless prefactor b d rho / dx: 1 on the interior
    branch and x / (2 b) on the boundary branch. These arrays are
    read-only, so that one plan can serve many callers.
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
        # Each branch is computed only on its own points: at a tiny b the
        # other branch's formula would overflow or divide by zero there.
        boundary = ~self.interior
        self.rho = np.empty_like(xs)
        self.prefactor = np.empty_like(xs)
        self.rho[self.interior] = xs[self.interior] / b
        self.prefactor[self.interior] = 1.0
        half = xs[boundary] / (2.0 * b)
        self.rho[boundary] = half * half + 1.0
        self.prefactor[boundary] = half
        self.lognorm = log_gamma_array(self.rho)
        self.psi = digamma_array(self.rho)
        for arr in (self.xs, self.interior, self.rho, self.lognorm, self.psi,
                    self.prefactor):
            arr.flags.writeable = False

    def fill_kernel(self, rows: slice, log_u, u, out: np.ndarray) -> np.ndarray:
        """Write b times the kernels of the points in `rows` at observations t > 0 into out.

        With u = t / b and log_u = ln u, out[i, j] becomes
        b K = exp((rho_i - 1) ln u_j - u_j - lognorm_i), computed in place.
        The three broadcast passes run unbuffered (see UNBUFFERED).
        """
        old = np.setbufsize(UNBUFFERED)
        try:
            np.multiply(self.rho[rows, None] - 1.0, log_u, out=out)
            out -= u
            out -= self.lognorm[rows, None]
        finally:
            np.setbufsize(old)
        return np.exp(out, out=out)


def _one_point(x: float, b: float, t) -> tuple[KernelPlan, np.ndarray, np.ndarray]:
    """The plan of point x at bandwidth b, t as a checked array, and the mask t > 0."""
    plan = KernelPlan([x], b)
    arr = np.asarray(t, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError("t must be finite")
    if np.any(arr < 0.0):
        raise ValueError("kernel argument t must be >= 0")
    return plan, arr, arr > 0.0


def _kernel(plan: KernelPlan, u: np.ndarray) -> np.ndarray:
    """Kernel of a one-point plan at observations t > 0, given as u = t / b."""
    out = np.empty((1, u.size))
    return plan.fill_kernel(slice(0, 1), np.log(u), u, out)[0] / plan.b


def kernel_value(x: float, b: float, t) -> float | np.ndarray:
    """Gamma kernel of evaluation point x and bandwidth b at t >= 0 (scalar or ndarray).

    The t = 0 limit is 0 for rho > 1 and 1/b for rho = 1 (the x = 0
    kernel, which is the exponential density).
    """
    plan, arr, pos = _one_point(x, b, t)
    out = np.zeros_like(arr)
    out[pos] = _kernel(plan, arr[pos] / plan.b)
    if plan.rho[0] == 1.0:
        out[~pos] = 1.0 / plan.b
    return float(out) if arr.ndim == 0 else out


def kernel_x_derivative(x: float, b: float, t) -> float | np.ndarray:
    """Derivative of the kernel with respect to the evaluation point x.

    Differentiating through the shape rule gives

        interior:  (1 / b)         * K(t) * L(t)
        boundary:  (x / (2 b^2))   * K(t) * L(t)

    with the log factor L(t) = ln(t / b) - digamma(rho), the derivative of
    the log-kernel in the shape, and the branch prefactors agreeing at
    x = 2 b (the plan holds b times each). The t = 0 limit is 0 on both
    branches.
    """
    plan, arr, pos = _one_point(x, b, t)
    prefactor = plan.prefactor[0]
    out = np.zeros_like(arr)
    if prefactor != 0.0:
        u = arr[pos] / plan.b
        out[pos] = prefactor * _kernel(plan, u) * (np.log(u) - plan.psi[0]) / plan.b
    return float(out) if arr.ndim == 0 else out
