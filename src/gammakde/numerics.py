"""Deterministic numerical routines backing the bandwidth machinery.

The quadrature is an adaptive Gauss-Kronrod (7/15 pair) scheme over an
initial partition of (0, infinity): the unit interval is handled directly
and the tail through dyadic panels that stop once their contribution is
negligible. Kronrod nodes are interior, so the integrand is never evaluated
at 0 and endpoint singularities surface as non-convergence rather than as a
domain error. Integrands must accept numpy arrays.

Cost model: each bisection of the worst panel makes one integrand call, on
the 30 nodes of its two halves (the two unit-interval panels share one call
too, and each tail panel has its own). The running totals of the live
panels' values and error estimates are exact, so a bisection adds and
removes O(1) terms instead of re-summing every panel: P panels cost O(P),
and each total is rounded once when read, to the bits math.fsum would give.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "QuadratureResult",
    "IntegrationError",
    "DegenerateIntegralError",
    "NoRootError",
    "integrate_semi_infinite",
    "find_root",
]

# 15-point Kronrod rule with embedded 7-point Gauss rule on [-1, 1].
_KRONROD_NODES = np.array(
    [
        -0.991455371120813,
        -0.949107912342759,
        -0.864864423359769,
        -0.741531185599394,
        -0.586087235467691,
        -0.405845151377397,
        -0.207784955007898,
        0.0,
        0.207784955007898,
        0.405845151377397,
        0.586087235467691,
        0.741531185599394,
        0.864864423359769,
        0.949107912342759,
        0.991455371120813,
    ]
)
_KRONROD_WEIGHTS = np.array(
    [
        0.022935322010529,
        0.063092092629979,
        0.104790010322250,
        0.140653259715525,
        0.169004726639267,
        0.190350578064785,
        0.204432940075298,
        0.209482141084728,
        0.204432940075298,
        0.190350578064785,
        0.169004726639267,
        0.140653259715525,
        0.104790010322250,
        0.063092092629979,
        0.022935322010529,
    ]
)
# Gauss weights attach to every second Kronrod node (indices 1, 3, ..., 13).
_GAUSS_WEIGHTS = np.array(
    [
        0.129484966168870,
        0.279705391489277,
        0.381830050505119,
        0.417959183673469,
        0.381830050505119,
        0.279705391489277,
        0.129484966168870,
    ]
)

_BREAKPOINTS = (0.0, 0.5, 1.0)  # initial panels of the unit interval
_TAIL_CUTOFF = 1e-14  # panel mass below this fraction of the total ends the tail
_MAX_TAIL_DOUBLINGS = 64
_MAX_EVALS = 1_000_000  # integrand evaluations per integral
# The budget allows fewer than 2**17 panels, so sums of terms below 2**1000
# (and math.fsum's partials) stay below 2**1017, inside the float range.
_EXACT_LIMIT = 2.0**1000
_UNITS_PER_ONE = 1 << 1074  # exact running totals count multiples of 2**-1074


@dataclass(frozen=True)
class QuadratureResult:
    """Value, conservative error estimate and cost of one integral."""

    value: float
    abs_error_estimate: float
    evaluations: int


class IntegrationError(RuntimeError):
    """Quadrature failed to converge; carries the partial state."""

    def __init__(self, message: str, partial: QuadratureResult | None = None):
        super().__init__(message)
        self.partial = partial


class DegenerateIntegralError(IntegrationError, ValueError):
    """An integral that a bandwidth rule divides by came out zero or negative.

    A ValueError as well, which is what these cases raised before they had
    a type of their own.
    """


class NoRootError(RuntimeError):
    """No sign change was found on the requested bracket."""


def _panels(g: Callable[[np.ndarray], np.ndarray], bounds):
    """Gauss-Kronrod (value, error) on each panel (a, b) of bounds, in order.

    One call of g evaluates the nodes of every panel. The panels are checked
    for non-finite values in order, so the first bad one is the one named.
    """
    halves = [0.5 * (b - a) for a, b in bounds]
    nodes = np.concatenate(
        [0.5 * (a + b) + half * _KRONROD_NODES for (a, b), half in zip(bounds, halves)]
    )
    # overflow to inf is caught by the finiteness check below, not warned about
    with np.errstate(over="ignore", invalid="ignore"):
        vals = np.asarray(g(nodes), dtype=float)
    if vals.shape != nodes.shape:
        raise ValueError("integrand must map an array of points to same-shape values")
    scores = []
    for (a, b), half, v in zip(bounds, halves, vals.reshape(len(bounds), -1)):
        if not np.isfinite(v).all():
            message = f"integrand returned a non-finite value on ({a!r}, {b!r})"
            if a == 0.0 and b < _BREAKPOINTS[1]:
                # finite on the wider panel this one was bisected from
                message += "; the integral diverges at the origin"
            raise IntegrationError(message)
        kronrod = half * float(_KRONROD_WEIGHTS @ v)
        gauss = half * float(_GAUSS_WEIGHTS @ v[1::2])
        scores.append((kronrod, abs(kronrod - gauss)))
    return scores


class _RunningSum:
    """Exact running sum of floats, rounded once when read, as math.fsum does.

    Terms are held as integer multiples of 2**-1074, the smallest subnormal,
    so adding or removing one is exact and int / int rounds the total
    correctly. A term that is not finite, or not below 2**1000, is only
    counted; while one is in the sum, read() falls back to math.fsum over
    the terms, with its own handling of inf, nan and overflow.
    """

    def __init__(self):
        self.units = 0
        self.outside = 0

    def add(self, x: float, sign: int = 1) -> None:
        if abs(x) < _EXACT_LIMIT:
            num, den = x.as_integer_ratio()
            self.units += sign * (num << (1075 - den.bit_length()))
        else:
            self.outside += sign

    def read(self, terms) -> float:
        return math.fsum(terms) if self.outside else self.units / _UNITS_PER_ONE


def integrate_semi_infinite(
    g: Callable[[np.ndarray], np.ndarray],
    rel_tol: float = 1e-10,
    *,
    abs_tol: float = 0.0,
) -> QuadratureResult:
    """Integrate a vectorized g over (0, infinity).

    Parameters
    ----------
    g : callable
        Maps an ndarray of points in (0, inf) to integrand values.
    rel_tol : float
        Relative accuracy target, within (1e-13, 1e-2).
    abs_tol : float
        Optional absolute accuracy floor; needed when the integral itself is
        (near) zero and a purely relative target can never be met.

    Returns
    -------
    QuadratureResult
        The abs_error_estimate is the sum of panel |Kronrod - Gauss| gaps,
        which in practice over-covers the true error by orders of magnitude.
        Both totals are kept exactly as panels come and go and rounded once
        when read, so refining to P panels costs O(P) bookkeeping. Each
        bisection makes one call of g on the 30 nodes of both halves.

    Raises
    ------
    IntegrationError
        On non-convergence within 1e6 integrand evaluations (e.g. a
        non-integrable endpoint singularity), with the partial result attached.
        A non-finite integrand value carries no partial result; when it
        appears only as bisection narrows a panel onto 0, the message says
        that the integral diverges at the origin.
    """
    if not 1e-13 < rel_tol < 1e-2:
        raise ValueError(f"rel_tol must lie in (1e-13, 1e-2), got {rel_tol!r}")
    if abs_tol < 0.0 or not math.isfinite(abs_tol):
        raise ValueError(f"abs_tol must be finite and >= 0, got {abs_tol!r}")

    evals = 0
    # Each heap entry is (-error, a, b, value); heapq pops the worst panel.
    panels: list[tuple[float, float, float, float]] = []
    values, errors = _RunningSum(), _RunningSum()

    def push(*bounds: tuple[float, float]) -> tuple[float, float]:
        """Score the panels in one call of g; returns the last (value, err)."""
        nonlocal evals
        for (a, b), (value, err) in zip(bounds, _panels(g, bounds)):
            evals += _KRONROD_NODES.size
            heapq.heappush(panels, (-err, a, b, value))
            values.add(value)
            errors.add(err)
        return value, err

    def totals() -> tuple[float, float]:
        return values.read(p[3] for p in panels), errors.read(-p[0] for p in panels)

    push(*zip(_BREAKPOINTS[:-1], _BREAKPOINTS[1:]))

    # Extend dyadic tail panels until two in a row are negligible.
    tail_lo = _BREAKPOINTS[-1]
    quiet = 0
    doublings = 0
    while quiet < 2:
        if doublings >= _MAX_TAIL_DOUBLINGS:
            raise IntegrationError(
                "tail of the integrand does not decay; integral looks divergent",
                QuadratureResult(*totals(), evals),
            )
        tail_hi = 2.0 * tail_lo
        value, err = push((tail_lo, tail_hi))
        total = values.read(p[3] for p in panels)
        threshold = max(_TAIL_CUTOFF * abs(total), abs_tol * _TAIL_CUTOFF)
        if abs(value) <= threshold and err <= max(threshold, 1e-300):
            quiet += 1
        else:
            quiet = 0
        tail_lo = tail_hi
        doublings += 1

    value, err = totals()
    while err > max(rel_tol * abs(value), abs_tol):
        if evals + 2 * _KRONROD_NODES.size > _MAX_EVALS:
            raise IntegrationError(
                f"evaluation budget of {_MAX_EVALS} exhausted at error {err:.3e}",
                QuadratureResult(value, err, evals),
            )
        neg_err, a, b, worst = heapq.heappop(panels)
        values.add(worst, -1)
        errors.add(-neg_err, -1)
        mid = 0.5 * (a + b)
        if not (a < mid < b):
            raise IntegrationError(
                f"panel ({a!r}, {b!r}) cannot be subdivided further; "
                "integrand is too singular for the requested tolerance",
                QuadratureResult(value, err, evals),
            )
        push((a, mid), (mid, b))
        value, err = totals()

    return QuadratureResult(value, err, evals)


def find_root(
    g: Callable[[float], float], lo: float, hi: float, tol: float = 1e-12
) -> float:
    """Bisection root of a scalar function on a sign-changing bracket.

    Returns the midpoint of the final bracket, whose width is <= tol.
    """
    lo = float(lo)
    hi = float(hi)
    if not (math.isfinite(lo) and math.isfinite(hi)) or lo >= hi:
        raise ValueError(f"invalid bracket [{lo!r}, {hi!r}]")
    if tol <= 0.0:
        raise ValueError(f"tol must be > 0, got {tol!r}")
    g_lo = float(g(lo))
    g_hi = float(g(hi))
    if not (math.isfinite(g_lo) and math.isfinite(g_hi)):
        raise ValueError("function is not finite at the bracket endpoints")
    if g_lo == 0.0:
        return lo
    if g_hi == 0.0:
        return hi
    if math.copysign(1.0, g_lo) == math.copysign(1.0, g_hi):
        raise NoRootError(
            f"no sign change on [{lo!r}, {hi!r}]: g(lo)={g_lo!r}, g(hi)={g_hi!r}"
        )
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if not (lo < mid < hi):
            break  # bracket at floating-point resolution
        g_mid = float(g(mid))
        if g_mid == 0.0:
            return mid
        if math.copysign(1.0, g_mid) == math.copysign(1.0, g_lo):
            lo, g_lo = mid, g_mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
