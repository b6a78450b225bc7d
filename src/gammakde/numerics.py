"""Deterministic numerical routines backing the bandwidth machinery.

The quadrature is an adaptive Gauss-Kronrod (7/15 pair) scheme over an
initial partition of (0, infinity): the unit interval is handled directly
and the tail through dyadic panels that stop once their contribution is
negligible. Kronrod nodes are interior, so the integrand is never evaluated
at 0 and endpoint singularities surface as non-convergence rather than as a
domain error. Integrands must accept numpy arrays.

Cost model: each bisection of the worst panel makes one integrand call, on
the 30 nodes of its two halves (the two unit-interval panels share one call
too, and each tail panel has its own), then one finiteness check over all
values and two dot products per panel. The running totals of the live
panels' values and error estimates are exact, so a bisection adds and
removes O(1) terms: P panels cost O(P), and a total is rounded once per read.

Divergence at the origin costs a few bisections, not a run to overflow: if
g ~ x^p near 0, each halving of the panel (0, h) scales its Kronrod value by
2^-(p+1), which is at least 1 exactly when the integral diverges. Eight
halvings in a row that grow it by a steady ratio of at least 1 - 1e-4 end the
quadrature: x^p e^-x for p = -1, -1.5 and -3 stops after 22, 20 and 16
integrand calls, and c/x + d, whose ratio tends to 1 from below, stops too.
A ratio that is not steady, as while bisection is still above the scale of a
sharp peak, never counts. An integrable x^p with p just above -1 still halves
until it overflows near 0, in about 1,000 calls.
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
# An origin panel that grows by a steady ratio as it halves proves divergence.
# Just below 1: a ratio that tends to 1 from below, as for c/x + d, still
# counts. r >= 1 - 1e-4 means p + 1 <= 1.44e-4, and then at least 90% of the
# integral of x^p over (0, 1) lies below the smallest positive double.
_GROWTH_FLOOR = 1.0 - 1e-4  # least growth of the panel's value per halving
_STEADY_TOL = 1e-3  # relative change allowed between consecutive ratios
_STEADY_HALVINGS = 8  # steady growing halvings in a row
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

    One call of g evaluates the nodes of every panel. A non-finite value, or
    a panel sum past the float range, raises naming the first such panel;
    overflow is reported that way, not warned about.
    """
    centers = np.array([0.5 * (a + b) for a, b in bounds])
    halves = [0.5 * (b - a) for a, b in bounds]
    nodes = (centers[:, None] + np.array(halves)[:, None] * _KRONROD_NODES).ravel()
    with np.errstate(over="ignore", invalid="ignore"):
        vals = np.asarray(g(nodes), dtype=float)
        if vals.shape != nodes.shape:
            raise ValueError(
                "integrand must map an array of points to same-shape values"
            )
        vals = vals.reshape(len(bounds), -1)
        finite = np.isfinite(vals)
        if not finite.all():
            a, b = bounds[int(finite.all(axis=1).argmin())]
            message = f"integrand returned a non-finite value on ({a!r}, {b!r})"
            if a == 0.0 and b < _BREAKPOINTS[1]:
                # finite on the wider panel this one was bisected from
                message += "; the integrand overflows near the origin"
            raise IntegrationError(message)
        scores = []
        for (a, b), half, v in zip(bounds, halves, vals):
            kronrod = half * float(_KRONROD_WEIGHTS @ v)
            err = abs(kronrod - half * float(_GAUSS_WEIGHTS @ v[1::2]))
            if not math.isfinite(err):
                raise IntegrationError(f"quadrature sum overflows on ({a!r}, {b!r})")
            scores.append((kronrod, err))
    return scores


class _RunningSum:
    """Exact running sum of finite floats, rounded once when read.

    Terms are held as integer multiples of 2**-1074, the smallest subnormal,
    so adding or removing one is exact and int / int rounds the total
    correctly, to the bits math.fsum would give. A total beyond the float
    range raises IntegrationError.
    """

    def __init__(self):
        self.units = 0

    def add(self, x: float, sign: int = 1) -> None:
        num, den = x.as_integer_ratio()
        self.units += sign * (num << (1075 - den.bit_length()))

    def read(self) -> float:
        try:
            return self.units / _UNITS_PER_ONE
        except OverflowError:
            raise IntegrationError("the sum over the panels overflows") from None


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

    Raises
    ------
    IntegrationError
        On non-convergence within 1e6 integrand evaluations (e.g. a
        non-integrable endpoint singularity), with the partial result attached.
        Divergence at the origin raises with no partial result and a message
        that ends "the integral diverges at the origin", naming the panel
        (0, h) that kept growing by a steady ratio as it halved. A
        non-finite integrand value carries no partial result either; when
        it appears only as bisection narrows a panel onto 0, with no such
        growth seen, the message ends "the integrand overflows near the
        origin": the integral may well be finite, as for x^-0.99. A panel
        sum or a total that overflows the float range raises with no
        partial result too.
    """
    if not 1e-13 < rel_tol < 1e-2:
        raise ValueError(f"rel_tol must lie in (1e-13, 1e-2), got {rel_tol!r}")
    if abs_tol < 0.0 or not math.isfinite(abs_tol):
        raise ValueError(f"abs_tol must be finite and >= 0, got {abs_tol!r}")

    evals = 0
    # Each heap entry is (-error, a, b, value); heapq pops the worst panel.
    panels: list[tuple[float, float, float, float]] = []
    values, errors = _RunningSum(), _RunningSum()

    def push(*bounds: tuple[float, float]) -> list[tuple[float, float]]:
        """Score the panels in one call of g; returns each (value, err)."""
        nonlocal evals
        scores = _panels(g, bounds)
        for (a, b), (value, err) in zip(bounds, scores):
            evals += _KRONROD_NODES.size
            heapq.heappush(panels, (-err, a, b, value))
            values.add(value)
            errors.add(err)
        return scores

    push(*zip(_BREAKPOINTS[:-1], _BREAKPOINTS[1:]))

    # Extend dyadic tail panels until two in a row are negligible.
    tail_lo = _BREAKPOINTS[-1]
    quiet = 0
    doublings = 0
    while quiet < 2:
        if doublings >= _MAX_TAIL_DOUBLINGS:
            raise IntegrationError(
                "tail of the integrand does not decay; integral looks divergent",
                QuadratureResult(values.read(), errors.read(), evals),
            )
        tail_hi = 2.0 * tail_lo
        [(value, err)] = push((tail_lo, tail_hi))
        total = values.read()
        threshold = max(_TAIL_CUTOFF * abs(total), abs_tol * _TAIL_CUTOFF)
        if abs(value) <= threshold and err <= max(threshold, 1e-300):
            quiet += 1
        else:
            quiet = 0
        tail_lo = tail_hi
        doublings += 1

    value, err = values.read(), errors.read()
    ratio = math.nan  # growth of the origin panel at its last halving
    steady = 0
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
        [(left, _), _] = push((a, mid), (mid, b))
        if a == 0.0:
            last, ratio = ratio, (abs(left) / abs(worst) if worst else math.nan)
            if ratio >= _GROWTH_FLOOR and abs(ratio - last) <= _STEADY_TOL * last:
                steady += 1
            else:
                steady = 0
            if steady == _STEADY_HALVINGS:
                raise IntegrationError(
                    f"the panel on (0.0, {mid!r}) grows as it halves; "
                    "the integral diverges at the origin"
                )
        value, err = values.read(), errors.read()

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
