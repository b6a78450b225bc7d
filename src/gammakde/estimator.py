"""Sample container and the kernel estimates of a density and its slope.

Estimates are plain averages of (derivatives of) gamma kernels over the
sample. The kernel shape varies with the evaluation point, so there is no
translation-invariant convolution structure to exploit: no binning or FFT
acceleration applies, and grid evaluation is a dense sample-by-gridpoint
computation in log space.

A kernels.KernelPlan holds the per-point constants as arrays. It depends
only on (points, b), which Monte Carlo replications repeat, so plans come
from a small memo keyed on the points' bytes and b. The kernel matrix K is
then filled block by block, with one exp per (observation, grid point)
pair: the density is the row sum of K, and the derivative the row sum of
K ln(t/b) less digamma(rho) times the density sum. The block holds 2^17
entries (1 MiB), so its passes run from cache, except that a row is never
split, so above 2^17 observations a block is one row.

Memory: a call allocates its results and one workspace, whose rows are
ln t, t/b, ln(t/b) and the kernel block, all filled by ufuncs in place; a
sample with no zeros is read where it is, not copied. At the verify-lemmas
shape (n = 1e5, three points) that is four sample-length rows. One large
block also keeps glibc from returning the heap to the system between
calls: it trims the heap only when more than twice the largest block it
has freed lies free at the top, and a replication's live set (its sample
and this workspace) stays below that. With ten separate temporaries,
every n = 1e5 replication faulted about 1,300 pages in again.

evaluate_batch puts several samples of one size side by side: a row of K
holds every sample's observations, each sample in its own contiguous
segment, and each segment is summed on its own. The per-row cost of a
pass is then shared, and rows long enough to skip numpy's ufunc buffer
need fewer small samples. A segment's sum is the same pairwise sum as the
row of a one-sample call, so each sample's estimates keep every bit they
have from evaluate_on_grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .kernels import UNBUFFERED, KernelPlan

__all__ = [
    "Sample",
    "GridEvaluation",
    "density_at",
    "derivative_at",
    "evaluate_on_grid",
    "evaluate_batch",
]

# Kernel entries per block: 1 MiB of doubles, small enough for the block's
# passes to run from a 2 MiB L2 and large enough that the per-block Python
# overhead stays small next to the exp.
_BLOCK_ENTRIES = 2**17
# Distinct (points, b) plans kept; a study evaluates one grid at a few b.
_PLAN_MEMO_SIZE = 8


@dataclass(frozen=True)
class Sample:
    """An observed sample of nonnegative reals.

    Order is irrelevant to every estimate; it is kept only because it makes
    runs reproducible.
    """

    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 1 or values.size == 0:
            raise ValueError("sample must be a non-empty 1-D collection")
        if not np.all(np.isfinite(values)):
            raise ValueError("sample values must be finite")
        if np.any(values < 0.0):
            raise ValueError("sample values must be >= 0")
        object.__setattr__(self, "values", values)

    @property
    def n(self) -> int:
        return int(self.values.size)


@dataclass(frozen=True)
class GridEvaluation:
    """Density and derivative estimates tabulated on a grid."""

    grid: np.ndarray
    density: np.ndarray
    derivative: np.ndarray
    bandwidth: float

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=float)
        density = np.asarray(self.density, dtype=float)
        derivative = np.asarray(self.derivative, dtype=float)
        if grid.ndim != 1 or grid.size == 0:
            raise ValueError("grid must be a non-empty 1-D array")
        if density.shape != grid.shape or derivative.shape != grid.shape:
            raise ValueError("density/derivative must match the grid length")
        if not np.all(np.isfinite(grid)) or np.any(grid < 0.0):
            raise ValueError("grid points must be finite and >= 0")
        if np.any(np.diff(grid) <= 0.0):
            raise ValueError("grid must be strictly increasing")
        if not np.all(np.isfinite(density)) or np.any(density < 0.0):
            raise ValueError("density values must be finite and >= 0")
        if not np.all(np.isfinite(derivative)):
            raise ValueError("derivative values must be finite")
        if not (math.isfinite(self.bandwidth) and self.bandwidth > 0.0):
            raise ValueError(f"bandwidth must be > 0, got {self.bandwidth!r}")
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "density", density)
        object.__setattr__(self, "derivative", derivative)

    @classmethod
    def _from_checked(cls, grid, density, derivative, bandwidth: float) -> GridEvaluation:
        """An evaluation of float arrays that have passed these checks, not checked again."""
        self = object.__new__(cls)
        self.__dict__.update(grid=grid, density=density, derivative=derivative,
                             bandwidth=bandwidth)
        return self


@lru_cache(maxsize=_PLAN_MEMO_SIZE)
def _plan(xs_bytes: bytes, shape: tuple, b: float) -> KernelPlan:
    """The kernel plan of the float64 points packed in xs_bytes, memoized.

    Every caller shares the returned plan; its arrays are read-only.
    """
    return KernelPlan(np.frombuffer(xs_bytes).reshape(shape), b)


def _core(samples: list, xs: np.ndarray, b: float) -> tuple[np.ndarray, np.ndarray]:
    """Density and derivative estimates of each sample at points xs, as (R, m) arrays.

    Every sample must have the same size n and the same number k of
    positive values. Their positive values are laid side by side, so a row
    of the block holds R segments of k entries, one per sample.
    """
    plan = _plan(xs.tobytes(), xs.shape, float(b))
    count = len(samples)
    n = samples[0].n
    values = samples[0].values if count == 1 else np.concatenate([s.values for s in samples])
    n_pos = np.count_nonzero(values)
    vp = values if n_pos == values.size else values[values > 0.0]
    k = n_pos // count
    n_zero = n - k

    m = plan.xs.size
    density = np.empty((count, m))
    derivative = np.empty((count, m))
    # Block over the grid to bound memory. One workspace holds the three
    # observation rows and the kernel block, which every grid block reuses.
    block = max(1, min(m, _BLOCK_ENTRIES // max(n_pos, 1)))
    work = np.empty((3 + block, n_pos))
    log_t, t_over_b, log_t_over_b = work[:3]
    buffer = work[3:]
    np.log(vp, out=log_t)
    np.divide(vp, plan.b, out=t_over_b)
    np.log(t_over_b, out=log_t_over_b)
    for start in range(0, m, block):
        rows = slice(start, min(start + block, m))
        kern = plan.fill_kernel(rows, log_t, t_over_b, buffer[: rows.stop - start])
        # Row sums per segment, not a matrix product: each sum must not
        # depend on how many rows or samples share the block.
        segments = kern.reshape(rows.stop - start, count, k)
        dens_sum = segments.sum(axis=2)
        old = np.setbufsize(UNBUFFERED)
        try:
            kern *= log_t_over_b
        finally:
            np.setbufsize(old)
        deriv_sum = segments.sum(axis=2) - plan.psi[rows, None] * dens_sum
        if n_zero:
            # t = 0 contributes to the density only through the rho = 1
            # kernel (the x = 0 exponential); its derivative limit is 0.
            dens_sum += np.where(plan.rho[rows] == 1.0, n_zero / plan.b, 0.0)[:, None]
        density[:, rows] = (dens_sum / n).T
        derivative[:, rows] = (plan.prefactor[rows, None] * deriv_sum / n).T
    return density, derivative


def density_at(sample: Sample, b: float, x: float) -> float:
    """Kernel density estimate at a single point x >= 0."""
    dens, _ = _core([sample], np.array([x], dtype=float), b)
    return float(dens[0, 0])


def derivative_at(sample: Sample, b: float, x: float) -> float:
    """Kernel estimate of the density derivative at a single point x >= 0."""
    _, deriv = _core([sample], np.array([x], dtype=float), b)
    return float(deriv[0, 0])


def evaluate_on_grid(sample: Sample, b: float, grid) -> GridEvaluation:
    """Evaluate both estimates on a strictly increasing grid of points."""
    return evaluate_batch([sample], b, grid)[0]


def evaluate_batch(samples, b: float, grid) -> list[GridEvaluation]:
    """evaluate_on_grid of each sample in turn, computed together.

    Samples that share their size and their count of exact zeros go
    through the core in one batch; otherwise each goes through it alone.
    Either way every result equals the sample's own evaluate_on_grid bit
    for bit.
    """
    grid, density, derivative = _estimate_batch(samples, b, grid)
    # _estimate_batch and the kernel plan ran every check of GridEvaluation.
    return [
        GridEvaluation._from_checked(grid, dens, deriv, float(b))
        for dens, deriv in zip(density, derivative)
    ]


def _estimate_batch(samples, b: float, grid) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The grid and the checked (R, m) density and derivative estimates of samples.

    Row r holds sample r's estimates, with the bits of its own
    evaluate_on_grid. The checks of GridEvaluation run once for the batch,
    with its messages; the kernel plan checks that the points are finite
    and >= 0, and b.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        raise ValueError("grid must be a non-empty 1-D array")
    if np.any(np.diff(grid) <= 0.0):
        raise ValueError("grid must be strictly increasing")
    samples = list(samples)
    if not samples:
        return grid, np.empty((0, grid.size)), np.empty((0, grid.size))
    # An estimate that overflows is inf or nan, which the checks below report.
    with np.errstate(over="ignore", invalid="ignore"):
        # A lone sample needs no count (a float count costs about 1 ns per value).
        if len(samples) > 1 and len({(s.n, np.count_nonzero(s.values)) for s in samples}) > 1:
            density, derivative = map(np.vstack, zip(*(_core([s], grid, b) for s in samples)))
        else:
            density, derivative = _core(samples, grid, b)
    # Array methods, not np.all/np.any: their Python wrappers cost more than a
    # run's checks.
    if not (np.isfinite(density).all() and (density >= 0.0).all()):
        raise ValueError("density values must be finite and >= 0")
    if not np.isfinite(derivative).all():
        raise ValueError("derivative values must be finite")
    return grid, density, derivative
