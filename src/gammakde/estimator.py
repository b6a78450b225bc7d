"""Sample container and the kernel estimates of a density and its slope.

Estimates are plain averages of (derivatives of) gamma kernels over the
sample. The kernel shape varies with the evaluation point, so there is no
translation-invariant convolution structure to exploit: no binning or FFT
acceleration applies, and grid evaluation is a dense sample-by-gridpoint
computation in log space.

A kernels.KernelPlan holds the per-point constants as arrays. It depends
only on (points, b), which Monte Carlo replications repeat, so plans come
from a small memo keyed on the points' bytes and b. The matrix of b K, a
function of u = t/b alone, is then filled block by block, with one exp per
(observation, grid point) pair: the density is its row sum, and the
derivative the row sum of b K ln u less digamma(rho) times the density
sum, each divided by n and by b at the end, so that scaling the sample,
the points and b by a power of 2 scales each estimate exactly. The block
holds 2^17 entries (1 MiB), so its passes run from cache, except that a
row is never split, so above 2^17 observations a block is one row.

Memory: a call allocates its results and takes one workspace, whose rows
are u, ln u and the kernel block, all filled by ufuncs in place; a sample
with no zeros is read where it is, not copied. Each thread keeps one
workspace buffer between calls. It grows to the largest request (the
smaller buffer is freed first) and is kept while it holds at most
2 * _BLOCK_ENTRIES doubles (2 MiB), which covers every blocked workspace
up to about 43,000 positive observations. A larger request, such as the
verify-lemmas shape (n = 1e5, three points: three sample-length rows),
gets a workspace of its own for the call, and the kept buffer stays as it
was. So a study on a ladder of sizes holds one buffer; with a workspace
per call, glibc kept the heap that the smaller sizes grew and mapped
fresh workspaces for the larger ones beside it.

evaluate_batch puts several samples of one size side by side: a row of K
holds every sample's observations, each sample in its own contiguous
segment, and each segment is summed on its own. The per-row cost of a
pass is then shared, and rows long enough to skip numpy's ufunc buffer
need fewer small samples. A segment's sum is the same pairwise sum as the
row of a one-sample call, so each sample's estimates keep every bit they
have from evaluate_on_grid.
"""

from __future__ import annotations

import threading
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
# Byte boundary the workspace starts on: a cache line, and an AVX-512 vector.
_ALIGN = 64
# Doubles of the workspace buffer a thread keeps between calls.
_KEEP_ENTRIES = 2 * _BLOCK_ENTRIES
# The kept buffer of each thread, as `_kept.work`.
_kept = threading.local()


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
    """Density and derivative estimates tabulated on a grid.

    A plain record of arrays that evaluate_batch has checked; the
    constructor checks nothing.
    """

    grid: np.ndarray
    density: np.ndarray
    derivative: np.ndarray
    bandwidth: float


def _aligned(size: int) -> np.ndarray:
    """An uninitialized float64 vector of size elements starting on an _ALIGN-byte boundary.

    glibc's malloc returns blocks 16, 32 or 48 bytes past a cache line's
    start, and there the core ran 6-10% slower in an interleaved sweep.
    """
    raw = np.empty(size + _ALIGN // 8)
    skip = -raw.__array_interface__["data"][0] % _ALIGN // 8
    return raw[skip : skip + size]


def _workspace(rows: int, cols: int) -> np.ndarray:
    """An uninitialized, aligned (rows, cols) float64 array, valid until the thread's next call.

    Up to _KEEP_ENTRIES doubles it is a view of the thread's kept buffer,
    which grows to the largest such request; a larger one is allocated
    for the call alone.
    """
    size = rows * cols
    if size > _KEEP_ENTRIES:
        return _aligned(size).reshape(rows, cols)
    work = getattr(_kept, "work", None)
    if work is None or work.size < size:
        _kept.work = work = None  # freed first: the two are never held at once
        _kept.work = work = _aligned(size)
    return work[:size].reshape(rows, cols)


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
    # Block over the grid to bound memory. One workspace holds the two
    # observation rows and the kernel block, which every grid block reuses.
    block = max(1, min(m, _BLOCK_ENTRIES // max(n_pos, 1)))
    work = _workspace(2 + block, n_pos)
    u, log_u = work[:2]
    buffer = work[2:]
    np.divide(vp, plan.b, out=u)
    np.log(u, out=log_u)
    for start in range(0, m, block):
        rows = slice(start, min(start + block, m))
        kern = plan.fill_kernel(rows, log_u, u, buffer[: rows.stop - start])
        # Row sums per segment, not a matrix product: each sum must not
        # depend on how many rows or samples share the block.
        segments = kern.reshape(rows.stop - start, count, k)
        dens_sum = segments.sum(axis=2)
        old = np.setbufsize(UNBUFFERED)
        try:
            kern *= log_u
        finally:
            np.setbufsize(old)
        deriv_sum = segments.sum(axis=2) - plan.psi[rows, None] * dens_sum
        if n_zero:
            # t = 0 adds to the density only through the rho = 1 kernel (the
            # x = 0 exponential, where b K = 1); its derivative limit is 0.
            dens_sum += np.where(plan.rho[rows] == 1.0, n_zero, 0.0)[:, None]
        # Divided by n, then by b, so that a tiny b overflows no intermediate.
        density[:, rows] = (dens_sum / n / plan.b).T
        derivative[:, rows] = (plan.prefactor[rows, None] * deriv_sum / n / plan.b / plan.b).T
    return density, derivative


def density_at(sample: Sample, b: float, x: float) -> float:
    """Kernel density estimate at a single point x >= 0."""
    _, dens, _ = evaluate_batch([sample], b, [x])
    return float(dens[0, 0])


def derivative_at(sample: Sample, b: float, x: float) -> float:
    """Kernel estimate of the density derivative at a single point x >= 0."""
    _, _, deriv = evaluate_batch([sample], b, [x])
    return float(deriv[0, 0])


def evaluate_on_grid(sample: Sample, b: float, grid) -> GridEvaluation:
    """Evaluate both estimates on a strictly increasing grid of points."""
    grid, density, derivative = evaluate_batch([sample], b, grid)
    return GridEvaluation(grid, density[0], derivative[0], float(b))


def evaluate_batch(samples, b: float, grid) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The grid and the (R, m) density and derivative estimates of R samples.

    Row r holds sample r's estimates, with the bits of its own
    evaluate_on_grid: samples that share their size and their count of
    exact zeros go through the core in one batch, others one by one. Every
    estimate is checked here, once for the batch: the grid, the density
    values and the derivative values; the kernel plan checks that the
    points are finite and >= 0, and b.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        raise ValueError("grid must be a non-empty 1-D array")
    if np.any(np.diff(grid) <= 0.0):
        raise ValueError("grid must be strictly increasing")
    samples = list(samples)
    if not samples:
        return grid, np.empty((0, grid.size)), np.empty((0, grid.size))
    # An estimate that overflows, or whose t/b underflows to 0 before its
    # log, is inf or nan, which the checks below report.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
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
