"""Sample container, pointwise and grid estimates, the kernel plan memo."""

import math
import tracemalloc

import numpy as np
import pytest

from gammakde import estimator
from gammakde.estimator import (
    GridEvaluation,
    Sample,
    density_at,
    derivative_at,
    evaluate_batch,
    evaluate_on_grid,
)
from gammakde.harness import GridSpec
from gammakde.kernels import KernelPlan, kernel_x_derivative
from gammakde.numerics import integrate_semi_infinite
from gammakde.refdens import sample as draw_sample
from gammakde.refdens import MaxwellParams, derived_seed
from gammakde.specfun import digamma, log_gamma

from conftest import rel_err


def reference_core(values, xs, b):
    """The per-point estimator loop, kept as an independent oracle.

    Each grid point gets its kernel constants from the shape rule written
    out here and the scalar log_gamma and digamma; the sums come from
    explicit kernel and log-factor matrices, one grid block at a time.
    """
    n = values.size
    vp = values[values > 0.0]
    n_zero = n - vp.size
    log_t = np.log(vp)
    t_over_b = vp / b
    log_b = math.log(b)
    density = np.empty_like(xs)
    derivative = np.empty_like(xs)
    block = max(1, int(2_000_000 // max(vp.size, 1)))
    for start in range(0, xs.size, block):
        stop = min(start + block, xs.size)
        m = stop - start
        rho, pref, norm, psi = (np.empty(m) for _ in range(4))
        for j in range(m):
            x = xs[start + j]
            half = x / (2.0 * b)
            interior = x >= 2.0 * b
            rho[j] = x / b if interior else half * half + 1.0
            norm[j] = rho[j] * log_b + log_gamma(rho[j])
            psi[j] = digamma(rho[j])
            pref[j] = 1.0 / b if interior else x / (2.0 * b * b)
        log_k = (rho[:, None] - 1.0) * log_t[None, :] - t_over_b[None, :]
        log_k -= norm[:, None]
        kern = np.exp(log_k)
        log_fac = log_t[None, :] - (log_b + psi[:, None])
        dens_sum = kern.sum(axis=1)
        deriv_sum = (kern * log_fac).sum(axis=1)
        if n_zero:
            dens_sum = dens_sum + np.where(rho == 1.0, n_zero / b, 0.0)
        density[start:stop] = dens_sum / n
        derivative[start:stop] = pref * deriv_sum / n
    return density, derivative

# single gamma kernel at rho = x/b = 2, t = 0.5: value and x-derivative
K_SINGLE = 0.73575888234288464
KD_SINGLE = -0.6221346597282556


class TestSample:
    def test_basics(self):
        s = Sample(np.array([0.0, 1.0, 2.5]))
        assert s.n == 3

    @pytest.mark.parametrize(
        "bad",
        [
            [],
            [[1.0, 2.0]],
            [1.0, -0.5],
            [1.0, math.nan],
            [1.0, math.inf],
        ],
        ids=["empty", "2d", "negative", "nan", "inf"],
    )
    def test_rejects_bad_values(self, bad):
        with pytest.raises(ValueError):
            Sample(np.array(bad))


class TestPointwise:
    def test_single_observation_reduces_to_one_kernel(self):
        # the estimator evaluates in log space, so allow a few ulp of drift
        s = Sample(np.array([0.5]))
        assert rel_err(density_at(s, 0.5, 1.0), K_SINGLE) < 5e-14
        assert rel_err(derivative_at(s, 0.5, 1.0), KD_SINGLE) < 5e-14

    def test_average_of_kernels(self):
        # two observations: the estimate is the mean of two kernel values
        s = Sample(np.array([0.5, 1.5]))
        got = derivative_at(s, 0.5, 1.0)
        want = 0.5 * (
            kernel_x_derivative(1.0, 0.5, 0.5) + kernel_x_derivative(1.0, 0.5, 1.5)
        )
        assert rel_err(got, want) < 1e-14

    def test_zero_observations_at_origin(self):
        # t = 0 feeds the density only through the rho = 1 kernel at x = 0
        s = Sample(np.array([0.0, 0.5, 1.0]))
        assert rel_err(density_at(s, 0.1, 0.0), 3.3559444897628268) < 1e-13
        assert derivative_at(s, 0.1, 0.0) == 0.0
        # away from the origin rho > 1 and t = 0 contributes nothing
        s_zero = Sample(np.array([0.0]))
        assert density_at(s_zero, 0.1, 1.0) == 0.0
        assert derivative_at(s_zero, 0.1, 1.0) == 0.0

    def test_all_zero_sample(self):
        s = Sample(np.array([0.0, 0.0]))
        assert density_at(s, 0.25, 0.0) == 4.0  # 1 / b
        assert derivative_at(s, 0.25, 0.0) == 0.0

    def test_derivative_matches_density_difference(self, rng):
        s = Sample(np.sort(rng.gamma(2.0, 1.0, size=200)))
        b = 0.2
        h = 1e-6
        for x in (0.15, 0.6, 1.3, 2.7):  # straddles both shape branches
            fd = (density_at(s, b, x + h) - density_at(s, b, x - h)) / (2.0 * h)
            assert rel_err(derivative_at(s, b, x), fd) < 1e-5, x

    def test_domain_errors(self):
        s = Sample(np.array([1.0]))
        with pytest.raises(ValueError):
            density_at(s, -0.1, 1.0)
        with pytest.raises(ValueError):
            density_at(s, 0.1, -1.0)
        with pytest.raises(ValueError):
            derivative_at(s, math.nan, 1.0)


class TestGrid:
    def test_matches_pointwise(self):
        s = draw_sample(MaxwellParams(), 500, 11)
        grid = np.linspace(0.05, 3.0, 40)
        ev = evaluate_on_grid(s, 0.15, grid)
        assert ev.bandwidth == 0.15
        for i in (0, 7, 19, 39):
            assert ev.density[i] == density_at(s, 0.15, grid[i])
            assert ev.derivative[i] == derivative_at(s, 0.15, grid[i])

    def test_blocking_is_invisible(self):
        # a large sample forces several grid blocks through the core loop
        s = draw_sample(MaxwellParams(), 30_000, 3)
        grid = np.linspace(0.1, 3.0, 150)
        ev = evaluate_on_grid(s, 0.1, grid)
        i = 77
        assert ev.density[i] == density_at(s, 0.1, grid[i])
        assert ev.derivative[i] == derivative_at(s, 0.1, grid[i])

    def test_density_integrates_to_one(self):
        # each kernel is itself a density in t for fixed x, but the estimate
        # integrates over x; mass 1 still holds to first order
        s = draw_sample(MaxwellParams(), 1000, 5)
        mass = integrate_semi_infinite(
            lambda x: np.array([density_at(s, 0.1, float(v)) for v in x]),
            1e-6,
        )
        assert abs(mass.value - 1.0) < 0.01

    def test_one_row_per_block(self):
        # 1e5 observations fill a whole block with one row
        s = draw_sample(MaxwellParams(), 100_000, 9)
        grid = np.array([0.5, 1.0, 2.0])
        ev = evaluate_on_grid(s, 0.05, grid)
        for i, x in enumerate(grid):
            assert ev.density[i] == density_at(s, 0.05, x)
            assert ev.derivative[i] == derivative_at(s, 0.05, x)

    def test_grid_validation(self):
        s = Sample(np.array([1.0]))
        with pytest.raises(ValueError):
            evaluate_on_grid(s, 0.1, np.array([]))
        with pytest.raises(ValueError):
            evaluate_on_grid(s, 0.1, np.array([0.5, 0.5]))
        with pytest.raises(ValueError):
            evaluate_on_grid(s, 0.1, np.array([0.5, 0.2]))
        with pytest.raises(ValueError):
            evaluate_on_grid(s, 0.1, np.array([-0.5, 0.2]))
        ev = evaluate_on_grid(s, 0.1, np.array([1.0]))  # single point is fine
        assert ev.density.shape == (1,)


class TestReferenceLoop:
    """evaluate_on_grid against the per-point oracle loop above.

    Each curve must agree within 1e-12 of its own largest magnitude, across
    twelve decades of scale, both shape branches, the rho = 1 path at x = 0
    (the sample holds exact zeros) and, at n = 20000, several grid blocks.
    """

    TOL = 1e-12

    @pytest.mark.parametrize("n", [200, 2000, 20_000])
    @pytest.mark.parametrize("b_over_sigma", [0.01, 0.05, 0.19])
    @pytest.mark.parametrize("sigma", [1e-6, 1e-3, 1.0, 1e3, 1e6])
    def test_matches_reference(self, sigma, b_over_sigma, n):
        values = draw_sample(MaxwellParams(sigma=sigma), n, 17).values.copy()
        values[:: max(1, n // 25)] = 0.0
        s = Sample(values)
        b = b_over_sigma * sigma
        # x = 0, then 249 points up to 6 sigma: 3 blocks of 100 at n = 20000
        grid = np.linspace(0.0, 6.0 * sigma, 250)
        ev = evaluate_on_grid(s, b, grid)
        want_density, want_derivative = reference_core(s.values, grid, b)
        for got, want in ((ev.density, want_density), (ev.derivative, want_derivative)):
            scale = np.max(np.abs(want))
            assert scale > 0.0
            assert np.max(np.abs(got - want)) <= self.TOL * scale


class TestMemory:
    def test_peak_is_one_block(self):
        # One 2e6-element block of doubles is 15.3 MiB; the estimator may hold
        # that one block and per-point arrays, not several block temporaries.
        s = draw_sample(MaxwellParams(), 8000, 4)
        grid = GridSpec().array()
        tracemalloc.start()
        try:
            evaluate_on_grid(s, 0.1, grid)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 20 * 2**20

    def test_peak_is_a_cache_sized_block(self):
        # The block is 2**17 doubles (1 MiB); the sample-length arrays of an
        # n = 8000 call and the plan add about a quarter of that.
        s = draw_sample(MaxwellParams(), 8000, 4)
        grid = GridSpec().array()
        estimator._plan.cache_clear()
        tracemalloc.start()
        try:
            evaluate_on_grid(s, 0.1, grid)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2 * 2**20

    def test_peak_is_one_workspace_at_verify_lemmas_shape(self):
        # At n = 1e5 a block is one row, so the workspace is four sample-length
        # rows (log t, t / b, log(t / b) and the kernel); no other
        # sample-length array is allocated, not even a copy of the sample.
        n = 100_000
        s = draw_sample(MaxwellParams(), n, 4)
        estimator._plan.cache_clear()
        tracemalloc.start()
        try:
            evaluate_on_grid(s, 0.05, np.array([0.5, 1.0, 2.0]))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 4.5 * 8 * n


class TestPlanMemo:
    def test_warm_equals_cold(self):
        s = draw_sample(MaxwellParams(), 3000, 21)
        grid = GridSpec().array()
        estimator._plan.cache_clear()
        cold = evaluate_on_grid(s, 0.12, grid)
        hits = estimator._plan.cache_info().hits
        warm = evaluate_on_grid(s, 0.12, grid)
        assert estimator._plan.cache_info().hits == hits + 1
        assert np.array_equal(cold.density, warm.density)
        assert np.array_equal(cold.derivative, warm.derivative)

    def test_plan_arrays_are_read_only(self):
        grid = np.linspace(0.0, 2.0, 11)
        plan = KernelPlan(grid, 0.1)
        for name in ("xs", "interior", "rho", "lognorm", "psi", "prefactor"):
            arr = getattr(plan, name)
            with pytest.raises(ValueError):
                arr[0] = arr[1]
        grid[0] = 0.5  # the caller's points stay writable and are not shared
        assert plan.xs[0] == 0.0

    def test_memo_is_bounded(self):
        s = draw_sample(MaxwellParams(), 50, 2)
        grid = np.linspace(0.1, 2.0, 7)
        size = estimator._PLAN_MEMO_SIZE
        for k in range(3 * size):
            evaluate_on_grid(s, 0.05 + 0.01 * k, grid)
            assert estimator._plan.cache_info().currsize <= size
        assert estimator._plan.cache_info().currsize == size

    def test_bad_input_raises_with_warm_memo(self):
        s = draw_sample(MaxwellParams(), 50, 2)
        grid = np.array([0.5, 1.0])
        evaluate_on_grid(s, 0.1, grid)
        bad_points = np.array([-0.5, 1.0])
        for _ in range(2):
            with pytest.raises(ValueError, match="evaluation point must be finite"):
                evaluate_on_grid(s, 0.1, bad_points)
            for b in (0.0, -0.1, math.nan, math.inf):
                with pytest.raises(ValueError, match="bandwidth must be finite"):
                    evaluate_on_grid(s, b, grid)
            # the same bytes as the warm grid, but not a 1-D array of points
            with pytest.raises(ValueError, match="1-D"):
                density_at(s, 0.1, [0.5, 1.0])


def assert_same_bits(batch, samples, b, grid):
    points, density, derivative = batch
    assert density.shape == derivative.shape == (len(samples), points.size)
    for dens, deriv, s in zip(density, derivative, samples):
        one = evaluate_on_grid(s, b, grid)
        assert one.bandwidth == b
        assert np.array_equal(points, one.grid)
        assert np.array_equal(dens, one.density)
        assert np.array_equal(deriv, one.derivative)


class TestBatch:
    """evaluate_batch gives each sample the bits of its own evaluate_on_grid."""

    @pytest.mark.parametrize("n", [1, 2, 7, 8, 9, 200, 8193])
    @pytest.mark.parametrize("count", [1, 2, 7, 41])
    def test_matches_one_sample_calls(self, n, count, monkeypatch):
        samples = [
            draw_sample(MaxwellParams(), n, derived_seed(23, n, r)) for r in range(count)
        ]
        one_point = np.array([0.7])
        grid = GridSpec(points=40).array()
        for g in (one_point, grid):
            assert_same_bits(evaluate_batch(samples, 0.1, g), samples, 0.1, g)
        # Blocks of three grid rows: the 40-point grid spans 14 blocks.
        monkeypatch.setattr(estimator, "_BLOCK_ENTRIES", 3 * n * count)
        assert_same_bits(evaluate_batch(samples, 0.1, grid), samples, 0.1, grid)

    def test_ragged_batches(self):
        rng = np.random.default_rng(8)
        grid = np.linspace(0.0, 3.0, 31)  # x = 0 takes the rho = 1 path

        def with_zeros(n, zeros):
            values = rng.gamma(2.0, 0.5, size=n)
            values[rng.choice(n, size=zeros, replace=False)] = 0.0
            return Sample(values)

        same_zeros = [with_zeros(50, 4) for _ in range(5)]
        ragged = [
            with_zeros(50, 0),
            with_zeros(50, 4),
            with_zeros(30, 0),
            with_zeros(50, 50),
            with_zeros(1, 0),
        ]
        for samples in (same_zeros, ragged, ragged[::-1]):
            assert_same_bits(evaluate_batch(samples, 0.05, grid), samples, 0.05, grid)

    def test_checked_arrays_are_the_evaluations(self):
        # Each checked row is the sample's evaluation, as a GridEvaluation record.
        samples = [draw_sample(MaxwellParams(), 30, derived_seed(4, r)) for r in range(5)]
        grid = GridSpec(points=40).array()
        points, density, derivative = evaluate_batch(samples, 0.1, grid)
        assert density.shape == derivative.shape == (5, 40)
        for s, dens, deriv in zip(samples, density, derivative):
            ev = evaluate_on_grid(s, 0.1, grid)
            checked = GridEvaluation(points, dens, deriv, 0.1)
            assert np.array_equal(ev.grid, checked.grid)
            assert np.array_equal(ev.density, checked.density)
            assert np.array_equal(ev.derivative, checked.derivative)

    def test_an_estimate_that_overflows_fails_its_check(self):
        # sigma = 1e-154 puts the slope estimates near 1e308; the product of
        # the kernel prefactor and a derivative sum overflows. No warning
        # (pytest makes RuntimeWarnings errors), one ValueError.
        sigma = 1e-154
        samples = [draw_sample(MaxwellParams(sigma), 50, derived_seed(3, r)) for r in range(2)]
        grid = GridSpec(min=0.05 * sigma, max=4.0 * sigma, points=10).array()
        with pytest.raises(ValueError, match="derivative values must be finite"):
            evaluate_batch(samples, 0.1 * sigma, grid)
        # The one-point estimate takes the same checked path.
        with pytest.raises(ValueError, match="derivative values must be finite"):
            derivative_at(samples[0], 0.1 * sigma, 0.445 * sigma)

    def test_empty_batch_and_checks(self):
        s = Sample(np.array([1.0, 2.0]))
        points, density, derivative = evaluate_batch([], 0.1, [0.5, 1.0])
        assert np.array_equal(points, [0.5, 1.0])
        assert density.shape == derivative.shape == (0, 2)
        with pytest.raises(ValueError, match="strictly increasing"):
            evaluate_batch([s, s], 0.1, [0.5, 0.5])
        with pytest.raises(ValueError, match="bandwidth must be finite"):
            evaluate_batch([s, s], 0.0, [0.5, 1.0])
        # The x = 0 density of a sample with a zero is n_zero / (n b), which
        # overflows at b = 1e-310; the one-sample record takes the same check.
        zero = Sample(np.array([0.0, 1.0]))
        with pytest.raises(ValueError, match="density values must be finite and >= 0"):
            evaluate_batch([zero], 1e-310, [0.0])
        with pytest.raises(ValueError, match="density values must be finite and >= 0"):
            evaluate_on_grid(zero, 1e-310, [0.0])
