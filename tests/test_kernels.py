"""Gamma kernel: shape rule, values, log factor, derivative in x.

Frozen constants come from 40-digit arithmetic on the closed forms.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gammakde.kernels import KernelPlan, kernel_value, kernel_x_derivative
from gammakde.numerics import integrate_semi_infinite

from conftest import rel_err
from oracles import central_difference

# gamma pdf with shape 2, scale 0.5 at t = 0.5: t e^{-t/b} / b^2
K_RHO2_HALF = 0.73575888234288464
# boundary kernel x=0.05, b=0.1 (rho = 1.0625) at t = 0.1
K_BOUNDARY = 3.8020568373645458
# -digamma(2) = gamma_Euler - 1
L_RHO2_HALF = -0.42278433509846714
# (1/b) K L = 2 * K_RHO2_HALF * L_RHO2_HALF; a nearby source prints
# -0.6221528 for this product, which does not match its own factors --
# the frozen value below is the true product.
KD_RHO2_HALF = -0.6221346597282556
# boundary derivative x=0.05, b=0.1, t=0.1: (x/(2 b^2)) K L
KD_BOUNDARY = 4.5515704649472387


def log_factor(x: float, b: float, t: float) -> float:
    """ln(t / b) - digamma(rho), the log-kernel's derivative in the shape."""
    return math.log(t / b) - KernelPlan([x], b).psi[0]


def test_shape_interior():
    plan = KernelPlan([1.0], 0.1)
    assert plan.interior[0]
    assert plan.rho[0] == pytest.approx(10.0, abs=0.0)


def test_shape_boundary():
    plan = KernelPlan([0.1], 0.1)
    assert not plan.interior[0]
    assert plan.rho[0] == pytest.approx(1.25, abs=0.0)


def test_shape_tie_is_interior():
    plan = KernelPlan([0.2], 0.1)
    assert plan.interior[0]
    assert plan.rho[0] == pytest.approx(2.0, abs=0.0)
    # boundary formula gives the same shape at the switch point
    assert (0.2 / 0.2) ** 2 + 1.0 == pytest.approx(2.0, abs=0.0)


@pytest.mark.parametrize("x,b", [(-0.1, 0.1), (1.0, 0.0), (1.0, -0.5), (np.nan, 0.1)])
def test_shape_domain_errors(x, b):
    with pytest.raises(ValueError):
        KernelPlan([x], b)


def test_kernel_value_closed_form():
    got = kernel_value(1.0, 0.5, np.array([0.5]))[0]
    assert rel_err(got, K_RHO2_HALF) < 1e-13


def test_kernel_value_boundary_frozen():
    got = kernel_value(0.05, 0.1, np.array([0.1]))[0]
    assert rel_err(got, K_BOUNDARY) < 1e-13


def test_kernel_value_normalizes():
    r = integrate_semi_infinite(lambda t: kernel_value(1.0, 0.5, np.asarray(t)), 1e-10)
    assert abs(r.value - 1.0) < 1e-8


def test_kernel_value_t0_limits():
    assert kernel_value(1.0, 0.1, np.array([0.0]))[0] == 0.0
    # x = 0 gives rho = 1 exactly: the exponential density, 1/b at 0
    assert kernel_value(0.0, 0.1, np.array([0.0]))[0] == 10.0


def test_kernel_value_underflow_is_zero():
    assert kernel_value(1.0, 0.01, np.array([1e6]))[0] == 0.0


def test_kernel_value_negative_t_rejected():
    with pytest.raises(ValueError):
        kernel_value(1.0, 0.1, np.array([-0.5]))


def test_log_factor_closed_form():
    assert rel_err(log_factor(1.0, 0.5, 0.5), L_RHO2_HALF) < 1e-13


def test_log_factor_zero_by_construction():
    t_star = 0.5 * math.exp(0.42278433509846714)
    assert abs(log_factor(1.0, 0.5, t_star)) < 1e-13


def test_log_factor_expectation_zero():
    # E[ln xi] = digamma(rho) + ln b for xi ~ Gamma(rho, b)
    psi = KernelPlan([1.0], 0.5).psi[0]
    r = integrate_semi_infinite(
        lambda t: kernel_value(1.0, 0.5, t) * (np.log(t / 0.5) - psi),
        1e-10,
        abs_tol=1e-10,
    )
    assert abs(r.value) < 1e-8


def test_log_factor_requires_positive_t():
    # ln(t / b) diverges at t = 0, so the kernels take their t = 0 limits
    # without evaluating it: no division-by-zero warning may arise.
    with np.errstate(all="raise"):
        assert kernel_x_derivative(1.0, 0.5, np.array([0.0, 0.5]))[0] == 0.0
        assert kernel_value(1.0, 0.5, np.array([0.0, 0.5]))[0] == 0.0


def test_kernel_x_derivative_frozen_product():
    got = kernel_x_derivative(1.0, 0.5, np.array([0.5]))[0]
    assert rel_err(got, KD_RHO2_HALF) < 1e-13


def test_kernel_x_derivative_boundary_frozen():
    got = kernel_x_derivative(0.05, 0.1, np.array([0.1]))[0]
    assert rel_err(got, KD_BOUNDARY) < 1e-13


def test_kernel_x_derivative_zero_at_origin():
    # boundary prefactor x/(2b^2) vanishes
    assert kernel_x_derivative(0.0, 0.1, np.array([0.3]))[0] == 0.0


def test_kernel_x_derivative_t0_limit():
    assert kernel_x_derivative(1.0, 0.1, np.array([0.0]))[0] == 0.0


def test_kernel_x_derivative_matches_fd():
    for x, b, t in [(1.0, 0.2, 0.8), (0.05, 0.1, 0.1), (2.5, 0.05, 2.3), (0.3, 0.4, 0.5)]:
        got = kernel_x_derivative(x, b, np.array([t]))[0]
        h = 1e-6 * max(x, b)
        fd = central_difference(
            lambda xx: float(kernel_value(xx, b, np.array([t]))[0]), x, h
        )
        assert rel_err(got, fd) < 1e-5


def test_kernel_x_derivative_integrates_to_zero():
    for x, b in [(1.0, 0.1), (0.05, 0.1), (2.0, 0.5)]:
        r = integrate_semi_infinite(
            lambda t: kernel_x_derivative(x, b, np.asarray(t, dtype=float)),
            1e-10,
            abs_tol=1e-8,
        )
        assert abs(r.value) < 1e-6


def test_branch_continuity():
    for b in (0.05, 0.2, 1.0):
        x = 2.0 * b
        t = np.linspace(0.2 * b, 6.0 * b, 7)
        lo, hi = x * (1.0 - 1e-8), x * (1.0 + 1e-8)
        k_lo = kernel_value(lo, b, t)
        k_hi = kernel_value(hi, b, t)
        assert np.all(np.abs(k_hi - k_lo) <= 1e-6 * np.maximum(np.abs(k_lo), 1e-30))
        d_lo = kernel_x_derivative(lo, b, t)
        d_hi = kernel_x_derivative(hi, b, t)
        assert np.all(np.abs(d_hi - d_lo) <= 1e-6 * np.maximum(np.abs(d_lo), 1e-12))


@given(
    x=st.floats(min_value=0.01, max_value=5.0),
    b=st.floats(min_value=0.01, max_value=1.0),
    t=st.floats(min_value=0.01, max_value=8.0),
)
@settings(max_examples=150, deadline=None)
def test_fd_agreement_property(x, b, t):
    h = 1e-6 * max(x, b)
    if abs(x - 2.0 * b) < 10.0 * h:  # keep clear of the branch switch
        x = 2.0 * b + 20.0 * h
    got = kernel_x_derivative(x, b, np.array([t]))[0]
    fd = central_difference(
        lambda xx: float(kernel_value(xx, b, np.array([t]))[0]), x, h
    )
    if abs(fd) > 1e-8:  # FD is noise-dominated where the kernel vanishes
        assert rel_err(got, fd) < 1e-4


@given(
    x=st.floats(min_value=0.0, max_value=5.0),
    b=st.floats(min_value=1e-3, max_value=1.0),
)
@settings(max_examples=200, deadline=None)
@example(x=1.1, b=0.8868321468091691)
def test_shape_rule_property(x, b):
    plan = KernelPlan([x], b)
    rho = float(plan.rho[0])
    if x >= 2.0 * b:
        assert plan.interior[0] and rho == x / b and rho >= 2.0
    else:
        assert not plan.interior[0]
        # The oracle squares through libm pow, which may land 1 ulp away
        # from KernelPlan's half * half (1.3846294412618383 against
        # 1.384629441261838 at the example above).
        want = (x / (2.0 * b)) ** 2 + 1.0
        assert abs(rho - want) <= 4.0 * math.ulp(want)
        assert 1.0 <= rho < 2.0


class TestUnbufferedPasses:
    """fill_kernel narrows numpy's ufunc buffer and always puts it back."""

    PLAN = KernelPlan([0.05, 0.5, 1.0], 0.1)
    T = np.array([0.2, 0.7, 1.5, 3.0])

    @pytest.mark.parametrize("start", [np.getbufsize(), 4096])
    def test_restored_after_return(self, start):
        old = np.setbufsize(start)
        try:
            out = np.empty((3, self.T.size))
            self.PLAN.fill_kernel(slice(0, 3), np.log(self.T), self.T / 0.1, out)
            assert np.getbufsize() == start
        finally:
            np.setbufsize(old)
        want = [kernel_value(x, 0.1, self.T) for x in (0.05, 0.5, 1.0)]
        assert np.array_equal(out, want)

    @pytest.mark.parametrize("start", [np.getbufsize(), 4096])
    def test_restored_after_raise(self, start):
        old = np.setbufsize(start)
        try:
            wrong_shape = np.empty((3, self.T.size + 1))
            with pytest.raises(ValueError):
                self.PLAN.fill_kernel(slice(0, 3), np.log(self.T), self.T / 0.1, wrong_shape)
            assert np.getbufsize() == start
        finally:
            np.setbufsize(old)


def test_tiny_bandwidth_computes_each_branch_on_its_points():
    # At b = 1e-300 the boundary formulas overflow (half * half) on interior
    # points, and 2 b^2 underflows to 0; pytest turns a RuntimeWarning into
    # an error.
    b = 1e-300
    plan = KernelPlan([0.0, 1e-300, 0.02, 4.0], b)
    assert plan.interior.tolist() == [False, False, True, True]
    assert plan.rho[0] == 1.0 and plan.rho[1] == 1.25
    assert plan.rho[2] == 0.02 / b and plan.rho[3] == 4.0 / b
    assert plan.prefactor[0] == 0.0 and plan.prefactor[1] == 0.5 / b
    assert plan.prefactor[2] == plan.prefactor[3] == 1.0 / b
    assert np.all(np.isfinite(plan.lognorm[2:])) and np.all(np.isfinite(plan.psi))
