"""Quadrature, root finding, minimization, finite differences."""

import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gammakde import numerics
from gammakde.asymptotics import curvature_term
from gammakde.kernels import kernel_x_derivative
from gammakde.numerics import (
    IntegrationError,
    NoRootError,
    QuadratureResult,
    find_root,
    integrate_semi_infinite,
)
from gammakde.refdens import chi_square_reference, maxwell_reference

from conftest import rel_err
from oracles import central_difference, minimize_scalar

# integral of x^{-3/2} f_M(x) for Maxwell sigma=1; closed form
# sqrt(2/pi) 2^{-1/4} Gamma(3/4), frozen from 40-digit arithmetic
I_MASS = 0.82217895866245855


def test_exponential_integral():
    r = integrate_semi_infinite(lambda x: np.exp(-x), 1e-10)
    assert rel_err(r.value, 1.0) < 1e-10
    assert r.evaluations > 0
    assert r.abs_error_estimate >= 0.0


def test_gamma_moment_integral():
    r = integrate_semi_infinite(lambda x: x * x * np.exp(-x), 1e-10)
    assert rel_err(r.value, 2.0) < 1e-10


def test_mass_integrand():
    c = math.sqrt(2.0 / math.pi)
    r = integrate_semi_infinite(
        lambda x: x**-1.5 * c * x * x * np.exp(-x * x / 2.0), 1e-11
    )
    assert rel_err(r.value, I_MASS) < 1e-10
    # the bandwidth-numerator shape of the same number
    assert abs((3.0 * r.value / math.sqrt(math.pi)) ** (2.0 / 7.0) - 1.099) < 0.005


@pytest.mark.parametrize("k", range(7))
def test_error_estimate_conservative(k):
    # closed-form gamma moments: integral of x^k e^{-x} = k!
    r = integrate_semi_infinite(lambda x, k=k: x**k * np.exp(-x), 1e-9)
    true_err = abs(r.value - math.factorial(k))
    assert true_err <= max(r.abs_error_estimate, 1e-15 * math.factorial(k))


def test_zero_integral_needs_abs_tol():
    # derivative kernels integrate to zero; relative targets are meaningless
    # there, so the caller passes an absolute floor.
    r = integrate_semi_infinite(
        lambda t: kernel_x_derivative(1.0, 0.1, np.asarray(t, dtype=float)),
        1e-10,
        abs_tol=1e-9,
    )
    assert abs(r.value) < 1e-6


def test_divergent_integrand_fails_loudly():
    with pytest.raises(IntegrationError) as exc_info:
        integrate_semi_infinite(lambda x: 1.0 / x, 1e-8)
    partial = exc_info.value.partial
    assert partial is not None and partial.evaluations > 0


def test_nonfinite_integrand_fails_loudly():
    with pytest.raises(IntegrationError):
        integrate_semi_infinite(lambda x: np.full_like(np.asarray(x), np.inf), 1e-8)


def test_origin_divergence_is_named():
    # the origin panel's value grows by a steady 2^0.5 per halving
    with pytest.raises(IntegrationError, match=r"on \(0\.0, .*diverges at the origin$"):
        integrate_semi_infinite(lambda x: x**-1.5 * np.exp(-x), 1e-8)
    # x^-0.99 is integrable (Gamma(0.01) ~ 99.43), but its origin panel
    # shrinks by only 2^-0.01 per halving, so bisection reaches a subnormal
    # panel, where the integrand overflows, before the target is met.
    with pytest.raises(IntegrationError) as exc_info:
        integrate_semi_infinite(lambda x: x**-0.99 * np.exp(-x), 1e-10)
    assert str(exc_info.value) == (
        "integrand returned a non-finite value on (0.0, 6.953355807835e-310); "
        "the integrand overflows near the origin"
    )
    # not finite anywhere: nothing points at the origin
    with pytest.raises(IntegrationError) as exc_info:
        integrate_semi_infinite(lambda x: np.full_like(x, np.inf), 1e-8)
    assert str(exc_info.value) == "integrand returned a non-finite value on (0.0, 0.5)"


@pytest.mark.parametrize(
    "g, message",
    [
        # every value is finite, but a panel's Kronrod sum is not
        (
            lambda x: np.where(x < 3.0, 1e308, 0.0),
            "quadrature sum overflows on (0.0, 0.5)",
        ),
        # every panel sum is finite, but their total is not
        (lambda x: np.full_like(x, 1e300), "the sum over the panels overflows"),
    ],
)
def test_overflowing_sums_raise_integration_error(g, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(IntegrationError) as exc_info:
            integrate_semi_infinite(g, 1e-8)
    assert str(exc_info.value) == message
    assert exc_info.value.partial is None


def _counting(g):
    """g, plus the sizes of the arrays it was called on."""
    sizes = []

    def counted(t):
        sizes.append(t.size)
        return g(t)

    return counted, sizes


def test_one_integrand_call_per_bisection():
    # The two unit panels share one call, each dyadic tail panel has its own,
    # and so do the two halves of each bisection: 1 + 5 + 3 calls.
    ref = maxwell_reference(1.0)
    g, sizes = _counting(lambda t: curvature_term(ref, t))
    r = integrate_semi_infinite(g, 1e-10)
    assert (len(sizes), sum(sizes), r.evaluations) == (9, 195, 195)

    # 1 + 7 calls, then 13 halvings of the origin panel, the last 8 of which
    # grow it by a steady ratio.
    ref = chi_square_reference(4)
    g, sizes = _counting(lambda t: curvature_term(ref, t))
    with pytest.raises(IntegrationError, match="diverges at the origin"):
        integrate_semi_infinite(g, 1e-10)
    assert (len(sizes), sum(sizes)) == (21, 525)


@pytest.mark.parametrize(
    "p, want, calls",
    [
        (-0.5, (1.7724538508453482, 1.4329019072086885e-10, 1875), 66),
        (-0.9, (9.51350769543415, 9.307817269951287e-10, 9255), 312),
    ],
)
def test_integrable_origin_singularity_keeps_its_bits(p, want, calls):
    # x^p with p > -1 shrinks the origin panel as it halves, so the
    # divergence rule never fires and bisection runs to convergence.
    g, sizes = _counting(lambda x: x**p * np.exp(-x))
    assert integrate_semi_infinite(g, 1e-10) == QuadratureResult(*want)
    assert len(sizes) == calls


@pytest.mark.parametrize("p", [-1.0, -1.5, -3.0])
def test_divergence_at_the_origin_stops_early(p):
    # x^p with p <= -1 grows the origin panel by 2^-(p+1) >= 1 per halving.
    g, sizes = _counting(lambda x: x**p * np.exp(-x))
    with pytest.raises(IntegrationError) as exc_info:
        integrate_semi_infinite(g, 1e-10)
    assert type(exc_info.value) is IntegrationError
    assert exc_info.value.partial is None
    assert re.fullmatch(
        r"the panel on \(0\.0, [\d.e-]+\) grows as it halves; "
        "the integral diverges at the origin",
        str(exc_info.value),
    )
    assert len(sizes) <= 32


def _bounds(start, widths):
    """Adjacent panels (a, b) from start with the given widths."""
    edges = [start]
    for w in widths:
        edges.append(edges[-1] + w)
    return tuple(zip(edges[:-1], edges[1:]))


_PANEL_BOUNDS = st.builds(
    _bounds,
    st.one_of(st.just(0.0), st.floats(0.0, 10.0)),
    st.lists(st.floats(1e-3, 4.0), min_size=1, max_size=6),
)


@settings(max_examples=100, deadline=None)
@given(
    bounds=_PANEL_BOUNDS,
    bad_panels=st.sets(st.integers(0, 5), min_size=1),
    node=st.integers(0, 14),
    bad_value=st.sampled_from([math.nan, math.inf, -math.inf]),
)
def test_panels_name_the_first_non_finite_panel(bounds, bad_panels, node, bad_value):
    bad_panels = sorted(i for i in bad_panels if i < len(bounds))
    assume(bad_panels)

    def g(t):
        v = np.exp(-t).reshape(len(bounds), -1)
        v[bad_panels, node] = bad_value
        return v.ravel()

    with pytest.raises(IntegrationError) as exc_info:
        numerics._panels(g, bounds)
    a, b = bounds[bad_panels[0]]
    want = f"integrand returned a non-finite value on ({a!r}, {b!r})"
    if a == 0.0 and b < 0.5:
        want += "; the integrand overflows near the origin"
    assert str(exc_info.value) == want


@settings(max_examples=50, deadline=None)
@given(
    bounds=_PANEL_BOUNDS,
    reshape=st.sampled_from(["drop one", "add one", "one row per panel", "scalar"]),
)
def test_panels_reject_a_wrong_shape(bounds, reshape):
    def g(t):
        v = np.exp(-t)
        return {
            "drop one": v[:-1],
            "add one": np.append(v, 1.0),
            "one row per panel": v.reshape(len(bounds), -1),
            "scalar": v[0],
        }[reshape]

    with pytest.raises(ValueError, match="same-shape values"):
        numerics._panels(g, bounds)


@pytest.mark.parametrize("bad", [0.0, -1e-3, 1e-14, 0.5, 1.0])
def test_rel_tol_validation(bad):
    with pytest.raises(ValueError):
        integrate_semi_infinite(lambda x: np.exp(-x), bad)


def test_find_root_cubic():
    assert abs(find_root(lambda b: b**3 - 8.0, 1.0, 3.0, 1e-12) - 2.0) < 1e-11


def test_find_root_linear():
    assert abs(find_root(lambda b: b - 0.5, 0.0, 1.0, 1e-12) - 0.5) < 1e-11


def test_find_root_endpoint_zero():
    assert find_root(lambda b: b - 1.0, 1.0, 3.0, 1e-12) == 1.0


def test_find_root_no_sign_change():
    with pytest.raises(NoRootError):
        find_root(lambda b: b * b + 1.0, -1.0, 1.0, 1e-12)


def test_find_root_bracket_contract():
    # result lies in a final bracket no wider than tol, with a sign change
    g = lambda x: math.cos(x)
    tol = 1e-10
    r = find_root(g, 1.0, 2.0, tol)
    assert abs(r - math.pi / 2.0) < tol
    assert g(r - tol) * g(r + tol) < 0.0


def test_minimize_quadratic():
    assert abs(minimize_scalar(lambda b: (b - 0.3) ** 2, 0.0, 1.0, 1e-10) - 0.3) < 1e-8


def test_minimize_b2_plus_inv_b():
    # stationarity 2b = b^{-2} -> b = 2^{-1/3}
    want = 0.5 ** (1.0 / 3.0)
    got = minimize_scalar(lambda b: b * b + 1.0 / b, 0.1, 5.0, 1e-10)
    assert rel_err(got, want) < 1e-7


def test_minimize_domain_error():
    with pytest.raises(ValueError):
        minimize_scalar(lambda b: b, 1.0, 1.0, 1e-10)


def test_central_difference_quadratic_exact():
    for h in (1e-1, 1e-3, 1e-6):
        assert central_difference(lambda x: x * x, 3.0, h) == pytest.approx(
            6.0, abs=1e-9
        )


def test_central_difference_exp():
    assert abs(central_difference(math.exp, 0.0, 1e-6) - 1.0) < 1e-9
