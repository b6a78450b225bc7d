"""Special functions against a frozen arbitrary-precision table.

Expected values were computed once with mpmath at 40 decimal digits and
pasted here, so the suite never depends on mpmath at run time.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gammakde.specfun import (
    digamma,
    digamma_array,
    log_gamma,
    log_gamma_array,
    stirling_ratio,
)

from conftest import rel_err

LOG_GAMMA_TABLE = {
    0.1: 2.2527126517342059,
    0.5: 0.57236494292470009,
    1.0: 0.0,
    1.5: -0.12078223763524522,
    2.0: 0.0,
    3.75: 1.4868155785934171,
    5.0: 3.1780538303479456,
    7.25: 7.0521854507385394,
    10.0: 12.80182748008147,
    16.0: 27.899271383840892,
    50.0: 144.56574394634489,
    100.0: 359.1342053695754,
    1e4: 82099.717496442377,
}

DIGAMMA_TABLE = {
    0.1: -10.423754940411076,
    0.5: -1.9635100260214235,
    1.0: -0.57721566490153286,
    1.5: 0.036489973978576521,
    2.0: 0.42278433509846714,
    3.75: 1.1825373886117962,
    5.0: 1.5061176684318005,
    7.25: 1.910453526883736,
    10.0: 2.2517525890667211,
    16.0: 2.7410133283274604,
    50.0: 3.9019896734278922,
    100.0: 4.6001618527380874,
    1e4: 9.2102903711428494,
}

STIRLING_TABLE = {
    0.25: 0.76146550896873554,
    0.5: 0.8577638849607068,
    1.0: 0.92213700889578912,
    2.0: 0.95950217574449158,
    5.0: 0.98349306631325067,
    10.0: 0.99170403955606149,
    20.0: 0.9958423473771196,
    50.0: 0.99833474363362026,
    100.0: 0.999167016567843,
    1e4: 0.99999166670139157,
}


@pytest.mark.parametrize("z,want", sorted(LOG_GAMMA_TABLE.items()))
def test_log_gamma_table(z, want):
    # scaled error: table spans 0 .. ~8e4
    assert abs(log_gamma(z) - want) / max(1.0, abs(want)) < 1e-13


@pytest.mark.parametrize("z,want", sorted(DIGAMMA_TABLE.items()))
def test_digamma_table(z, want):
    assert abs(digamma(z) - want) / max(1.0, abs(want)) < 1e-11


def _shuffled_table(table):
    # One call mixes the z < 0.5, [0.5, 16) and >= 16 ranges, out of order.
    zs = np.array(sorted(table))
    order = np.random.default_rng(3).permutation(zs.size)
    assert np.any(zs < 0.5) and np.any((zs >= 0.5) & (zs < 16.0)) and np.any(zs >= 16.0)
    return zs[order], np.array([table[z] for z in zs[order]])


def test_log_gamma_array_table():
    zs, want = _shuffled_table(LOG_GAMMA_TABLE)
    got = log_gamma_array(zs)
    assert got.shape == zs.shape
    assert np.all(np.abs(got - want) / np.maximum(1.0, np.abs(want)) < 1e-13)


def test_digamma_array_table():
    zs, want = _shuffled_table(DIGAMMA_TABLE)
    got = digamma_array(zs)
    assert got.shape == zs.shape
    assert np.all(np.abs(got - want) / np.maximum(1.0, np.abs(want)) < 1e-11)


def test_array_forms_match_scalar_forms():
    zs = np.concatenate([np.logspace(-3, 4, 200), [0.5, 16.0]])
    assert np.array_equal(log_gamma_array(zs), [log_gamma(z) for z in zs])
    assert np.array_equal(digamma_array(zs), [digamma(z) for z in zs])


@pytest.mark.parametrize("fn", [log_gamma_array, digamma_array])
@pytest.mark.parametrize("bad", [-1.0, 0.0, math.nan, math.inf])
def test_array_domain_errors(fn, bad):
    with pytest.raises(ValueError):
        fn(np.array([1.0, bad, 2.0]))


@pytest.mark.parametrize("z,want", sorted(STIRLING_TABLE.items()))
def test_stirling_table(z, want):
    assert rel_err(stirling_ratio(z), want) < 1e-12


def test_log_gamma_known_points():
    # Gamma(1) = Gamma(2) = 1, Gamma(0.5) = sqrt(pi)
    assert log_gamma(1.0) == pytest.approx(0.0, abs=1e-14)
    assert log_gamma(2.0) == pytest.approx(0.0, abs=1e-14)
    assert rel_err(log_gamma(0.5), math.log(math.pi) / 2.0) < 1e-14


def test_digamma_known_points():
    euler = 0.57721566490153286
    assert rel_err(digamma(1.0), -euler) < 1e-12
    # psi(1/2) = -gamma - 2 ln 2
    assert rel_err(digamma(0.5), -euler - 2.0 * math.log(2.0)) < 1e-12


@given(st.floats(min_value=1e-3, max_value=1e3))
@settings(max_examples=200, deadline=None)
def test_log_gamma_recurrence(z):
    # log Gamma(z+1) = log Gamma(z) + log z
    assert abs(log_gamma(z + 1.0) - log_gamma(z) - math.log(z)) < 1e-10 * max(
        1.0, abs(log_gamma(z))
    )


@given(st.floats(min_value=1e-3, max_value=1e3))
@settings(max_examples=200, deadline=None)
def test_digamma_recurrence(z):
    # psi(z+1) = psi(z) + 1/z
    assert abs(digamma(z + 1.0) - digamma(z) - 1.0 / z) < 1e-10 * max(
        1.0, abs(digamma(z))
    )


def test_stirling_ratio_shape():
    # increasing, below 1, tending to 1; zero limit pinned at 0
    zs = [0.1, 0.25, 0.5, 1.0, 2.0, 5.0, 10.0, 50.0, 1e3, 1e5, 1e8]
    vals = [stirling_ratio(z) for z in zs]
    assert all(v < 1.0 for v in vals)
    assert all(a < b for a, b in zip(vals, vals[1:]))
    assert vals[-1] > 1.0 - 1e-8
    assert stirling_ratio(0.0) == 0.0


@given(st.floats(min_value=1e-2, max_value=1e6))
@settings(max_examples=200, deadline=None)
def test_stirling_ratio_bounded(z):
    v = stirling_ratio(z)
    assert 0.0 < v < 1.0


@pytest.mark.parametrize("fn", [log_gamma, digamma, stirling_ratio])
def test_domain_errors(fn):
    with pytest.raises(ValueError):
        fn(-1.0)
    if fn is not stirling_ratio:  # stirling_ratio(0) is a pinned limit
        with pytest.raises(ValueError):
            fn(0.0)
