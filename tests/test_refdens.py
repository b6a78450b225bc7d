"""Reference densities, analytic derivatives, exact samplers."""

import math

import numpy as np
import pytest

from gammakde.numerics import integrate_semi_infinite
from gammakde.refdens import (
    ChiSquareParams,
    MaxwellParams,
    chi_square_pdf_derivs,
    chi_square_reference,
    derived_seed,
    maxwell_pdf_derivs,
    maxwell_reference,
    reference_for,
    sample,
)

from conftest import rel_err
from oracles import central_difference, maxwell_cdf

# Maxwell sigma=1 at x in {0.5, 1, 2}: (f, f', f''), 40-digit frozen
MAXWELL_TABLE = {
    0.5: (0.17603266338214974, 0.61611432183752409, 0.57210615599198665),
    1.0: (0.4839414490382867, 0.4839414490382867, -0.9678828980765734),
    2.0: (0.43192773210550442, -0.43192773210550442, -0.21596386605275221),
}

MAXWELL_CDF_TABLE = {
    0.5: 0.03085959578372673,
    1.0: 0.1987480430987992,
    2.0: 0.73853587005088938,
    3.0: 0.97070911346511177,
}

# chi-square m at x in {1.5, 3.0}: (f, f', f'')
CHI2_TABLE = {
    (3, 1.5): (0.23079948420818289, -0.038466580701363815, -0.044877677484924451),
    (3, 3.0): (0.15418032980376928, -0.051393443267923092, 0.008565573877987182),
    (4, 1.5): (0.17713745727788052, 0.029522909546313419, -0.073807273865783548),
    (4, 3.0): (0.16734762011132237, -0.027891270018553729, -0.013945635009276864),
    (6, 1.5): (0.066426546479205193, 0.055355455399337661, -0.012916272926512121),
    (6, 3.0): (0.12551071508349178, 0.020918452513915296, -0.024404861266234513),
}

MAXWELL_MEAN = 2.0 * math.sqrt(2.0 / math.pi)  # sigma = 1


@pytest.mark.parametrize("x,want", sorted(MAXWELL_TABLE.items()))
def test_maxwell_pdf_derivs_frozen(x, want):
    d = maxwell_pdf_derivs(MaxwellParams(), x)
    assert rel_err(d.f, want[0]) < 1e-14
    assert rel_err(d.d1, want[1]) < 1e-14
    assert rel_err(d.d2, want[2]) < 1e-14


def test_maxwell_at_origin():
    d = maxwell_pdf_derivs(MaxwellParams(), 0.0)
    assert d.f == 0.0 and d.d1 == 0.0
    assert rel_err(d.d2, 2.0 * math.sqrt(2.0 / math.pi)) < 1e-14


def test_maxwell_sigma_scaling():
    # f_sigma(x) = f_1(x/sigma)/sigma
    d2 = maxwell_pdf_derivs(MaxwellParams(sigma=2.0), 1.0)
    d1 = maxwell_pdf_derivs(MaxwellParams(), 0.5)
    assert rel_err(d2.f, d1.f / 2.0) < 1e-14


@pytest.mark.parametrize("x,want", sorted(MAXWELL_CDF_TABLE.items()))
def test_maxwell_cdf_frozen(x, want):
    assert rel_err(float(maxwell_cdf(MaxwellParams(), x)), want) < 1e-13


@pytest.mark.parametrize("key,want", sorted(CHI2_TABLE.items()))
def test_chi_square_pdf_derivs_frozen(key, want):
    m, x = key
    d = chi_square_pdf_derivs(ChiSquareParams(m=m), x)
    assert rel_err(d.f, want[0]) < 1e-13
    assert rel_err(d.d1, want[1]) < 1e-13
    assert rel_err(d.d2, want[2]) < 1e-13


@pytest.mark.parametrize(
    "ref",
    [maxwell_reference(), chi_square_reference(4), chi_square_reference(6)],
    ids=["maxwell", "chi2_4", "chi2_6"],
)
def test_derivatives_match_finite_differences(ref):
    for x in np.linspace(0.05, 5.0, 21):
        d1_fd = central_difference(lambda y: float(ref.pdf(y)), x, 1e-6)
        d2_fd = central_difference(lambda y: float(ref.d1(y)), x, 1e-6)
        if abs(d1_fd) > 1e-7:
            assert rel_err(float(ref.d1(x)), d1_fd) < 1e-6
        if abs(d2_fd) > 1e-7:
            assert rel_err(float(ref.d2(x)), d2_fd) < 1e-6


@pytest.mark.parametrize(
    "ref",
    [maxwell_reference(), chi_square_reference(3), chi_square_reference(6)],
    ids=["maxwell", "chi2_3", "chi2_6"],
)
def test_pdf_normalizes(ref):
    r = integrate_semi_infinite(lambda x: ref.pdf(np.asarray(x, dtype=float)), 1e-10)
    assert abs(r.value - 1.0) < 1e-8


def test_chi2_3_is_rescaled_maxwell():
    # change of variables y = x^2: pdf_{chi2_3}(x) = f_M(sqrt(x)) / (2 sqrt(x))
    chi3 = chi_square_reference(3)
    maxw = maxwell_reference()
    xs = np.linspace(0.1, 9.0, 25)
    lhs = chi3.pdf(xs)
    rhs = maxw.pdf(np.sqrt(xs)) / (2.0 * np.sqrt(xs))
    assert np.allclose(lhs, rhs, rtol=1e-13, atol=0.0)


def test_sample_deterministic():
    a = sample(MaxwellParams(), 1000, 42)
    b = sample(MaxwellParams(), 1000, 42)
    assert np.array_equal(a.values, b.values)
    c = sample(MaxwellParams(), 1000, 43)
    assert not np.array_equal(a.values, c.values)


def _old_formula_draws(m: int, n: int, seed: int) -> np.ndarray:
    """Sum of squares of m normals per row, as g.sum(axis=1) of the squares."""
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    g = rng.standard_normal((n, m))
    return (g * g).sum(axis=1)


@pytest.mark.parametrize("seed", [1, 42, 20260815])
@pytest.mark.parametrize("n", [1, 7, 1000, 100_000])
@pytest.mark.parametrize("sigma", [1e-3, 1.0, 10.0])
def test_maxwell_draws_equal_row_reduction(sigma, n, seed):
    want = sigma * np.sqrt(_old_formula_draws(3, n, seed))
    assert np.array_equal(sample(MaxwellParams(sigma=sigma), n, seed).values, want)


@pytest.mark.parametrize("seed", [1, 42])
@pytest.mark.parametrize("m", [3, 8, 50])
def test_chi_square_draws_equal_row_reduction(m, seed):
    want = _old_formula_draws(m, 1000, seed)
    assert np.array_equal(sample(ChiSquareParams(m=m), 1000, seed).values, want)


def test_sample_positive():
    s = sample(ChiSquareParams(m=4), 10_000, 7)
    assert np.all(s.values > 0.0)


def test_maxwell_sample_mean():
    s = sample(MaxwellParams(), 1_000_000, 20260815)
    assert abs(s.values.mean() - MAXWELL_MEAN) < 0.005


def test_chi2_sample_mean():
    s = sample(ChiSquareParams(m=4), 1_000_000, 20260815)
    assert abs(s.values.mean() - 4.0) < 0.02


def test_maxwell_ks_distance():
    # loose 3-sigma-style bound on the empirical CDF distance
    n = 100_000
    bound = 1.36 / math.sqrt(n) * 1.5
    params = MaxwellParams()
    for seed in (1, 2, 3, 4, 5):
        s = np.sort(sample(params, n, seed).values)
        cdf = np.asarray(maxwell_cdf(params, s))
        grid = np.arange(1, n + 1) / n
        ks = np.max(np.maximum(np.abs(cdf - grid), np.abs(cdf - grid + 1.0 / n)))
        assert ks <= bound, f"seed {seed}: KS {ks:.5f} > {bound:.5f}"


def test_sample_errors():
    with pytest.raises(ValueError):
        sample(MaxwellParams(), 0, 1)


def test_params_validation():
    with pytest.raises(ValueError):
        MaxwellParams(sigma=0.0)
    with pytest.raises(ValueError):
        ChiSquareParams(m=2)
    with pytest.raises(ValueError):
        chi_square_pdf_derivs(ChiSquareParams(m=4), 0.0)


def test_reference_for_labels():
    assert reference_for(MaxwellParams()).label == "maxwell(sigma=1)"
    assert reference_for(ChiSquareParams(m=5)).label == "chi_square(m=5)"


def test_derived_seed_coordinates():
    base = derived_seed(123, 0)
    assert derived_seed(123, 0) == base  # deterministic
    assert derived_seed(123, 1) != base
    assert derived_seed(124, 0) != base
    assert derived_seed(123, 0, 0) != base  # tuple length matters
    assert derived_seed(123, 0, 1) != derived_seed(123, 1, 0)
    with pytest.raises(ValueError):
        derived_seed(123)
