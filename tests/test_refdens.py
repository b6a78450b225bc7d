"""Reference densities, analytic derivatives, exact samplers."""

import math
import random
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from gammakde.asymptotics import _integrals, bandwidth_report, curvature_term
from gammakde import asymptotics, refdens
from gammakde.numerics import IntegrationError, integrate_semi_infinite
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


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "sigma", [1e-100, 1e-40, 1e40, 1e44, 2e44, 1e65, 1e100, 1e200, 1e300]
)
def test_maxwell_scaling_past_the_float_range_of_sigma_powers(sigma):
    # f = phi(u)/sigma, f' = phi'(u)/sigma^2, f'' = phi''(u)/sigma^3 in
    # u = x/sigma, on both sides of where sigma^7 leaves the float range
    # (below about 1e-44 and above about 1.3e44).
    u = np.array([0.0, 0.25, 1.0, math.sqrt(2.0), 3.0, 8.0])
    unit = maxwell_pdf_derivs(MaxwellParams(), u)
    got = maxwell_pdf_derivs(MaxwellParams(sigma=sigma), u * sigma)
    for field, k in (("f", 1), ("d1", 2), ("d2", 3)):
        value, want = getattr(got, field), getattr(unit, field)
        assert np.isfinite(value).all()
        if 1e-300 < sigma**-k < 1e300:  # the scaled value is a normal float
            scaled = value
            for _ in range(k):
                scaled = scaled * sigma
            assert np.allclose(scaled, want, rtol=1e-14, atol=1e-15), field


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


def _float_arrays(elements, min_side=1):
    """Float arrays of 0 to 2 dimensions, 0-d ones included."""
    shapes = hnp.array_shapes(min_dims=0, max_dims=2, min_side=min_side, max_side=5)
    return hnp.arrays(np.float64, shapes, elements=elements)


_POSITIVE = st.floats(1e-3, 60.0)
_FAMILIES = st.one_of(
    st.builds(MaxwellParams, st.floats(0.05, 20.0)),
    st.builds(ChiSquareParams, st.integers(3, 200)),
)


@settings(max_examples=80, deadline=None)
@given(params=_FAMILIES, x=st.one_of(_POSITIVE, _float_arrays(_POSITIVE)))
def test_views_are_the_fields_of_one_closed_form(params, x):
    ref = reference_for(params)
    if isinstance(params, MaxwellParams):
        want = maxwell_pdf_derivs(params, x)
    else:
        want = chi_square_pdf_derivs(params, x)
    got = ref.derivs(x)
    for view, got_field, want_field in [
        (ref.pdf, got.f, want.f),
        (ref.d1, got.d1, want.d1),
        (ref.d2, got.d2, want.d2),
    ]:
        value = view(x)
        assert type(value) is (float if np.ndim(x) == 0 else np.ndarray)
        bits = [np.asarray(v).tobytes() for v in (value, got_field, want_field)]
        assert bits[0] == bits[1] == bits[2]


def _curvature_term_in_float_range(x):
    """curvature_term of Maxwell sigma = 1: finite values for an accepted x,
    or the float-range error naming its first element whose own value is not
    finite. A rejected x raises the domain error."""
    ref = maxwell_reference()
    try:
        out = curvature_term(ref, x)
    except ValueError as exc:
        named = re.fullmatch(r"curvature term at x=(.+) leaves the float range", str(exc))
        if named is None:
            raise
        values = np.asarray(x, dtype=float).ravel().tolist()
        firsts = [v for v in values if not _curvature_term_is_finite(ref, v)]
        assert firsts and named[1] == repr(firsts[0])
    else:
        assert np.isfinite(out).all()


def _curvature_term_is_finite(ref, v: float) -> bool:
    try:
        return math.isfinite(curvature_term(ref, v))
    except ValueError:
        return False


# Each domain check against the two-reduction form it replaced, with the
# message it raises.
_DOMAIN_CHECKS = [
    (
        lambda x: maxwell_pdf_derivs(MaxwellParams(), x),
        lambda a: np.any(a < 0.0) or not np.all(np.isfinite(a)),
        "maxwell_pdf_derivs requires finite x >= 0",
    ),
    (
        lambda x: chi_square_pdf_derivs(ChiSquareParams(4), x),
        lambda a: np.any(a <= 0.0) or not np.all(np.isfinite(a)),
        "chi_square_pdf_derivs requires finite x > 0",
    ),
    (
        _curvature_term_in_float_range,
        lambda a: np.any(a <= 0.0) or not np.all(np.isfinite(a)),
        "curvature_term requires finite x > 0",
    ),
]
_EDGE_VALUES = st.sampled_from(
    [math.nan, math.inf, -math.inf, -0.0, 0.0, -1.0, -5e-324, 5e-324, 1.0, 1e308]
)


@settings(max_examples=150, deadline=None)
@given(x=_float_arrays(st.one_of(_EDGE_VALUES, st.floats()), min_side=0))
@example(x=math.nan)
@example(x=math.inf)
@example(x=-math.inf)
@example(x=-0.0)
@example(x=0.0)
@example(x=-1.0)
@example(x=np.array([]))
@example(x=np.array(0.0))
@example(x=np.array([[1.0, -0.0], [2.0, 0.0]]))
@example(x=np.array([1.0, 5e-324, 1e-320]))
def test_domain_checks_accept_and_reject_as_before(x):
    for fn, old_rejects, message in _DOMAIN_CHECKS:
        # accepted extremes may overflow inside the formulas; only the check is tested
        with np.errstate(all="ignore"):
            if old_rejects(np.asarray(x, dtype=float)):
                with pytest.raises(ValueError) as exc_info:
                    fn(x)
                assert str(exc_info.value) == message
            else:
                fn(x)


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


def _across_chunks(width: int) -> list:
    """Sample sizes on either side of the sampler's first and second chunk boundary."""
    rows = refdens._CHUNK_NORMALS // width
    return [rows - 1, rows, rows + 1, 2 * rows + 1]


@pytest.mark.parametrize("seed", [1, 42, 20260815])
@pytest.mark.parametrize("n", [1, 7, 1000, 100_000, *_across_chunks(3)])
@pytest.mark.parametrize("sigma", [1e-3, 1.0, 10.0])
def test_maxwell_draws_equal_row_reduction(sigma, n, seed):
    want = sigma * np.sqrt(_old_formula_draws(3, n, seed))
    assert np.array_equal(sample(MaxwellParams(sigma=sigma), n, seed).values, want)


@pytest.mark.parametrize("seed", [1, 42])
@pytest.mark.parametrize(
    "m, n",
    [pytest.param(m, 1000, id=str(m)) for m in (3, 8, 50)]
    + [pytest.param(m, n, id=f"{m}-n{n}") for m in (3, 8, 50) for n in _across_chunks(m)]
    + [pytest.param(3, 100_000, id="3-n100000")],
)
def test_chi_square_draws_equal_row_reduction(m, n, seed):
    want = _old_formula_draws(m, n, seed)
    assert np.array_equal(sample(ChiSquareParams(m=m), n, seed).values, want)


class TestMemory:
    """The sampler holds its n draws and one chunk of normals, nothing sample-length more."""

    N = 100_000
    # The generator and its seed sequence, a few hundred bytes each.
    SMALL = 16 * 2**10

    @pytest.mark.parametrize(
        "params", [MaxwellParams(), ChiSquareParams(m=3), ChiSquareParams(m=50)],
        ids=["maxwell", "chi2-3", "chi2-50"],
    )
    def test_peak_is_the_draws_and_one_chunk(self, params):
        sample(params, 10, 1)  # numpy.random's lazy import is not the sampler's
        tracemalloc.start()
        try:
            sample(params, self.N, 4)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 8 * self.N + 8 * refdens._CHUNK_NORMALS + self.SMALL


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
    with pytest.raises(TypeError, match="unsupported distribution parameters"):
        sample(object(), 5, 1)


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
    with pytest.raises(TypeError, match="unsupported distribution parameters"):
        reference_for(object())


def test_derived_seed_coordinates():
    base = derived_seed(123, 0)
    assert derived_seed(123, 0) == base  # deterministic
    assert derived_seed(123, 1) != base
    assert derived_seed(124, 0) != base
    assert derived_seed(123, 0, 0) != base  # tuple length matters
    assert derived_seed(123, 0, 1) != derived_seed(123, 1, 0)
    with pytest.raises(ValueError):
        derived_seed(123)


# The exact selector sums are kept per process; these pin that keeping them
# changes no bit and no failure.
NAMES = ("curvature", "mass", "correction", "root_mass", "beta")
SWEEP = [(MaxwellParams(s), n) for s in (0.1, 1.0, 10.0) for n in (200, 2000)] + [
    (ChiSquareParams(m), n) for m in (3, 4, 6, 10, 50) for n in (200, 2000)
]
EXTRA = [MaxwellParams(s) for s in (1e-300, 1e-6, 1e6, 1e200)] + [
    ChiSquareParams(m) for m in (7, 1000, 1001, 2000, 100_000)
]
MEMOS = ("_maxwell_unit", "_chi_square_integral")


def _outcome(fn, *args) -> str:
    try:
        return repr(fn(*args))
    except (ArithmeticError, RuntimeError, ValueError) as exc:
        return f"{type(exc).__name__}: {exc}"


def _cases() -> list:
    cases = [(bandwidth_report, reference_for(p), n) for p, n in SWEEP]
    return cases + [(_integrals, reference_for(p), name) for p in EXTRA for name in NAMES]


def _clear_memos() -> None:
    for memo in MEMOS:
        getattr(asymptotics, memo).cache_clear()


@pytest.fixture(scope="module")
def unmemoized():
    """Every case's outcome with the exact algebra redone on each call."""
    patch = pytest.MonkeyPatch()
    for memo in MEMOS:
        patch.setattr(asymptotics, memo, getattr(asymptotics, memo).__wrapped__)
    try:
        return [_outcome(*case) for case in _cases()]
    finally:
        patch.undo()


@pytest.mark.parametrize("order_seed", range(4))
def test_memoized_sums_keep_every_bit_in_any_order(unmemoized, order_seed):
    cases = _cases()
    order = list(range(len(cases)))
    random.Random(order_seed).shuffle(order)
    _clear_memos()
    for _ in range(2):  # a cold cache, then a warm one
        got = {i: _outcome(*cases[i]) for i in order}
        assert [got[i] for i in range(len(cases))] == unmemoized


@pytest.mark.parametrize("m", [3, 4, 5])
def test_divergent_sums_raise_on_every_call(m):
    _clear_memos()
    outcomes = {
        name: [_outcome(_integrals, chi_square_reference(m), name) for _ in range(2)]
        for name in NAMES
    }
    assert all(first == second for first, second in outcomes.values())
    diverging = [n for n, (first, _) in outcomes.items() if "diverges at the origin" in first]
    assert "curvature" in diverging
    # Only the finite sums are kept.
    kept = asymptotics._chi_square_integral.cache_info().currsize
    assert kept == len(NAMES) - len(diverging)


def test_overflowing_maxwell_sum_raises_on_every_call():
    for _ in range(3):
        with pytest.raises(IntegrationError, match=(
            r"^the curvature integral overflows the float range at sigma=1e-300$"
        )):
            _integrals(maxwell_reference(1e-300), "curvature")
