"""Asymptotic bias/variance/MSE formulas and the three bandwidth rules.

Expected values were frozen from 40-digit mpmath evaluations of the same
closed forms, so these tests catch transcription and implementation slips
rather than re-deriving the formulas.
"""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gammakde.asymptotics import (
    MiseIntegrals,
    bandwidth_report,
    bias_boundary,
    bias_interior,
    chen_bandwidth,
    chen_constants,
    curvature_term,
    global_bandwidth_plugin,
    mise_integrals,
    mise_leading,
    mse_leading,
    pointwise_optimal,
    refined_bandwidth,
    squared_kernel_constant,
    variance_leading,
)
from gammakde import numerics, refdens
from gammakde.numerics import (
    DegenerateIntegralError,
    IntegrationError,
    NoRootError,
)
from gammakde.refdens import (
    ChiSquareParams,
    PdfDerivs,
    ReferenceDensity,
    _selector_integrals,
    chi_square_reference,
    maxwell_reference,
)

from conftest import quadrature_only, rel_err
from oracles import minimize_scalar, refined_scan, squared_kernel_constant_log_gamma

SQRT_PI = math.sqrt(math.pi)

# Maxwell sigma=1 global integrals
I_CURVATURE = 2.1666447201521474
I_MASS = 0.82217895866245855  # closed form sqrt(2/pi) 2^-0.25 Gamma(0.75)
I_CORRECTION = -0.86003998732451954
V_CHEN = 0.24261280114151914  # closed form sqrt(2/pi) 2^0.25 Gamma(1.25) / (2 sqrt(pi))
BETA_CHEN = 2.9796262381115879


def synthetic_reference(pdf, d1, d2, label="synthetic"):
    return ReferenceDensity(label, lambda x: PdfDerivs(pdf(x), d1(x), d2(x)))


EXP_REF = synthetic_reference(
    pdf=lambda x: np.exp(-x), d1=lambda x: -np.exp(-x), d2=lambda x: np.exp(-x)
)


class TestPointwise:
    def test_bias_interior_exponential(self):
        # b (f/(12 x^2) + f''/4) with f = f'' = e^-x
        want = 0.1 * math.exp(-1.0) * (1.0 / 12.0 + 1.0 / 4.0)
        assert rel_err(bias_interior(EXP_REF, 1.0, 0.1), want) < 1e-14

    def test_bias_interior_frozen(self, maxwell):
        assert rel_err(bias_interior(maxwell, 1.0, 0.05), -0.010082113521630973) < 1e-13
        assert rel_err(bias_interior(maxwell, 2.0, 0.1), -0.0044992472094323377) < 1e-13

    def test_bias_interior_domain(self, maxwell):
        with pytest.raises(ValueError):
            bias_interior(maxwell, 0.05, 0.1)  # x < 2 b
        with pytest.raises(ValueError):
            bias_interior(maxwell, 1.0, 0.0)
        bias_interior(maxwell, 0.2, 0.1)  # x = 2 b sits in the interior branch

    def test_underflowing_denominators_raise_naming_x(self, maxwell):
        # 12 x^2 and b^(3/2) sqrt(x) underflow to 0 here: a ValueError that
        # names x, not a ZeroDivisionError.
        with pytest.raises(ValueError, match=r"x=1e-300: x\^2 underflows"):
            bias_interior(maxwell, 1e-300, 1e-301)
        with pytest.raises(ValueError, match=r"x=1e-300, b=1e-301"):
            variance_leading(maxwell, 1e-300, 1e-301, 100)
        with pytest.raises(ValueError, match=r"x=1.0, b=1e-250"):
            variance_leading(maxwell, 1.0, 1e-250, 100)

    def test_bias_boundary_frozen(self, maxwell):
        assert rel_err(bias_boundary(maxwell, 0.05, 1.0), -0.0019152752776360668) < 1e-13
        assert rel_err(bias_boundary(maxwell, 0.05, 2.0), 0.16423167365834842) < 1e-13

    def test_bias_boundary_slope_coefficient_at_kappa_2(self):
        # with f' = 1 and f'' = 0 the kappa = 2 value is the bare slope
        # coefficient (3k^2 - 6k - 1)/(6k) = -1/12
        flat = synthetic_reference(
            pdf=lambda x: np.ones_like(np.asarray(x, dtype=float)),
            d1=lambda x: np.ones_like(np.asarray(x, dtype=float)),
            d2=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        )
        assert bias_boundary(flat, 0.07, 2.0) == -1.0 / 12.0

    def test_bias_boundary_domain(self, maxwell):
        for kappa in (0.0, -1.0, 2.5, math.inf):
            with pytest.raises(ValueError):
                bias_boundary(maxwell, 0.05, kappa)

    def test_variance_leading_frozen(self, maxwell):
        assert (
            rel_err(variance_leading(maxwell, 1.0, 0.04, 1000), 0.0085323351435752717)
            < 1e-13
        )
        assert (
            rel_err(variance_leading(maxwell, 2.0, 0.1, 500), 0.0014644334076758064)
            < 1e-13
        )

    def test_variance_scales_inversely_with_n(self, maxwell):
        v1 = variance_leading(maxwell, 1.0, 0.05, 100)
        v2 = variance_leading(maxwell, 1.0, 0.05, 1000)
        assert rel_err(v1, 10.0 * v2) < 1e-14

    def test_variance_domain(self, maxwell):
        with pytest.raises(ValueError):
            variance_leading(maxwell, 0.05, 0.1, 100)
        with pytest.raises(ValueError):
            variance_leading(maxwell, 1.0, 0.1, 0)

    def test_curvature_term_frozen(self, maxwell):
        assert rel_err(curvature_term(maxwell, 1.0), 0.65055368360354623) < 1e-13

    def test_curvature_term_array(self, maxwell):
        xs = np.array([0.5, 1.0, 2.0])
        vec = curvature_term(maxwell, xs)
        assert vec.shape == (3,)
        assert vec[1] == curvature_term(maxwell, 1.0)
        with pytest.raises(ValueError):
            curvature_term(maxwell, np.array([1.0, 0.0]))

    def test_mse_leading_frozen(self, maxwell):
        got = mse_leading(maxwell, 1.0, 0.04, 1000)
        assert rel_err(got, 0.0085973905119356264) < 1e-13
        # mse = squared-bias-rate + variance pieces by construction
        recon = (0.04**2 / 16.0) * curvature_term(maxwell, 1.0) + variance_leading(
            maxwell, 1.0, 0.04, 1000
        )
        assert rel_err(got, recon) < 1e-15

    def test_pointwise_optimal_frozen(self, maxwell):
        pw = pointwise_optimal(maxwell, 1.0, 1000)
        assert rel_err(pw.b_opt, 0.14840364605237812) < 1e-13
        assert rel_err(pw.mse_opt, 0.0020894360571322233) < 1e-13
        # n-free factor of b_opt
        assert rel_err(pw.b_opt * 1000 ** (2.0 / 7.0), 1.068039778850305) < 1e-13

    def test_pointwise_optimal_matches_numeric_minimum(self, maxwell):
        # minimize the same two-term objective the closed form balances
        pw = pointwise_optimal(maxwell, 1.0, 1000)
        p = curvature_term(maxwell, 1.0)
        f = float(maxwell.pdf(1.0))

        def two_term(b: float) -> float:
            return (b * b / 16.0) * p + f * b**-1.5 / (4.0 * SQRT_PI * 1000)

        b_num = minimize_scalar(two_term, 0.01, 0.5, 1e-10)
        assert rel_err(pw.b_opt, b_num) < 1e-6

    def test_pointwise_optimal_domain(self, maxwell):
        with pytest.raises(ValueError):
            pointwise_optimal(maxwell, 0.0, 100)
        with pytest.raises(ValueError):
            pointwise_optimal(maxwell, 1.0, -5)
        # f(100) underflows to 0 for sigma = 1
        with pytest.raises(ValueError, match="degenerate curvature or density"):
            pointwise_optimal(maxwell, 100.0, 200)


class TestSquaredKernelConstant:
    def test_frozen_value_both_routes(self):
        want = 185.4705810546875
        assert rel_err(squared_kernel_constant(1.0, 0.1), want) < 1e-13
        assert rel_err(squared_kernel_constant_log_gamma(1.0, 0.1), want) < 1e-13

    def test_routes_agree_on_grid(self):
        # x / b <= 125, where the log-gamma route's cancellation stays small
        for x in (0.3, 1.0, 2.5):
            for b in (0.02, 0.1, 0.4):
                a = squared_kernel_constant(x, b)
                c = squared_kernel_constant_log_gamma(x, b)
                assert rel_err(a, c) < 1e-12, (x, b)

    def test_large_ratio_and_float_range(self):
        # B sqrt(pi) b^{5/2} sqrt(x) = 1 + 3 / (8 rho) + O(rho^-2); the
        # cancelling log-gamma form is 5e-9 off already at rho = 1e6.
        for rho in (1e6, 1e8, 1e12, 1e100):
            got = squared_kernel_constant(rho, 1.0) * SQRT_PI * math.sqrt(rho)
            assert rel_err(got, 1.0 + 3.0 / (8.0 * rho)) < 1e-12, rho
        for x, b in ((1.0, 1e-130), (1e-300, 1e-300)):  # B overflows
            with pytest.raises(ValueError, match="leaves the float range"):
                squared_kernel_constant(x, b)

    def test_quadrature_route(self):
        # (2 / b^2) * integral of the squared interior kernel
        from gammakde.kernels import kernel_value
        from gammakde.numerics import integrate_semi_infinite

        x, b = 1.0, 0.1
        r = integrate_semi_infinite(lambda t: kernel_value(x, b, t) ** 2, 1e-11)
        assert rel_err(2.0 * r.value / (b * b), 185.4705810546875) < 1e-9

    def test_scale_free_identity(self):
        # B(k b, b) b^3 depends only on k = x / b
        for k, want in ((1.0, 1.0), (2.0, 0.5)):
            for b in (0.01, 0.1, 0.7):
                got = squared_kernel_constant(k * b, b) * b**3
                assert rel_err(got, want) < 1e-12, (k, b)

    def test_asymptote(self):
        # B sqrt(pi) b^{5/2} sqrt(x) -> 1 as x/b grows, monotonically here
        b = 1.0
        ratios = [
            squared_kernel_constant(rho * b, b) * SQRT_PI * b**2.5 * math.sqrt(rho * b)
            for rho in (1e2, 1e3, 1e4)
        ]
        assert ratios[0] > ratios[1] > ratios[2] > 1.0
        assert abs(ratios[2] - 1.0) < 1e-3
        assert rel_err(
            1.0 / (SQRT_PI * 0.1**2.5), 178.41241161527711 * SQRT_PI / SQRT_PI
        ) < 1e-13

    def test_domain(self):
        with pytest.raises(ValueError):
            squared_kernel_constant(0.04, 0.1)  # x <= b / 2
        with pytest.raises(ValueError):
            squared_kernel_constant(1.0, -0.1)


@pytest.fixture
def counts(monkeypatch):
    """Counts of closed-form evaluations and of integrand calls."""
    counts = {"closed_form": 0, "integrand": 0}
    for name in ("maxwell_pdf_derivs", "chi_square_pdf_derivs"):
        closed_form = getattr(refdens, name)

        def counted(params, x, closed_form=closed_form):
            counts["closed_form"] += 1
            return closed_form(params, x)

        monkeypatch.setattr(refdens, name, counted)
    quad = numerics.integrate_semi_infinite

    def counting_quad(g, *args, **kwargs):
        def counted_g(t):
            counts["integrand"] += 1
            return g(t)

        return quad(counted_g, *args, **kwargs)

    monkeypatch.setattr(numerics, "integrate_semi_infinite", counting_quad)
    return counts


class TestGlobalIntegrals:
    def test_maxwell_frozen(self, maxwell_integrals):
        assert rel_err(maxwell_integrals.curvature, I_CURVATURE) < 1e-9
        assert rel_err(maxwell_integrals.mass, I_MASS) < 1e-9
        assert rel_err(maxwell_integrals.correction, I_CORRECTION) < 1e-9

    def test_maxwell_mass_closed_form(self, maxwell_integrals):
        closed = math.sqrt(2.0 / math.pi) * 2.0**-0.25 * math.gamma(0.75)
        assert rel_err(maxwell_integrals.mass, closed) < 1e-10

    def test_chi_square_6_frozen(self):
        ints = mise_integrals(chi_square_reference(6))
        assert rel_err(ints.curvature, 35.0 / 4608.0) < 1e-9
        assert rel_err(ints.mass, 0.15666426716443753) < 1e-9
        assert rel_err(ints.correction, -0.078332133582218766) < 1e-9

    def test_chi_square_3_mass_diverges(self):
        # x^{-3/2} f(x) ~ x^{-1} near 0: log-divergent
        with pytest.raises(IntegrationError):
            mise_integrals(chi_square_reference(3))

    def test_chi_square_2_diverges(self):
        # exponential-shaped density, f(0) > 0, built by hand since the
        # parameter container deliberately rejects m = 2
        exp_half = synthetic_reference(
            pdf=lambda x: 0.5 * np.exp(-0.5 * np.asarray(x, dtype=float)),
            d1=lambda x: -0.25 * np.exp(-0.5 * np.asarray(x, dtype=float)),
            d2=lambda x: 0.125 * np.exp(-0.5 * np.asarray(x, dtype=float)),
        )
        with pytest.raises(IntegrationError):
            mise_integrals(exp_half)

    def test_chen_constants_frozen(self, maxwell):
        v, beta = chen_constants(maxwell)
        assert rel_err(v, V_CHEN) < 1e-9
        assert rel_err(beta, BETA_CHEN) < 1e-9

    def test_chen_v_closed_form(self, maxwell):
        v, _ = chen_constants(maxwell)
        closed = (
            math.sqrt(2.0 / math.pi) * 2.0**0.25 * math.gamma(1.25) / (2.0 * SQRT_PI)
        )
        assert rel_err(v, closed) < 1e-10

    def test_chen_beta_diverges_for_chi_square_3(self):
        with pytest.raises(IntegrationError):
            chen_constants(chi_square_reference(3))

    @pytest.mark.parametrize("m", [3, 4, 5])
    def test_origin_divergence_is_named(self, counts, m):
        # The curvature integral's origin panel grows by a steady ratio as
        # bisection halves it, which stops the quadrature after a few calls.
        with pytest.raises(IntegrationError) as exc_info:
            bandwidth_report(quadrature_only(chi_square_reference(m)), 200)
        assert type(exc_info.value) is IntegrationError
        assert re.fullmatch(
            r"the panel on \(0\.0, [\d.e-]+\) grows as it halves; "
            "the integral diverges at the origin",
            str(exc_info.value),
        )
        assert counts["integrand"] <= 32

    # The powers of x at the origin of the closed forms' divergent integrals:
    # m = 3 all but root_mass, m = 4 the curvature, m = 5 the curvature and
    # the correction, whose x^-3/2 coefficient 1 - a vanishes at m = 4.
    @pytest.mark.parametrize(
        "m, diverging",
        [
            (3, {"curvature": -3, "mass": -1, "correction": -2, "beta": -1}),
            (4, {"curvature": -2}),
            (5, {"curvature": -1, "correction": -1}),
            (6, {}),
        ],
    )
    def test_closed_form_divergence_is_named(self, counts, m, diverging):
        for name in ("curvature", "mass", "correction", "root_mass", "beta"):
            if name not in diverging:
                [value] = _selector_integrals(ChiSquareParams(m), name)
                assert math.isfinite(value) and value != 0.0, name
                continue
            with pytest.raises(IntegrationError) as exc_info:
                _selector_integrals(ChiSquareParams(m), name)
            assert type(exc_info.value) is IntegrationError
            assert str(exc_info.value) == (
                f"the {name} integral diverges at the origin like x^{diverging[name]}"
            )
        if diverging:
            with pytest.raises(IntegrationError) as exc_info:
                bandwidth_report(chi_square_reference(m), 200)
            assert type(exc_info.value) is IntegrationError
            assert str(exc_info.value).startswith("the curvature integral diverges")
        assert counts == {"closed_form": 0, "integrand": 0}

    @pytest.mark.parametrize("sigma", [1e-4, 1e-3, 1e-2, 0.1, 1.0, 10.0, 1e3])
    def test_maxwell_integrals_never_look_divergent(self, sigma):
        # The origin panel grows while bisection is above the scale sigma,
        # but by a changing ratio, so the divergence rule must not fire.
        ref = quadrature_only(maxwell_reference(sigma))
        mise_integrals(ref)
        chen_constants(ref)


# 40-digit mpmath quadratures of (curvature, mass, correction, V, beta),
# written out from the integrands, not from the closed forms.
MAXWELL_MPMATH = {
    1e-06: (
        2.166644720152147897739711396191323451774e+30,
        8.22178958662458608144330215358804609551e+8,
        -8.600399873245196326722867865569920140831e+14,
        2.426128011415191417008467774052370571357e+2,
        2.979626238111588294945684586597703097883e+18,
    ),
    3e-05: (
        8.916233416263979971460638524377353707724e+22,
        5.003621799617067002144117291913603832256e+6,
        -1.744678894126283172933319831695567668752e+11,
        4.429483464157504809816833031055138888217e+1,
        1.103565273374662097772328163193402177028e+14,
    ),
    1.0: (
        2.166644720152147407515888449396578055359,
        8.221789586624585523366047706045133462976e-1,
        -8.600399873245195353762035182012082683163e-1,
        2.426128011415191362115031039729775712269e-1,
        2.979626238111587890444544603555330218989,
    ),
    1000000.0: (
        2.166644720152147407515890237949605124405e-30,
        8.221789586624585523366047706045133462976e-10,
        -8.600399873245195353762035182468532201973e-16,
        2.426128011415191362115031039729775712269e-4,
        2.979626238111587890444544603555330218989e-18,
    ),
}
CHI_SQUARE_MPMATH = {
    6: (
        7.595486111111111111111111111111111111111e-3,
        1.566642671644375314009853303006903283129e-1,
        -7.833213358221876570049264850236202643756e-2,
        1.325825214724776608251583178946591948659e-1,
        1.953125e-2,
    ),
    7: (
        2.185924372712760012875101071011385527942e-3,
        1.063846081070487141173189493158351649269e-1,
        -2.659615202676217852932973732895879123172e-2,
        1.200421754876141426073598921342320776886e-1,
        1.72417855016219947082957410320223892204e-2,
    ),
    10: (
        3.571686921296296296296296296296296296296e-4,
        4.895758348888672856280791571896572759779e-2,
        -4.895758348888672856280791571896572759779e-3,
        9.667475524034829435167794013152232958972e-2,
        1.3427734375e-2,
    ),
    50: (
        2.496900172583348900818805121809196165026e-6,
        3.055059947098034202894141949529538485383e-3,
        -3.394511052331149114326824388366153872648e-5,
        4.050537548276675134680476690391905938002e-2,
        5.408392082884017071364723960869014263153e-3,
    ),
    200: (
        6.880058075854316280152717867158870638278e-8,
        3.60290515310189460720436201877102066376e-4,
        -9.238218341286909249241953894284668368616e-7,
        2.002230734522263678480206714620443986756e-2,
        2.659099716019804126148604409467777392868e-3,
    ),
    2000: (
        2.09901474887090990637553185988052661065e-10,
        1.12013367048211144187801410068721598407e-5,
        -2.807352557599276796686752132048160361077e-9,
        6.310197974435214403961181855297394218884e-3,
        8.367616049039095303127472825933116047338e-4,
    ),
}


def _closed_forms(ref) -> tuple:
    ints = mise_integrals(ref)
    return (ints.curvature, ints.mass, ints.correction, *chen_constants(ref))


class TestClosedForms:
    """The built-in families' selector integrals against independent routes."""

    @pytest.mark.parametrize("sigma", list(MAXWELL_MPMATH))
    def test_maxwell_matches_mpmath(self, sigma):
        for got, want in zip(_closed_forms(maxwell_reference(sigma)), MAXWELL_MPMATH[sigma]):
            assert rel_err(got, want) <= 1e-14, (got, want)

    # m = 2000 takes the large-m series of the Gamma ratio.
    @pytest.mark.parametrize("m", list(CHI_SQUARE_MPMATH))
    def test_chi_square_matches_mpmath(self, m):
        for got, want in zip(_closed_forms(chi_square_reference(m)), CHI_SQUARE_MPMATH[m]):
            assert rel_err(got, want) <= 1e-14, (got, want)

    @pytest.mark.parametrize(
        "ref",
        [maxwell_reference(s) for s in (1e-4, 1e-3, 0.1, 1.0, 10.0, 1e3, 1e6)]
        + [chi_square_reference(m) for m in (6, 7, 10, 50, 200)],
        ids=lambda r: r.label,
    )
    def test_quadrature_agrees(self, ref):
        # Quadrature reaches its 1e-10 target here; below sigma = 1e-4 its
        # nodes miss the density and it returns 0 (see
        # test_refined_narrow_maxwell_is_degenerate).
        for got, want in zip(_closed_forms(quadrature_only(ref)), _closed_forms(ref)):
            assert rel_err(got, want) <= 1e-10, (got, want)

    @given(st.floats(min_value=-6.0, max_value=6.0))
    @settings(max_examples=200, deadline=None)
    def test_selectors_scale_with_sigma(self, log10_sigma):
        sigma = 10.0**log10_sigma
        ref, unit = maxwell_reference(sigma), maxwell_reference()
        for n in (200, 2000):
            plugin = global_bandwidth_plugin(ref, n)
            assert rel_err(plugin, sigma * global_bandwidth_plugin(unit, n)) <= 1e-12
            assert rel_err(chen_bandwidth(ref, n), sigma * chen_bandwidth(unit, n)) <= 1e-12


# The distributions of the benchmark's selector sweep.
SWEEP_REFERENCES = [maxwell_reference(s) for s in (0.1, 1.0, 10.0)] + [
    chi_square_reference(m) for m in (3, 4, 6, 10, 50)
]


class TestOneClosedFormEvaluationPerCall:
    """Every integrand and pointwise formula evaluates ref.derivs exactly once."""

    @pytest.mark.parametrize("ref", SWEEP_REFERENCES, ids=lambda r: r.label)
    def test_bandwidth_report(self, counts, ref):
        for n in (200, 2000):
            try:
                bandwidth_report(quadrature_only(ref), n)
            except (IntegrationError, NoRootError):
                pass  # the sweep's known failures; the calls made still count
        assert counts["integrand"] > 0
        assert counts["closed_form"] == counts["integrand"]

    @pytest.mark.parametrize("ref", SWEEP_REFERENCES, ids=lambda r: r.label)
    def test_bandwidth_report_of_a_built_in_family(self, counts, ref):
        # The selector integrals are closed forms: no integrand, no derivs.
        for n in (200, 2000):
            try:
                bandwidth_report(ref, n)
            except (IntegrationError, NoRootError):
                pass
        assert counts == {"closed_form": 0, "integrand": 0}

    def test_pointwise(self, counts):
        ref = maxwell_reference()
        for fn, args in [
            (curvature_term, (1.0,)),
            (curvature_term, (np.linspace(0.5, 2.0, 4),)),
            (bias_interior, (1.0, 0.1)),
            (bias_boundary, (0.1, 1.5)),
            (variance_leading, (1.0, 0.1, 200)),
            (pointwise_optimal, (1.0, 200)),
        ]:
            before = counts["closed_form"]
            fn(ref, *args)
            assert counts["closed_form"] - before == 1, fn.__name__


class TestMiseAndSelectors:
    def test_mise_leading_frozen(self, maxwell, maxwell_integrals):
        got = mise_leading(maxwell, 0.1, 2000, integrals=maxwell_integrals)
        assert rel_err(got, 0.0030918384548838355) < 1e-9
        got = mise_leading(maxwell, 0.05, 500, integrals=maxwell_integrals)
        assert rel_err(got, 0.020540704217178877) < 1e-9

    def test_plugin_frozen(self, maxwell, maxwell_integrals):
        b200 = global_bandwidth_plugin(maxwell, 200, integrals=maxwell_integrals)
        b2000 = global_bandwidth_plugin(maxwell, 2000, integrals=maxwell_integrals)
        assert rel_err(b200, 0.19392202454503515) < 1e-9
        assert rel_err(b2000, 0.1004414215876263) < 1e-9

    def test_plugin_matches_numeric_two_term_minimum(self, maxwell, maxwell_integrals):
        ints = MiseIntegrals(
            curvature=maxwell_integrals.curvature,
            mass=maxwell_integrals.mass,
            correction=0.0,
        )
        b_num = minimize_scalar(
            lambda b: mise_leading(maxwell, b, 2000, integrals=ints), 0.01, 1.0, 1e-10
        )
        b_closed = global_bandwidth_plugin(maxwell, 2000, integrals=ints)
        assert rel_err(b_closed, b_num) < 1e-6

    def test_plugin_n_scaling_is_exact(self, maxwell, maxwell_integrals):
        # 128^{2/7} = 4, so quadrupling resolution takes a 128-fold sample
        b1 = global_bandwidth_plugin(maxwell, 100, integrals=maxwell_integrals)
        b2 = global_bandwidth_plugin(maxwell, 12800, integrals=maxwell_integrals)
        assert rel_err(b1, 4.0 * b2) < 1e-12

    def test_refined_frozen(self, maxwell, maxwell_integrals):
        r200 = refined_bandwidth(maxwell, 200, integrals=maxwell_integrals)
        r2000 = refined_bandwidth(maxwell, 2000, integrals=maxwell_integrals)
        assert rel_err(r200.b_refined, 0.19579067180057359) < 1e-9
        assert rel_err(r2000.b_refined, 0.10094331611016391) < 1e-9
        for r, n in ((r200, 200), (r2000, 2000)):
            assert abs(r.residual(r.b_refined)) < 1e-10
            assert r.b_refined in r.roots

    def test_refined_close_to_plugin(self, maxwell, maxwell_integrals):
        # the correction term is a small perturbation at these sizes
        for n in (200, 2000):
            b0 = global_bandwidth_plugin(maxwell, n, integrals=maxwell_integrals)
            b1 = refined_bandwidth(maxwell, n, integrals=maxwell_integrals).b_refined
            assert abs(b1 - b0) / b0 < 0.02

    def test_refined_no_root(self, maxwell):
        with pytest.raises(NoRootError):
            refined_bandwidth(
                maxwell, 100, integrals=MiseIntegrals(1.0, 0.0, 1.0)
            )

    def test_refined_degenerate_curvature(self, maxwell):
        # All-zero integrals make the residual identically zero, so every
        # scan edge would pass for a root.
        for ints in (MiseIntegrals(0.0, 0.0, 0.0), MiseIntegrals(-1.0, 1.0, 1.0)):
            with pytest.raises(DegenerateIntegralError):
                refined_bandwidth(maxwell, 100, integrals=ints)

    def test_negative_mass_is_degenerate(self):
        # A caller's integrals with mass < 0 once gave a complex plug-in
        # bandwidth and a NoRootError from the refined rule.
        ints = MiseIntegrals(1.0, -1.0, 0.0)
        with pytest.raises(DegenerateIntegralError, match="negative mass.*plug-in"):
            global_bandwidth_plugin(None, 100, integrals=ints)
        with pytest.raises(DegenerateIntegralError, match="negative mass.*refined"):
            refined_bandwidth(None, 100, integrals=ints)
        # the curvature check runs first
        with pytest.raises(DegenerateIntegralError, match="curvature"):
            global_bandwidth_plugin(None, 100, integrals=MiseIntegrals(0.0, -1.0, 0.0))

    def test_zero_mass_plugin_is_degenerate(self):
        # mass = 0 once gave a plug-in bandwidth of 0.0 with no error; the
        # refined rule finds no root for the same integrals, and says so.
        ints = MiseIntegrals(1.0, 0.0, 0.0)
        with pytest.raises(DegenerateIntegralError, match="zero plug-in bandwidth"):
            global_bandwidth_plugin(None, 100, integrals=ints)
        with pytest.raises(NoRootError):
            refined_bandwidth(None, 100, integrals=ints)

    def test_mise_leading_checks_signs(self):
        # A negative mass once gave a negative leading MISE (-0.04398).
        with pytest.raises(DegenerateIntegralError, match="negative mass.*leading MISE"):
            mise_leading(None, 0.1, 100, integrals=MiseIntegrals(1.0, -1.0, 0.0))
        with pytest.raises(DegenerateIntegralError, match="curvature.*leading MISE"):
            mise_leading(None, 0.1, 100, integrals=MiseIntegrals(0.0, 1.0, 0.0))

    def test_overflowing_plugin_ratio_is_degenerate(self):
        # 3 mass / (sqrt(pi) curvature) overflowed, and the rule returned inf.
        ints = MiseIntegrals(5e-324, 1.0, 0.0)
        with pytest.raises(DegenerateIntegralError, match="not finite.*plug-in"):
            global_bandwidth_plugin(None, 100, integrals=ints)

    def test_negative_variance_part_is_degenerate(self):
        # mass + (b/2) correction < 0 once gave a negative leading MISE (-0.0016).
        ints = MiseIntegrals(1.0, 0.0, -1.0)
        with pytest.raises(DegenerateIntegralError, match="negative variance.*leading MISE"):
            mise_leading(None, 0.1, 100, integrals=ints)
        # mass alone keeps the variance part positive at the same b
        assert mise_leading(None, 0.1, 100, integrals=MiseIntegrals(1.0, 1.0, -1.0)) > 0.0

    def test_refined_narrow_maxwell_is_degenerate(self):
        # Quadrature puts every node of sigma = 3e-5 where f = 0, so the
        # integrals come out 0; the closed forms have no such defect.
        narrow = quadrature_only(maxwell_reference(sigma=3e-5))
        with pytest.raises(DegenerateIntegralError, match="refined"):
            refined_bandwidth(narrow, 100)

    def test_refined_narrow_maxwell_has_no_root_in_window(self):
        # The plug-in b is 5.8e-6, below the refined rule's scan window.
        with pytest.raises(NoRootError, match=r"no sign change on \(0\.0001, 1\)"):
            refined_bandwidth(maxwell_reference(sigma=3e-5), 100)

    def test_chen_frozen(self, maxwell):
        assert rel_err(chen_bandwidth(maxwell, 200), 0.04404420451736353) < 1e-9
        assert rel_err(chen_bandwidth(maxwell, 2000), 0.017534313639687157) < 1e-9

    def test_chen_n_scaling_is_exact(self, maxwell):
        # 32^{2/5} = 4
        b1 = chen_bandwidth(maxwell, 100)
        b2 = chen_bandwidth(maxwell, 3200)
        assert rel_err(b1, 4.0 * b2) < 1e-10

    def test_chen_zero_beta_is_degenerate(self):
        # beta scales as sigma^-3 and underflows to 0 at sigma = 1e110.
        with pytest.raises(DegenerateIntegralError, match="beta = 0"):
            chen_bandwidth(maxwell_reference(1e110), 200)

    def test_integrals_caching_consistent(self, maxwell, maxwell_integrals):
        direct = global_bandwidth_plugin(maxwell, 500)
        cached = global_bandwidth_plugin(maxwell, 500, integrals=maxwell_integrals)
        assert rel_err(direct, cached) < 1e-12

    def test_bandwidth_report(self, maxwell):
        rep = bandwidth_report(maxwell, 2000)
        assert rep.n == 2000
        assert rel_err(rep.b_plugin, 0.1004414215876263) < 1e-9
        assert rel_err(rep.b_refined, 0.10094331611016391) < 1e-9
        assert rel_err(rep.b_chen, 0.017534313639687157) < 1e-9
        c = rep.constants
        assert rel_err(c.numerator_27, 1.0990150047226753) < 1e-9
        assert rel_err(c.denominator_27, 1.2472093089062797) < 1e-9
        assert rel_err(c.n_pow, 0.11398522810475967) < 1e-13
        assert rel_err(c.coef_b, 0.27083059001901843) < 1e-9
        assert rel_err(c.numerator_27 / c.denominator_27 * c.n_pow, rep.b_plugin) < 1e-12
        assert rel_err(c.V, V_CHEN) < 1e-9
        assert rel_err(c.beta, BETA_CHEN) < 1e-9

    def test_other_references_frozen(self):
        chi6 = chi_square_reference(6)
        assert rel_err(global_bandwidth_plugin(chi6, 2000), 0.31455347385850402) < 1e-9
        wide = maxwell_reference(sigma=2.0)
        ints = mise_integrals(wide)
        assert rel_err(ints.curvature, 0.067707647504754606) < 1e-9
        assert rel_err(ints.mass, 0.29068415850955929) < 1e-9
        assert rel_err(global_bandwidth_plugin(wide, 2000), 0.2008828431752526) < 1e-9


def _scan_cases():
    """Hand-built integrals: curvature, mass > 0, correction of both signs."""
    rng = np.random.default_rng(20261018)
    for _ in range(400):
        ints = MiseIntegrals(
            curvature=10.0 ** rng.uniform(-3, 3),
            mass=10.0 ** rng.uniform(-3, 3),
            correction=rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-3, 3),
        )
        yield ints, int(round(10.0 ** rng.uniform(0, 6)))
    for n in (1, 10**6):
        for correction in (-0.86, 0.0, 0.86):
            yield MiseIntegrals(2.17, 0.822, correction), n


class TestRefinedSingleRoot:
    """The binary search for the one sign change against a scan of all 200
    brackets that bisects every sign change and keeps the lowest-MISE root."""

    def test_matches_full_scan_bit_for_bit(self):
        in_window = 0
        for ints, n in _scan_cases():
            try:
                best, roots = refined_scan(ints, n)
            except NoRootError as want:
                with pytest.raises(NoRootError) as got:
                    refined_bandwidth(EXP_REF, n, integrals=ints)
                assert str(got.value) == str(want)
                continue
            in_window += 1
            assert len(roots) == 1, (ints, n, roots)
            r = refined_bandwidth(EXP_REF, n, integrals=ints)
            assert r.b_refined == best, (ints, n)
            assert r.roots == roots
        assert in_window >= 300

    @pytest.mark.parametrize(
        "edge, ints",
        [
            (0, MiseIntegrals(2.0, 1.1666678483025674e-05, 0.7)),
            (1, MiseIntegrals(2.0, 1.3883011304480299e-11, 0.0)),
            (57, MiseIntegrals(2.0, 1.1547385836875555e-07, 0.0)),
            (199, MiseIntegrals(2.0, 1005.735262309312, 0.0)),
            (200, MiseIntegrals(2.0, 1181.6359006036773, 0.0)),
        ],
    )
    def test_residual_zero_on_a_scan_edge(self, edge, ints):
        # The mass is tuned so that the residual is exactly 0.0 on one edge,
        # which both searches must return as the root.
        edges = np.logspace(-4.0, 0.0, 201)
        r = refined_bandwidth(EXP_REF, 1000, integrals=ints)
        assert r.residual(edges[edge]) == 0.0
        assert r.b_refined == edges[edge]
        assert refined_scan(ints, 1000) == (r.b_refined, r.roots)

    @pytest.mark.parametrize(
        "ints, n, message",
        [
            (  # root below 1e-4
                MiseIntegrals(1e3, 1e-6, 0.0),
                10**6,
                "stationarity residual has no sign change on (0.0001, 1): "
                "endpoints 1.038429e-02 and 1.250000e+02",
            ),
            (  # root above 1
                MiseIntegrals(1e-3, 1e3, 0.0),
                1,
                "stationarity residual has no sign change on (0.0001, 1): "
                "endpoints -2.115711e+12 and -2.115710e+02",
            ),
            (
                MiseIntegrals(1e-3, 1e3, 2.0),
                1,
                "stationarity residual has no sign change on (0.0001, 1): "
                "endpoints -2.115711e+12 and -2.115004e+02",
            ),
        ],
    )
    def test_root_outside_window(self, ints, n, message):
        for search in (
            lambda: refined_bandwidth(EXP_REF, n, integrals=ints),
            lambda: refined_scan(ints, n),
        ):
            with pytest.raises(NoRootError) as got:
                search()
            assert str(got.value) == message
