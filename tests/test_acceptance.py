"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines. The
heavier Monte Carlo criteria (3, 4, 5, 9) take a few seconds to a couple of
minutes each; everything is pinned to seed 20260815.

Criterion 3 is expected to fail and is marked xfail(strict=True): the
leading-bias formula in bias_interior does not describe this estimator's
actual bias. Exact gamma-moment algebra gives an O(b) bias of
b (f''(x)/2 + x f'''(x)/2); the implemented formula's O(b) term differs
because it drops the kernel's third central moment (2 x b^2, which feeds
the O(b) coefficient through the 1/b prefactor of the derivative kernel).
The Monte Carlo bias therefore sits ~100 standard errors from the
prediction at this scale. The criterion is implemented exactly as stated
and reports the honest numbers rather than being weakened to pass.
"""

import math
import subprocess
import sys

import numpy as np
import pytest

from gammakde.asymptotics import (
    MiseIntegrals,
    bandwidth_report,
    bias_boundary,
    global_bandwidth_plugin,
    mise_leading,
    pointwise_optimal,
)
from gammakde.harness import (
    ConvergenceConfig,
    ExperimentConfig,
    GridSpec,
    MomentCheckConfig,
    asymptotic_moment_check,
    convergence_study,
    run_experiment,
)
from gammakde.kernels import kernel_value, kernel_x_derivative
from gammakde.numerics import integrate_semi_infinite
from gammakde.refdens import MaxwellParams, ReferenceDensity, maxwell_reference
from gammakde.specfun import digamma, log_gamma, stirling_ratio

from oracles import minimize_scalar

SEED = 20260815
MAXWELL = MaxwellParams()


def report(criterion: str, ok: bool, detail: str) -> bool:
    print(f"{'PASS' if ok else 'FAIL'}: {criterion} -- {detail}")
    return ok


def test_criterion_01_bandwidth_constants():
    rep = bandwidth_report(maxwell_reference(), 2000)
    c = rep.constants
    checks = [
        ("numerator", c.numerator_27, 1.099, 0.005),
        ("denominator", c.denominator_27, 1.247, 0.005),
        ("n^(-2/7)", c.n_pow, 0.114, 0.001),
        ("b_plugin", rep.b_plugin, 0.1004, 0.002),
        ("residual b-coef", c.coef_b, 0.270, 0.003),
        ("b_refined", rep.b_refined, 0.1013, 0.005),
        ("b_chen", rep.b_chen, 0.0175, 0.0005),
    ]
    ok = all(abs(got - want) <= tol for _, got, want, tol in checks)
    detail = ", ".join(f"{name}={got:.6f}" for name, got, _, _ in checks)
    assert report("criterion 1 (bandwidth constants, n=2000)", ok, detail)
    for name, got, want, tol in checks:
        assert abs(got - want) <= tol, f"{name}: {got} vs {want} +/- {tol}"


def test_criterion_02_boundary_coefficient_exactly_minus_one_twelfth():
    # with f' == 1 and f'' == 0 the boundary bias at kappa = 2 is the bare
    # slope coefficient, which must be exactly -1/12
    unit_slope = ReferenceDensity(
        label="unit-slope",
        pdf=lambda x: np.ones_like(np.asarray(x, dtype=float)),
        d1=lambda x: np.ones_like(np.asarray(x, dtype=float)),
        d2=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
    )
    got = bias_boundary(unit_slope, 0.05, 2.0)
    ok = got == -1.0 / 12.0
    assert report(
        "criterion 2 (boundary coefficient at kappa=2)",
        ok,
        f"coefficient = {got!r}, want exactly {-1.0 / 12.0!r}",
    )


@pytest.mark.xfail(
    strict=True,
    reason="the implemented leading-bias formula misstates the O(b) term "
    "(it drops the kernel's third-moment contribution), so the Monte Carlo "
    "bias sits ~100 SE from the prediction; kept as an honest red",
)
def test_criterion_03_pointwise_bias_monte_carlo():
    cfg = MomentCheckConfig(
        distribution=MAXWELL, x_list=(1.0,), b=0.05, n=100_000, seed=SEED,
        replications=200,
    )
    row = asymptotic_moment_check(cfg).rows[0]
    empirical_bias = row.mc_mean - row.true_derivative
    se = math.sqrt(row.mc_variance / cfg.replications)
    ok = abs(row.bias_z) <= 3.0
    report(
        "criterion 3 (bias MC, x=1, b=0.05, n=1e5, 200 reps)",
        ok,
        f"empirical bias={empirical_bias:.6f}, predicted={row.predicted_bias:.6f}, "
        f"|diff|/SE={abs(row.bias_z):.1f} (SE={se:.2e}), need <= 3",
    )
    assert ok


def test_criterion_04_pointwise_variance_monte_carlo():
    cfg = MomentCheckConfig(
        distribution=MAXWELL, x_list=(1.0,), b=0.04, n=1000, seed=SEED,
        replications=500,
    )
    row = asymptotic_moment_check(cfg).rows[0]
    ok = abs(row.variance_ratio - 1.0) <= 0.15
    assert report(
        "criterion 4 (variance MC, x=1, b=0.04, n=1000, 500 reps)",
        ok,
        f"empirical/predicted variance = {row.variance_ratio:.4f}, need within 15%",
    )


def test_criterion_05_convergence_rate():
    cfg = ConvergenceConfig(
        distribution=MAXWELL,
        n_list=(500, 1000, 2000, 4000, 8000),
        seed=SEED,
        replications=200,
    )
    result = convergence_study(cfg)
    want = -4.0 / 7.0
    ok = abs(result.slope - want) <= 0.12
    assert report(
        "criterion 5 (MISE decay rate)",
        ok,
        f"fitted slope={result.slope:.4f}, want {want:.4f} +/- 0.12",
    )


def test_criterion_06_kernel_invariants():
    xs = (0.05, 0.3, 0.75, 1.5, 3.0)
    bs = (0.02, 0.05, 0.08, 0.2, 0.45)  # no x equals 2b on this grid
    h = 1e-6
    worst = {"mass": 0.0, "deriv_mass": 0.0, "fd": 0.0, "continuity": 0.0}
    for x in xs:
        for b in bs:
            mass = integrate_semi_infinite(lambda t: kernel_value(x, b, t), 1e-10)
            worst["mass"] = max(worst["mass"], abs(mass.value - 1.0))
            dmass = integrate_semi_infinite(
                lambda t: kernel_x_derivative(x, b, t), 1e-10, abs_tol=1e-8
            )
            worst["deriv_mass"] = max(worst["deriv_mass"], abs(dmass.value))
            for t in (0.5 * x, x, 1.5 * x + b):
                fd = (kernel_value(x + h, b, t) - kernel_value(x - h, b, t)) / (2.0 * h)
                if abs(fd) > 1e-8:
                    rel = abs(kernel_x_derivative(x, b, t) - fd) / abs(fd)
                    worst["fd"] = max(worst["fd"], rel)
    for b in bs:
        eps = 2.0 * b * 1e-8
        lo, hi = 2.0 * b - eps, 2.0 * b + eps
        for t in (0.5 * b, 2.0 * b, 5.0 * b):
            v_lo, v_hi = kernel_value(lo, b, t), kernel_value(hi, b, t)
            scale = max(abs(v_lo), abs(v_hi), 1e-12)
            worst["continuity"] = max(worst["continuity"], abs(v_hi - v_lo) / scale)
    ok = (
        worst["mass"] < 1e-8
        and worst["deriv_mass"] < 1e-6
        and worst["fd"] < 1e-5
        and worst["continuity"] < 1e-6
    )
    assert report(
        "criterion 6 (kernel invariants on 5x5 grid)",
        ok,
        f"worst |mass-1|={worst['mass']:.1e}, worst |deriv mass|="
        f"{worst['deriv_mass']:.1e}, worst FD rel={worst['fd']:.1e}, "
        f"worst branch jump={worst['continuity']:.1e}",
    )


def test_criterion_07_oracle_equivalence():
    ref = maxwell_reference()
    # global: closed form vs numeric minimum of the two leading MISE terms
    from gammakde.asymptotics import mise_integrals

    ints = mise_integrals(ref)
    two_term = MiseIntegrals(curvature=ints.curvature, mass=ints.mass, correction=0.0)
    b_closed = global_bandwidth_plugin(ref, 2000, integrals=two_term)
    b_numeric = minimize_scalar(
        lambda b: mise_leading(ref, b, 2000, integrals=two_term), 0.01, 1.0, 1e-10
    )
    global_rel = abs(b_closed - b_numeric) / b_numeric
    # pointwise: closed form vs numeric minimum of the two-term MSE
    pw = pointwise_optimal(ref, 1.0, 1000)
    from gammakde.asymptotics import curvature_term

    p = curvature_term(ref, 1.0)
    f = float(ref.pdf(1.0))
    b_pw_numeric = minimize_scalar(
        lambda b: (b * b / 16.0) * p + f * b**-1.5 / (4.0 * math.sqrt(math.pi) * 1000),
        0.01,
        0.5,
        1e-10,
    )
    pointwise_rel = abs(pw.b_opt - b_pw_numeric) / b_pw_numeric
    ok = global_rel <= 0.02 and pointwise_rel <= 1e-6
    assert report(
        "criterion 7 (closed forms vs numeric minimizers)",
        ok,
        f"global rel diff={global_rel:.2e} (need <=2%), "
        f"pointwise rel diff={pointwise_rel:.2e} (need <=1e-6)",
    )


def test_criterion_08_special_functions():
    zs = np.logspace(-2, 4, 61)
    worst_lg = max(
        abs(log_gamma(z + 1.0) - (log_gamma(z) + math.log(z)))
        / max(abs(log_gamma(z + 1.0)), 1.0)
        for z in zs
    )
    worst_dg = max(
        abs(digamma(z + 1.0) - (digamma(z) + 1.0 / z))
        / max(abs(digamma(z + 1.0)), 1.0)
        for z in zs
    )
    r = np.array([stirling_ratio(z) for z in np.logspace(-2, 6, 81)])
    monotone = bool(np.all(np.diff(r) > 0.0))
    bounded = bool(np.all(r < 1.0))
    limit = abs(stirling_ratio(1e6) - 1.0) < 1e-6
    ok = worst_lg < 1e-10 and worst_dg < 1e-10 and monotone and bounded and limit
    assert report(
        "criterion 8 (special functions)",
        ok,
        f"log-gamma recurrence worst={worst_lg:.1e}, digamma worst={worst_dg:.1e}, "
        f"stirling ratio monotone={monotone}, <1: {bounded}, ->1: {limit}",
    )


def test_criterion_09_directional_ise_comparison():
    cfg = ExperimentConfig(
        distribution=MAXWELL, n=2000, seed=SEED, replications=200,
        grid=GridSpec(),
    )
    rep = run_experiment(cfg)
    med_refined = rep.summary["refined"]["median"]
    med_chen = rep.summary["chen"]["median"]
    mean_plugin = rep.summary["plugin"]["mean"]
    ok = (
        med_refined < med_chen
        and med_refined < mean_plugin
        and 0.01 <= med_refined <= 0.10
    )
    assert report(
        "criterion 9 (directional ISE ordering, n=2000, 200 reps)",
        ok,
        f"median refined={med_refined:.6f} < median chen={med_chen:.6f} and "
        f"< mean plugin={mean_plugin:.6f}; in [0.01, 0.10]. Exact single-run "
        "values are not reproducible (the original seed is unreported); only "
        "this ordering and band are asserted",
    )


def test_criterion_10_byte_identical_reports_across_jobs(tmp_path):
    config = {
        "distribution": {"name": "maxwell", "sigma": 1.0},
        "n": 300,
        "seed": SEED,
        "replications": 24,
        "grid": {"min": 0.05, "max": 3.5, "points": 80},
    }
    cfg_path = tmp_path / "config.json"
    import json

    cfg_path.write_text(json.dumps(config))
    outs = {}
    for jobs in (1, 8):
        out = tmp_path / f"jobs{jobs}"
        proc = subprocess.run(
            [
                sys.executable, "-m", "gammakde.cli", "reproduce",
                "--config", str(cfg_path), "--out", str(out), "--jobs", str(jobs),
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        outs[jobs] = out
    names = sorted(p.name for p in outs[1].iterdir())
    assert names == sorted(p.name for p in outs[8].iterdir())
    same = all(
        (outs[1] / name).read_bytes() == (outs[8] / name).read_bytes()
        for name in names
    )
    assert report(
        "criterion 10 (determinism across --jobs 1 vs 8)",
        same,
        f"compared files: {', '.join(names)}",
    )
