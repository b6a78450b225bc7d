"""Golden quadrature results, byte for byte.

Every line of tests/data/quadrature_golden.txt is the repr of one
QuadratureResult, or the class, message and partial result of one failure.
The lines cover:

- every quadrature that mise_integrals and chen_constants run for Maxwell
  and chi-square densities across scales, with their outcomes and the
  bandwidth_report outcomes at n = 200 and 2000. The references are built
  without params, so the selectors integrate them by quadrature instead of
  using the families' closed forms;
- direct integrands at four tolerances, with and without abs_tol. Among them
  are integrable and non-integrable endpoint singularities (x^-1 at the
  border of divergence, x^-0.99 just inside it), a divergent tail,
  non-finite values at the origin and in the tail, subnormal and near-overflow
  panel values, and panel sums and totals that overflow.

A change that is meant to move these results regenerates the file with

    PYTHONPATH=src python tests/test_quadrature_golden.py

and says in its change log which lines moved and why.
"""

import math
from pathlib import Path

import numpy as np

from gammakde import (
    bandwidth_report,
    chen_constants,
    chi_square_reference,
    maxwell_reference,
    mise_integrals,
    numerics,
)
from gammakde.kernels import kernel_x_derivative

from conftest import quadrature_only

GOLDEN = Path(__file__).with_name("data") / "quadrature_golden.txt"

REFERENCES = [("maxwell", s, maxwell_reference) for s in
              (3e-5, 1e-4, 1e-3, 0.1, 0.5, 1.0, 3.0, 10.0, 1000.0)] + [
    ("chi_square", m, chi_square_reference) for m in (3, 4, 5, 6, 7, 10, 50, 200)
]

_C_MAXWELL = math.sqrt(2.0 / math.pi)


def _interior_singularity(x):
    # tight tolerances put a node on 1/3 itself, where the value is inf
    with np.errstate(divide="ignore"):
        return np.abs(x - 1.0 / 3.0) ** -0.5 * np.exp(-x)


INTEGRANDS = {
    "exp(-x)": lambda x: np.exp(-x),
    "x^2 exp(-x)": lambda x: x * x * np.exp(-x),
    "maxwell mass": lambda x: x**-1.5 * _C_MAXWELL * x * x * np.exp(-x * x / 2.0),
    "x^-0.5 exp(-x) (integrable at 0)": lambda x: x**-0.5 * np.exp(-x),
    "|x-1/3|^-0.5 exp(-x) (interior singularity)": _interior_singularity,
    "sin(3x) exp(-x/4)": lambda x: np.sin(3.0 * x) * np.exp(-x / 4.0),
    "1e-310 exp(-x) (subnormal)": lambda x: 1e-310 * np.exp(-x),
    "1/x (divergent tail)": lambda x: 1.0 / x,
    "x^-1.5 exp(-x) (divergent at 0)": lambda x: x**-1.5 * np.exp(-x),
    "x^-1 exp(-x) (divergent at 0)": lambda x: x**-1.0 * np.exp(-x),
    "x^-0.99 exp(-x) (integrable, overflows at 0)": lambda x: x**-0.99 * np.exp(-x),
    "inf everywhere": lambda x: np.full_like(x, np.inf),
    "exp(x) (overflows in the tail)": lambda x: np.exp(x),
    "1e307 on (0, 3) (near overflow)": lambda x: np.where(x < 3.0, 1e307, 0.0),
    "1e308 on (0, 3) (panel sum overflows)": lambda x: np.where(x < 3.0, 1e308, 0.0),
    "1e300 everywhere (total overflows)": lambda x: np.full_like(x, 1e300),
}
REL_TOLS = (1e-6, 1e-8, 1e-10, 1e-12)
ABS_TOLS = (0.0, 1e-9)
# Integrals of zero: a relative target alone is never met, so these run
# with abs_tol, and once without it to exhaust the evaluation budget.
ZERO_INTEGRANDS = {
    "kernel derivative": lambda t: kernel_x_derivative(1.0, 0.1, t),
    "(1-x) exp(-x)": lambda x: (1.0 - x) * np.exp(-x),
}
BUDGET_CASE = ("(1-x) exp(-x)", 1e-6, 0.0)


def _outcome(fn, *args, **kwargs) -> str:
    """repr of fn's result, or the class, message and partial of its failure."""
    try:
        return repr(fn(*args, **kwargs))
    except (ArithmeticError, RuntimeError, ValueError) as exc:
        partial = getattr(exc, "partial", None)
        return f"{type(exc).__name__}: {exc} | partial={partial!r}"


def _with_quadratures(fn, *args) -> list[str]:
    """The outcome of every quadrature fn(*args) runs, then fn's own outcome."""
    quad = numerics.integrate_semi_infinite
    lines = []

    def recording(g, *a, **kw):
        lines.append("  quad " + _outcome(quad, g, *a, **kw))
        return quad(g, *a, **kw)

    numerics.integrate_semi_infinite = recording
    try:
        lines.append(_outcome(fn, *args))
    finally:
        numerics.integrate_semi_infinite = quad
    return lines


def golden_lines() -> list[str]:
    lines = []
    for family, param, make in REFERENCES:
        ref = quadrature_only(make(param))
        for fn in (mise_integrals, chen_constants):
            lines.append(f"{family}({param!r}) {fn.__name__}")
            lines += _with_quadratures(fn, ref)
        for n in (200, 2000):
            lines.append(f"{family}({param!r}) bandwidth_report n={n}")
            lines.append(_outcome(bandwidth_report, ref, n))
    cases = [(name, r, a) for name in INTEGRANDS for r in REL_TOLS for a in ABS_TOLS]
    cases += [(name, r, 1e-9) for name in ZERO_INTEGRANDS for r in REL_TOLS]
    cases.append(BUDGET_CASE)
    integrands = {**INTEGRANDS, **ZERO_INTEGRANDS}
    for name, rel_tol, abs_tol in cases:
        lines.append(f"{name} rel_tol={rel_tol!r} abs_tol={abs_tol!r}")
        lines.append(_outcome(
            numerics.integrate_semi_infinite, integrands[name], rel_tol, abs_tol=abs_tol
        ))
    return lines


def test_quadrature_matches_golden_bytes():
    got = "\n".join(golden_lines()) + "\n"
    assert got == GOLDEN.read_text()


if __name__ == "__main__":
    GOLDEN.write_text("\n".join(golden_lines()) + "\n")
