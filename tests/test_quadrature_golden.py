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

which prints how many lines moved under each section header before it
writes, and says in its change log which lines moved and why.
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


def golden_sections() -> list[tuple[str, list[str]]]:
    """(header, lines) for every case, in file order."""
    sections = []
    for family, param, make in REFERENCES:
        ref = quadrature_only(make(param))
        for fn in (mise_integrals, chen_constants):
            header = f"{family}({param!r}) {fn.__name__}"
            sections.append((header, _with_quadratures(fn, ref)))
        for n in (200, 2000):
            header = f"{family}({param!r}) bandwidth_report n={n}"
            sections.append((header, [_outcome(bandwidth_report, ref, n)]))
    cases = [(name, r, a) for name in INTEGRANDS for r in REL_TOLS for a in ABS_TOLS]
    cases += [(name, r, 1e-9) for name in ZERO_INTEGRANDS for r in REL_TOLS]
    cases.append(BUDGET_CASE)
    integrands = {**INTEGRANDS, **ZERO_INTEGRANDS}
    for name, rel_tol, abs_tol in cases:
        header = f"{name} rel_tol={rel_tol!r} abs_tol={abs_tol!r}"
        sections.append((header, [_outcome(
            numerics.integrate_semi_infinite, integrands[name], rel_tol, abs_tol=abs_tol
        )]))
    return sections


def _lines(sections) -> list[str]:
    return [line for header, body in sections for line in (header, *body)]


def moved_lines(old_lines: list[str], sections) -> dict[str, int]:
    """Per section header, how many lines differ from the old file's section.

    Lines are compared by position; each line one side has beyond the other
    counts as moved, and so does every line under a header the old file lacks.
    """
    headers = {header for header, _ in sections}
    old: dict = {}
    body = None
    for line in old_lines:
        if line in headers:
            body = old.setdefault(line, [])
        elif body is not None:
            body.append(line)
    moved = {}
    for header, new in sections:
        before = old.get(header, [])
        count = sum(a != b for a, b in zip(new, before)) + abs(len(new) - len(before))
        if count:
            moved[header] = count
    return moved


def test_quadrature_matches_golden_bytes():
    got = "\n".join(_lines(golden_sections())) + "\n"
    assert got == GOLDEN.read_text()


if __name__ == "__main__":
    sections = golden_sections()
    lines = _lines(sections)
    moved = moved_lines(GOLDEN.read_text().splitlines(), sections)
    for header, count in moved.items():
        print(f"{count:4d}  {header}")
    print(f"{sum(moved.values())} of {len(lines)} lines moved; writing {GOLDEN}")
    GOLDEN.write_text("\n".join(lines) + "\n")
