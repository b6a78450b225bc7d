"""The four study workloads: their CLI calls, sizes and output checks.

Each workload is a list of ops. An op is one ``gammakde`` CLI call with a
config file the benchmark writes; ``tasks`` is the number of harness tasks
it runs (replications, or (n, replication) pairs on the converge ladder; a
``bandwidths`` call is one task). Every check compares the program's
output with a route that does not go through the CLI: the scalar kernel
oracle, scale equivariance, the asymptotic rate, the leading variance, or
values recorded in ``expected.json``.
"""

from __future__ import annotations

import csv
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np

EXPECTED = json.loads((Path(__file__).with_name("expected.json")).read_text(encoding="utf-8"))

HEADLINE_REL_TOL = 1e-9  # reports print 12 significant digits; allow last-digit moves
EQUIVARIANCE_REL_TOL = 1e-8
CURVE_TOL = 1e-8  # relative to the largest |estimate| of the curve
CURVE_SPOT_INDICES = (0, 5, 19, 38, 80, 160, 240, 320, 399)
RATE = -4.0 / 7.0
# Fitted slopes over the default ladder spread as -0.46 +/- 0.03 across
# seeds at this commit (the ladder is still pre-asymptotic); the band catches
# a broken rate, not a drift of a few hundredths.
RATE_TOL = 0.25
RATE_MIN_REPLICATIONS = 5
# Sampling error of a variance ratio over r replications is about
# sqrt(2 / r): 0.1 at 200, so [0.5, 1.5] is more than four errors wide.
VARIANCE_RATIO_RANGE = (0.5, 1.5)
VARIANCE_MIN_REPLICATIONS = 100

SWEEP_SIGMAS = (0.1, 1.0, 10.0)
SWEEP_DOFS = (3, 4, 6, 10, 50)
SWEEP_NS = (200, 2000)


@dataclass(frozen=True)
class Op:
    label: str
    command: str
    config: dict
    tasks: int
    expect_error: str | None = None  # exception class of a known defect


def dist_key(dist: dict, n: int) -> str:
    param = dist["sigma"] if dist["name"] == "maxwell" else dist["m"]
    return f"{dist['name']}:{param:g}:{n}"


def _rel(got: float, want: float) -> float:
    return abs(got - want) / abs(want)


def _headline(problems: list, what: str, got: float, want: float) -> None:
    if not (math.isfinite(got) and _rel(got, want) <= HEADLINE_REL_TOL):
        problems.append(f"{what}: got {got!r}, recorded {want!r}")


MAXWELL_1 = {"name": "maxwell", "sigma": 1.0}


class Workload:
    name: str
    why: str
    jobs: int

    def check_run(self, results: dict) -> list[str]:
        """Checks across the ops of one process; none unless a workload adds them."""
        return []


class McSmallN(Workload):
    name = "mc_small_n"
    why = (
        "reproduce, Maxwell n=200, 400 points, 3 modes, jobs 1: per-grid-point "
        "constants (shape_params, scalar log_gamma/digamma) dominate the estimator"
    )
    jobs = 1
    replications = {"full": 100, "tiny": 2}

    def ops(self, seed: int, size: str) -> list[Op]:
        reps = self.replications[size]
        cfg = {"distribution": MAXWELL_1, "n": 200, "seed": seed, "replications": reps}
        return [Op("reproduce", "reproduce", cfg, reps)]

    def check(self, gk, op: Op, rc: int, out: Path, stderr: str, seen: dict) -> list[str]:
        if rc != 0:
            return [f"exit code {rc}"]
        problems = []
        report = json.loads((out / "report.json").read_text())
        recorded = EXPECTED["bandwidths"][dist_key(MAXWELL_1, 200)]
        bandwidths = report["bandwidths"]
        for mode in ("plugin", "refined", "chen"):
            _headline(problems, f"{mode} bandwidth", bandwidths[mode], recorded[f"b_{mode}"])
        ises = [row["ise"] for row in report["per_replication_ise"]]
        if len(ises) != 3 * op.tasks or not all(math.isfinite(v) and v > 0 for v in ises):
            problems.append("per-replication ISE list is incomplete or not positive")
        # First-replication curves against the scalar kernel oracle averaged
        # over the same sample, drawn again through the public sampler.
        s = gk.sample(gk.MaxwellParams(1.0), 200, gk.derived_seed(op.config["seed"], 0))
        for mode, b in bandwidths.items():
            with open(out / f"curve_{mode}.csv", newline="") as fh:
                rows = list(csv.DictReader(fh))
            estimate = [float(r["estimate"]) for r in rows]
            scale = max(abs(e) for e in estimate)
            for i in CURVE_SPOT_INDICES:
                x = float(rows[i]["x"])
                oracle = float(np.mean(gk.kernel_x_derivative(x, b, s.values)))
                if abs(estimate[i] - oracle) > CURVE_TOL * scale:
                    problems.append(
                        f"curve_{mode} at x={x:g}: {estimate[i]!r} vs oracle {oracle!r}"
                    )
        return problems


class McLargeN(Workload):
    name = "mc_large_n"
    why = (
        "converge on the default ladder n=500..8000, 400 points, jobs 1: the dense "
        "n-by-grid exp matrix and its temporaries dominate time and peak memory"
    )
    jobs = 1
    replications = {"full": 10, "tiny": 1}
    ladder = (500, 1000, 2000, 4000, 8000)

    def ops(self, seed: int, size: str) -> list[Op]:
        reps = self.replications[size]
        cfg = {
            "distribution": MAXWELL_1,
            "n_list": list(self.ladder),
            "seed": seed,
            "replications": reps,
        }
        return [Op("converge", "converge", cfg, reps * len(self.ladder))]

    def check(self, gk, op: Op, rc: int, out: Path, stderr: str, seen: dict) -> list[str]:
        if rc != 0:
            return [f"exit code {rc}"]
        problems = []
        result = json.loads((out / "convergence.json").read_text())
        for n in self.ladder:
            _headline(
                problems,
                f"plug-in bandwidth at n={n}",
                result["bandwidths"][str(n)],
                EXPECTED["converge_plugin"][str(n)],
            )
        mise = [p["mean_ise"] for p in result["points"]]
        if len(mise) != len(self.ladder) or not all(math.isfinite(m) and m > 0 for m in mise):
            problems.append(f"mean ISE points are incomplete or not positive: {mise}")
        slope = result["slope"]
        if op.config["replications"] >= RATE_MIN_REPLICATIONS and not (
            abs(slope - RATE) <= RATE_TOL
        ):
            problems.append(f"MISE slope {slope!r} is not within {RATE_TOL} of -4/7")
        return problems


class MomentsPool(Workload):
    name = "moments_pool"
    why = (
        "verify-lemmas defaults (n=1e5, x=0.5,1,2, b=0.05) at jobs 2: sampling and the "
        "tall n-by-3 estimator shape, the only path through the process pool"
    )
    jobs = 2
    replications = {"full": 200, "tiny": 2}

    def ops(self, seed: int, size: str) -> list[Op]:
        reps = self.replications[size]
        cfg = {
            "distribution": MAXWELL_1,
            "x_list": [0.5, 1.0, 2.0],
            "b": 0.05,
            "n": 100_000,
            "seed": seed,
            "replications": reps,
        }
        return [Op("verify-lemmas", "verify-lemmas", cfg, reps)]

    def check(self, gk, op: Op, rc: int, out: Path, stderr: str, seen: dict) -> list[str]:
        if rc != 0:
            return [f"exit code {rc}"]
        problems = []
        rows = json.loads((out / "moment_check.json").read_text())["rows"]
        if [r["x"] for r in rows] != op.config["x_list"]:
            problems.append("moment rows do not match x_list")
            return problems
        for row, want in zip(rows, EXPECTED["moments"]):
            for key in ("true_derivative", "predicted_bias", "predicted_variance"):
                _headline(problems, f"{key} at x={row['x']:g}", row[key], want[key])
        if op.config["replications"] >= VARIANCE_MIN_REPLICATIONS:
            lo, hi = VARIANCE_RATIO_RANGE
            for row in rows:
                ratio = row["variance_ratio"]
                if not (ratio is not None and lo <= ratio <= hi):
                    problems.append(f"variance ratio {ratio!r} at x={row['x']:g} not near 1")
        return problems


def _sweep_inputs():
    dists = [{"name": "maxwell", "sigma": s} for s in SWEEP_SIGMAS]
    dists += [{"name": "chi_square", "m": m} for m in SWEEP_DOFS]
    return [(d, n) for d in dists for n in SWEEP_NS]


def _expected_failures() -> dict:
    return {dist_key(f["distribution"], f["n"]): f["error"] for f in EXPECTED["expected_failures"]}


def expected_failures_text() -> str:
    """One-line listing of the known selector defects, grouped by exception."""
    groups: dict[str, dict[str, list]] = {}
    for f in EXPECTED["expected_failures"]:
        d = f["distribution"]
        label = f"maxwell({d['sigma']:g})" if d["name"] == "maxwell" else f"chi2({d['m']})"
        groups.setdefault(f["error"], {}).setdefault(label, []).append(str(f["n"]))
    return "; ".join(
        f"{error} " + ", ".join(f"{label}@{'/'.join(ns)}" for label, ns in by_dist.items())
        for error, by_dist in groups.items()
    )


class SelectorsSweep(Workload):
    name = "selectors_sweep"
    jobs = 1
    why = "bandwidths, 16 inputs: quadrature+roots, no estimator. Expected: " + (
        expected_failures_text()
    )

    def __init__(self):
        self._errors: dict = {}  # input key -> exception class, from a direct call

    def ops(self, seed: int, size: str) -> list[Op]:
        failures = _expected_failures()
        ops = [
            Op(
                dist_key(d, n).replace(":", "_"),
                "bandwidths",
                {"distribution": d, "n": n},
                1,
                failures.get(dist_key(d, n)),
            )
            for d, n in _sweep_inputs()
        ]
        random.Random(seed).shuffle(ops)  # the seed picks the call order
        return ops

    def check(self, gk, op: Op, rc: int, out: Path, stderr: str, seen: dict) -> list[str]:
        key = dist_key(op.config["distribution"], op.config["n"])
        if op.expect_error is not None and rc == 3:
            if "numerical failure" not in stderr:
                return ["exit code 3 without a numerical-failure message"]
            got = self._selector_error(gk, op)
            if got != op.expect_error:
                return [f"expected {op.expect_error}, the selectors raise {got}"]
            return []
        if rc != 0:
            return [f"exit code {rc}"]
        report = json.loads((out / "bandwidths.json").read_text())
        values = [report[k] for k in ("b_plugin", "b_refined", "b_chen")]
        if not all(math.isfinite(v) and v > 0 for v in values):
            return [f"non-positive bandwidths {values}"]
        seen[key] = report
        problems = []
        recorded = EXPECTED["bandwidths"].get(key)
        if recorded is not None:  # inputs that fail today have no record yet
            for k, want in recorded.items():
                _headline(problems, f"{key} {k}", report[k], want)
        return problems

    def check_run(self, results: dict) -> list[str]:
        """Scale equivariance b(sigma) = sigma b(1) over the Maxwell inputs that ran.

        ``results`` maps each input that exited 0 to its bandwidths.json.
        """
        problems = []
        for n in SWEEP_NS:
            base = results.get(dist_key(MAXWELL_1, n))
            for sigma in SWEEP_SIGMAS:
                got = results.get(dist_key({"name": "maxwell", "sigma": sigma}, n))
                if base is None or got is None or sigma == 1.0:
                    continue
                for k in ("b_plugin", "b_refined", "b_chen"):
                    if _rel(got[k], sigma * base[k]) > EQUIVARIANCE_REL_TOL:
                        problems.append(
                            f"{k} at sigma={sigma:g}, n={n}: {got[k]!r} is not "
                            f"sigma * {base[k]!r}"
                        )
        return problems

    def _selector_error(self, gk, op: Op) -> str | None:
        """Exception class the selectors raise for this input, by a direct call."""
        key = dist_key(op.config["distribution"], op.config["n"])
        if key not in self._errors:
            d = op.config["distribution"]
            params = (
                gk.MaxwellParams(sigma=d["sigma"]) if d["name"] == "maxwell"
                else gk.ChiSquareParams(m=d["m"])
            )
            try:
                gk.bandwidth_report(gk.reference_for(params), op.config["n"])
                self._errors[key] = None
            except (gk.IntegrationError, gk.NoRootError) as exc:
                self._errors[key] = type(exc).__name__
        return self._errors[key]


WORKLOADS = {w.name: w for w in (McSmallN(), McLargeN(), MomentsPool(), SelectorsSweep())}
