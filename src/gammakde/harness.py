"""Monte Carlo experiment harness.

Three studies, driven by JSON-friendly configs, return their results and
write no file: the command line writes them, an experiment's through write_report.

* run_experiment: repeated sampling at one sample size, derivative
  estimation on a grid under several bandwidth rules, integrated squared
  error (ISE) per replication, plus estimate-vs-truth curves for the first
  replication.
* convergence_study: the same ISE aggregation across a ladder of sample
  sizes with the plug-in bandwidth per size, finished by a log-log rate fit.
* asymptotic_moment_check: Monte Carlo means and variances of the pointwise
  derivative estimate against their predicted leading terms.

Reproducibility contract: replication r of every study is a sample drawn
with a seed derived from (config seed, r), or (config seed, size index, r)
on the converge ladder. A task is a run of consecutive replications at one
sample size: it draws each replication's sample from that replication's own
seed and evaluates the run in one estimator batch, which gives every
replication the bits it would have alone. The parent reduces each run as
arrays (the ISEs of a run are one trapezoid along the rows of its estimates,
and a row's sum is the pairwise sum of a one-row call) and takes the
results in replication order, so reports are byte-identical for a fixed
config no matter how the replications are grouped into tasks or how many
worker processes execute them.
"""

from __future__ import annotations

import dataclasses
import math
import os
import sys
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import asymptotics, numerics
from .asymptotics import BandwidthConstants
from .estimator import GridEvaluation, evaluate_batch
from .ioutil import write_csv, write_json
from .refdens import (
    ChiSquareParams,
    MaxwellParams,
    derived_seed,
    reference_for,
    sample,
)

__all__ = [
    "ConfigError",
    "FixedBandwidth",
    "GridSpec",
    "BandwidthsConfig",
    "ExperimentConfig",
    "ExperimentReport",
    "run_experiment",
    "report_dict",
    "write_report",
    "ConvergenceConfig",
    "ConvergenceResult",
    "convergence_study",
    "convergence_result_dict",
    "MomentCheckConfig",
    "MomentCheckRow",
    "MomentCheckReport",
    "asymptotic_moment_check",
    "moment_check_dict",
    "ISE_DEFINITION",
]

_trapezoid = getattr(np, "trapezoid", None) or np.trapz

ISE_DEFINITION = (
    "ISE = trapezoidal integral over the report grid of "
    "(derivative estimate - true derivative)^2"
)

# Two earlier reported bandwidth sets for maxwell(sigma=1) at n = 200. They
# contradict each other (and set B's third entry equals the n = 2000 value
# of the reference rule), so the harness prints both next to its own
# numbers instead of asserting agreement with either.
_EARLIER_REPORTED_N200 = (
    ("earlier reported set A", {"plugin": 0.194, "refined": 0.197}),
    ("earlier reported set B", {"plugin": 0.203, "refined": 0.146, "chen": 0.017}),
)


class ConfigError(ValueError):
    """A configuration file or value is malformed."""


def _check_integer(name: str, value, lo: int, hi: float | None = None) -> None:
    """Accept only an integer in [lo, hi]; floats and booleans are not cast."""
    if (
        isinstance(value, bool)
        or not isinstance(value, int)
        or value < lo
        or (hi is not None and value > hi)
    ):
        bound = f">= {lo}" if hi is None else f"in [{lo}, {hi}]"
        raise ConfigError(f"{name} must be an integer {bound}, got {value!r}")


def _number(value) -> float:
    """A JSON number as a float; booleans and strings are not numbers."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"expected a number, got {value!r}")
    return float(value)


def _directory(value) -> str | None:
    if value is not None and not isinstance(value, str):
        raise TypeError(f"output_dir must be a string or null, got {value!r}")
    return value


def _from_dict(cls, obj, what: str):
    """Build the dataclass `cls` from a JSON object keyed by its field names.

    Unknown keys are rejected and absent ones take the field default.
    _READ[key] turns the JSON value of `key` into the field value or raises
    TypeError; the class's own checks run next. Any malformed value ends as
    a ConfigError that names `what`.
    """
    if not isinstance(obj, dict):
        raise ConfigError(f"{what} must be a JSON object, got {obj!r}")
    fields = dataclasses.fields(cls)
    unknown = set(obj) - {f.name for f in fields}
    if unknown:
        raise ConfigError(f"unknown {what} keys: {sorted(unknown)}")
    for f in fields:
        has_default = not (
            f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING
        )
        if f.name not in obj and not has_default:
            raise ConfigError(f"missing {what} key: {f.name!r}")
    try:
        return cls(**{k: _READ[k](v) if k in _READ else v for k, v in obj.items()})
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad {what}: {exc}") from exc


class _JsonConfig:
    """The JSON grammar the config dataclasses share.

    from_dict reads an object keyed by the field names, turning values with
    _READ; to_dict writes, with _WRITE, the object from_dict reads back.
    """

    @classmethod
    def from_dict(cls, obj: dict):
        return _from_dict(cls, obj, "config")

    def to_dict(self) -> dict:
        values = {f.name: getattr(self, f.name) for f in dataclasses.fields(self)}
        return {k: _WRITE[k](v) if k in _WRITE else v for k, v in values.items()}


@dataclass(frozen=True)
class FixedBandwidth:
    """A user-pinned bandwidth, bypassing every selector."""

    value: float

    def __post_init__(self):
        if not (math.isfinite(self.value) and self.value > 0.0):
            raise ConfigError(f"fixed bandwidth must be > 0, got {self.value!r}")

    @property
    def label(self) -> str:
        return f"fixed_{self.value:g}"


@dataclass(frozen=True)
class GridSpec:
    """Evaluation grid: `points` equal steps over the half-open (min, max]."""

    min: float = 0.02
    max: float = 4.0
    points: int = 400

    def __post_init__(self):
        if not (math.isfinite(self.min) and self.min >= 0.0):
            raise ConfigError(f"grid min must be >= 0, got {self.min!r}")
        if not (math.isfinite(self.max) and self.max > self.min):
            raise ConfigError(f"grid max must exceed min, got {self.max!r}")
        _check_integer("grid points", self.points, 2, 100_000)
        if np.any(np.diff(self.array()) <= 0.0):
            raise ConfigError(
                f"grid ({self.min!r}, {self.max!r}] is too narrow for {self.points} "
                "distinct points"
            )

    def array(self) -> np.ndarray:
        step = (self.max - self.min) / self.points
        return self.min + step * np.arange(1, self.points + 1)


_DISTRIBUTIONS = {"maxwell": MaxwellParams, "chi_square": ChiSquareParams}


def _distribution(obj) -> MaxwellParams | ChiSquareParams:
    if not isinstance(obj, dict) or obj.get("name") not in _DISTRIBUTIONS:
        raise ConfigError(
            f"distribution must be an object with a 'name' in "
            f"{sorted(_DISTRIBUTIONS)}, got {obj!r}"
        )
    params = {k: v for k, v in obj.items() if k != "name"}
    return _from_dict(_DISTRIBUTIONS[obj["name"]], params, "distribution")


def _array(item=lambda value: value):
    """A parser of a JSON array into a tuple, turning each entry with `item`.

    A tuple passes too, as to_dict writes one for Python callers.
    """
    def parse(obj) -> tuple:
        if not isinstance(obj, (list, tuple)):
            raise TypeError(f"expected a JSON array, got {obj!r}")
        return tuple(item(value) for value in obj)
    return parse


def _mode(obj):
    """{"fixed": b} becomes FixedBandwidth(b); ExperimentConfig checks every mode."""
    if isinstance(obj, dict) and set(obj) == {"fixed"}:
        return FixedBandwidth(value=_number(obj["fixed"]))
    return obj


# The grammar of every key of the configs and of their nested objects. _READ
# turns a key's JSON value into its field value; a key not listed is taken
# as it is. _WRITE turns a field value that is not plain JSON back into the
# JSON value that _READ reads.
_READ = {
    "distribution": _distribution,
    "sigma": _number,
    "grid": lambda obj: _from_dict(GridSpec, obj, "grid"),
    "min": _number,
    "max": _number,
    "bandwidth_modes": _array(_mode),
    "n_list": _array(),
    "x_list": _array(_number),
    "b": _number,
    "output_dir": _directory,
}
_WRITE = {
    "distribution": lambda dist: {
        "name": next(name for name, kind in _DISTRIBUTIONS.items() if isinstance(dist, kind)),
        **dataclasses.asdict(dist),
    },
    "grid": dataclasses.asdict,
    "bandwidth_modes": lambda modes: [
        m if isinstance(m, str) else {"fixed": m.value} for m in modes
    ],
}


def _mode_label(mode: str | FixedBandwidth) -> str:
    return mode if isinstance(mode, str) else mode.label


@dataclass(frozen=True)
class BandwidthsConfig(_JsonConfig):
    """Inputs of the bandwidth selectors: one density at one sample size."""

    distribution: MaxwellParams | ChiSquareParams
    n: int
    output_dir: str | None = None

    def __post_init__(self):
        # A larger n cannot be a float, and the selectors compute in floats.
        _check_integer("n", self.n, 1, sys.float_info.max)


@dataclass(frozen=True)
class ExperimentConfig(_JsonConfig):
    """One repeated-sampling experiment at a fixed sample size."""

    distribution: MaxwellParams | ChiSquareParams
    n: int
    seed: int
    replications: int
    grid: GridSpec = field(default_factory=GridSpec)
    bandwidth_modes: tuple = tuple(asymptotics.SELECTORS)
    output_dir: str | None = None

    def __post_init__(self):
        _check_integer("n", self.n, 1, 100_000)
        _check_integer("seed", self.seed, 0)
        _check_integer("replications", self.replications, 1, 500)
        if not self.bandwidth_modes:
            raise ConfigError("at least one bandwidth mode is required")
        for mode in self.bandwidth_modes:
            if not isinstance(mode, FixedBandwidth) and not (
                isinstance(mode, str) and mode in asymptotics.SELECTORS
            ):
                raise ConfigError(
                    f"bandwidth mode must be one of {list(asymptotics.SELECTORS)} "
                    f"or {{'fixed': b}}, got {mode!r}"
                )
        labels = [_mode_label(m) for m in self.bandwidth_modes]
        if len(set(labels)) != len(labels):
            raise ConfigError(f"bandwidth mode labels must be distinct, as each names a curve "
                              f"file and a fixed label keeps 6 significant digits: got {labels}")


@dataclass
class ExperimentReport:
    """In-memory result of run_experiment."""

    config: ExperimentConfig
    bandwidths: dict
    constants: BandwidthConstants | None
    bandwidth_errors: dict
    per_replication_ise: list
    summary: dict
    curves: dict
    true_derivative: np.ndarray  # on the grid of the curves
    notes: list


# Largest ISE a report takes. Below it, the std of up to 1e8 replications'
# ISEs (a sum of squared deviations) stays in the float range.
_ISE_MAX = 1e150


def _true_derivative(ref, grid: np.ndarray) -> np.ndarray:
    """The reference density's derivative on the grid; DegenerateIntegralError if it overflows."""
    with np.errstate(all="ignore"):  # tested below; the unused f'' may overflow or divide by 0
        truth = np.asarray(ref.d1(grid), dtype=float)
    if not np.isfinite(truth).all():
        raise numerics.DegenerateIntegralError(
            f"the true derivative overflows the float range on the grid "
            f"[{float(grid[0])!r}, {float(grid[-1])!r}] of {grid.size} points"
        )
    return truth


def _ise_of_run(derivative: np.ndarray, truth, grid, label: str, n: int) -> list:
    """The ISE of each row of a run's (R, m) derivative estimates, as floats.

    An ISE that overflows, or exceeds _ISE_MAX, raises DegenerateIntegralError
    naming the mode and the sample size.
    """
    with np.errstate(over="ignore"):  # the largest ISE is tested below
        diff = derivative - truth
        ise = _trapezoid(diff * diff, grid, axis=1)
    worst = float(ise.max())
    if not worst <= _ISE_MAX:
        raise numerics.DegenerateIntegralError(
            f"the ISE of mode {label!r} at n={n} overflows: it reaches {worst!r}, "
            f"above {_ISE_MAX!r}, past which the statistics of the ISEs leave the "
            "float range"
        )
    return ise.tolist()


def _median(values: list) -> float:
    """np.median of a non-empty list of floats, bit for bit, without numpy.ma."""
    ordered = sorted(values)
    half = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[half]
    return (ordered[half - 1] + ordered[half]) / 2


# Kernel entries a task's run of replications puts in one estimator row:
# ceil(_RUN_ENTRIES / n) samples of size n. Rows this long share the per-row
# cost of each pass; from n = 4096 on a run is one replication.
_RUN_ENTRIES = 4096


def _replicate(args) -> list:
    """A run of replications: seeded samples, evaluated once per bandwidth.

    Returns, per (mode label, bandwidth) pair, the density estimate of the
    run's first replication and the (R, m) derivative estimates of the run,
    one row per replication in run order. Draws or estimates that fail their
    checks, as when they overflow, raise DegenerateIntegralError naming the
    distribution or the mode.
    """
    dist, n, seeds, points, modes = args
    out = []
    what = f"the draws of {dist.label}"
    try:
        samples = [sample(dist, n, seed) for seed in seeds]
        for label, b in modes:
            what = f"the estimates of mode {label!r}"
            _, density, derivative = evaluate_batch(samples, b, points)
            out.append((density[0], derivative))
    except ValueError as exc:
        raise numerics.DegenerateIntegralError(
            f"{what} at n={n} leave the float range: {exc}"
        ) from exc
    return out


def ProcessPoolExecutor(max_workers: int):
    """A concurrent.futures.ProcessPoolExecutor, imported on the first call.

    Its import loads multiprocessing, subprocess, socket, logging and 26
    more modules, over 1 MB of peak RSS that a process which starts no pool
    need not pay. The name is the class's, so tests can patch it in its place.
    """
    from concurrent.futures import ProcessPoolExecutor as pool

    return pool(max_workers=max_workers)


def _replications(dist, points, batches, jobs: int):
    """Yield (batch index, run, estimates) for every run of every batch, in order.

    A batch (n, key, count, modes) is replications 0..count-1 at sample size
    n, replication r drawn with the seed derived_seed(*key, r) and estimated
    at points under each (label, b) of modes. A run is a range of
    ceil(_RUN_ENTRIES / n) consecutive replications; with a pool, runs are
    capped so that each worker still gets about four per batch. Each run is
    one task, and its estimates are _replicate's. The pool gets no more
    workers than there are tasks or CPUs, since it starts them all at once.
    """
    cpus = min(jobs, os.cpu_count() or 1)
    runs, tasks = [], []
    for i, (n, key, count, modes) in enumerate(batches):
        size = -(-_RUN_ENTRIES // n)
        if cpus > 1:
            size = min(size, max(1, count // (4 * cpus)))
        for start in range(0, count, size):
            run = range(start, min(start + size, count))
            runs.append((i, run))
            tasks.append((dist, n, [derived_seed(*key, rep) for rep in run], points, modes))
    workers = min(cpus, len(tasks))
    with ProcessPoolExecutor(max_workers=workers) if workers > 1 else nullcontext() as pool:
        results = map(_replicate, tasks) if pool is None else pool.map(
            _replicate, tasks, chunksize=max(1, len(tasks) // (4 * workers)))
        for (i, run), estimates in zip(runs, results):
            yield i, run, estimates


def run_experiment(cfg: ExperimentConfig, *, jobs: int = 1) -> ExperimentReport:
    """Run the repeated-sampling experiment described by cfg.

    A bandwidth rule that fails is recorded in report.bandwidth_errors, and
    the remaining modes still run. Nothing is written: write_report does that.
    """
    ref = reference_for(cfg.distribution)
    grid = cfg.grid.array()
    truth = _true_derivative(ref, grid)

    bandwidths: dict = {}
    failures: dict = {}
    for mode in cfg.bandwidth_modes:
        label = _mode_label(mode)
        try:
            if isinstance(mode, FixedBandwidth):
                bandwidths[label] = mode.value
            else:
                bandwidths[label] = asymptotics.SELECTORS[mode](ref, cfg.n)
        except (numerics.IntegrationError, numerics.NoRootError, ValueError) as exc:
            failures[label] = f"{type(exc).__name__}: {exc}"

    # The audit constants accompany the MISE-based rules, when they ran.
    constants = None
    if {"plugin", "refined"} & set(cfg.bandwidth_modes):
        try:
            constants = asymptotics.BandwidthConstants.build(
                asymptotics.mise_integrals(ref), cfg.n, *asymptotics.chen_constants(ref)
            )
        except (numerics.IntegrationError, ValueError):
            constants = None

    modes = tuple(bandwidths.items())
    batch = (cfg.n, (cfg.seed,), cfg.replications if modes else 0, modes)
    per_replication = []
    ise_by_mode: dict = {label: [] for label in bandwidths}
    curves: dict = {}
    for _, run, estimates in _replications(cfg.distribution, grid, [batch], jobs):
        if not curves:
            curves = {
                label: GridEvaluation(grid, density, derivative[0], float(b))
                for (label, b), (density, derivative) in zip(modes, estimates)
            }
        ises = {
            label: _ise_of_run(derivative, truth, grid, label, cfg.n)
            for (label, _), (_, derivative) in zip(modes, estimates)
        }
        for label, values in ises.items():
            ise_by_mode[label].extend(values)
        per_replication.extend(
            {"replication": rep, "mode": label, "ise": values[i]}
            for i, rep in enumerate(run)
            for label, values in ises.items()
        )

    summary = {}
    for label, values in ise_by_mode.items():
        arr = np.asarray(values)
        summary[label] = {
            "mean": float(arr.mean()),
            "median": _median(values),
            "std": float(arr.std(ddof=1)) if arr.size > 1 else float("nan"),
        }

    notes = [ISE_DEFINITION]
    if cfg.replications == 1:
        notes.append("single replication: the ISE spread (std) is undefined")
    notes.extend(_reference_comparison_notes(cfg, bandwidths))

    return ExperimentReport(
        config=cfg,
        bandwidths=bandwidths,
        constants=constants,
        bandwidth_errors=failures,
        per_replication_ise=per_replication,
        summary=summary,
        curves=curves,
        true_derivative=truth,
        notes=notes,
    )


def _reference_comparison_notes(cfg: ExperimentConfig, bandwidths: dict) -> list:
    if not (
        isinstance(cfg.distribution, MaxwellParams)
        and cfg.distribution.sigma == 1.0
        and cfg.n == 200
    ):
        return []
    notes = [
        "two earlier reported bandwidth sets exist for this configuration and "
        "contradict each other; computed values are reported without asserting "
        "agreement with either"
    ]
    for name, values in _EARLIER_REPORTED_N200:
        parts = []
        for mode, reported in values.items():
            if mode in bandwidths:
                computed = bandwidths[mode]
                rel = abs(computed - reported) / reported
                parts.append(
                    f"{mode}: reported {reported:g}, computed {computed:.4f} "
                    f"(rel. diff {rel:.1%})"
                )
        if parts:
            notes.append(f"{name} -> " + "; ".join(parts))
    return notes


def report_dict(report: ExperimentReport) -> dict:
    """JSON-ready form of an ExperimentReport (curves go to CSV files)."""
    out = {
        "config": report.config.to_dict(),
        "bandwidths": dict(report.bandwidths),
        "per_replication_ise": report.per_replication_ise,
        "summary": report.summary,
        "curve_files": {label: f"curve_{label}.csv" for label in report.curves},
        "notes": list(report.notes),
    }
    if report.constants is not None:
        out["bandwidth_constants"] = dataclasses.asdict(report.constants)
    if report.bandwidth_errors:
        out["bandwidth_errors"] = dict(report.bandwidth_errors)
    return out


def write_report(report: ExperimentReport, out_dir: str | Path) -> Path:
    """Write report.json plus per-mode curve CSVs; returns the directory."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    doc = report_dict(report)
    for label, name in doc["curve_files"].items():
        ev = report.curves[label]
        columns = {"x": ev.grid, "true_derivative": report.true_derivative,
                   "estimate": ev.derivative}
        write_csv(columns, out / name)
    write_json(doc, out / "report.json")
    return out


@dataclass(frozen=True)
class ConvergenceConfig(_JsonConfig):
    """Rate study: plug-in bandwidth per sample size, log-log MISE fit."""

    distribution: MaxwellParams | ChiSquareParams
    n_list: tuple
    seed: int
    replications: int
    grid: GridSpec = field(default_factory=GridSpec)
    output_dir: str | None = None

    def __post_init__(self):
        if len(self.n_list) < 4:
            raise ConfigError(
                f"rate fit needs at least 4 sample sizes, got {len(self.n_list)}"
            )
        for n in self.n_list:
            _check_integer("every sample size in n_list", n, 1, 100_000)
        if len(set(self.n_list)) != len(self.n_list):
            raise ConfigError(
                f"duplicate sample sizes make the rate fit degenerate: {self.n_list}"
            )
        _check_integer("seed", self.seed, 0)
        _check_integer("replications", self.replications, 1, 500)


@dataclass(frozen=True)
class ConvergenceResult:
    """Fitted MISE decay rate and the per-size points behind it."""

    slope: float
    intercept: float
    points: tuple  # of (n, mean ISE)
    bandwidths: dict


def _log_log_fit(n_list, mise: np.ndarray) -> tuple[float, float]:
    """Slope and intercept of the least-squares line through (ln n, ln mise).

    In closed form over the centred ln n: a two-parameter line needs no
    LAPACK call (np.polyfit's), whose first use costs a process 1.3 MB of RSS.
    """
    x = np.log(np.asarray(n_list, dtype=float))
    y = np.log(mise)
    dx = x - x.mean()
    slope = float((dx * (y - y.mean())).sum() / (dx * dx).sum())
    return slope, float(y.mean() - slope * x.mean())


def convergence_study(cfg: ConvergenceConfig, *, jobs: int = 1) -> ConvergenceResult:
    """Estimate the MISE decay exponent under the plug-in bandwidth.

    A mean ISE that is not positive, as when the density and every estimate
    vanish on the grid, leaves no log to fit and raises
    DegenerateIntegralError naming n and the grid.
    """
    ref = reference_for(cfg.distribution)
    grid = cfg.grid.array()
    truth = _true_derivative(ref, grid)
    plugin = asymptotics.SELECTORS["plugin"]
    bandwidths = {n: plugin(ref, n) for n in cfg.n_list}
    batches = [
        (n, (cfg.seed, i), cfg.replications, (("plugin", bandwidths[n]),))
        for i, n in enumerate(cfg.n_list)
    ]
    sums = np.zeros(len(cfg.n_list))
    for i, _, [(_, derivative)] in _replications(cfg.distribution, grid, batches, jobs):
        # Added one by one, in replication order, as the sum has always been.
        for ise in _ise_of_run(derivative, truth, grid, "plugin", cfg.n_list[i]):
            sums[i] += ise
    mise = sums / cfg.replications
    for n, m in zip(cfg.n_list, mise):
        if not m > 0.0:  # the log-log fit needs every mean ISE positive
            g = cfg.grid
            raise numerics.DegenerateIntegralError(
                f"mean ISE {float(m)!r} at n={n} on the grid ({g.min!r}, {g.max!r}] "
                f"of {g.points} points; no log-log slope"
            )
    slope, intercept = _log_log_fit(cfg.n_list, mise)
    points = tuple((n, float(m)) for n, m in zip(cfg.n_list, mise))
    return ConvergenceResult(
        slope=slope,
        intercept=intercept,
        points=points,
        bandwidths=bandwidths,
    )


def convergence_result_dict(cfg: ConvergenceConfig, result: ConvergenceResult) -> dict:
    return {
        "config": cfg.to_dict(),
        "slope": result.slope,
        "intercept": result.intercept,
        "points": [{"n": n, "mean_ise": m} for n, m in result.points],
        "bandwidths": {str(n): b for n, b in result.bandwidths.items()},
        "notes": [ISE_DEFINITION],
    }


@dataclass(frozen=True)
class MomentCheckConfig(_JsonConfig):
    """Pointwise Monte Carlo check of the leading bias and variance."""

    distribution: MaxwellParams | ChiSquareParams
    x_list: tuple
    b: float
    n: int
    seed: int
    replications: int

    def __post_init__(self):
        if not self.x_list:
            raise ConfigError("x_list must not be empty")
        if not (math.isfinite(self.b) and self.b > 0.0):
            raise ConfigError(f"bandwidth must be > 0, got {self.b!r}")
        bad = [x for x in self.x_list if not (math.isfinite(x) and x >= 2.0 * self.b)]
        if bad:
            raise ConfigError(
                f"moment checks use the interior expansions; need x >= 2 b, got {bad}"
            )
        if list(self.x_list) != sorted(set(self.x_list)):
            raise ConfigError("x_list must be strictly increasing")
        _check_integer("n", self.n, 1, 100_000)
        _check_integer("seed", self.seed, 0)
        _check_integer("replications", self.replications, 1, 1000)


@dataclass(frozen=True)
class MomentCheckRow:
    """One evaluation point of the moment check."""

    x: float
    mc_mean: float
    mc_variance: float  # NaN when replications < 2
    true_derivative: float
    predicted_bias: float
    predicted_variance: float
    bias_z: float
    variance_ratio: float


@dataclass(frozen=True)
class MomentCheckReport:
    config: MomentCheckConfig
    rows: tuple
    notes: tuple


def asymptotic_moment_check(
    cfg: MomentCheckConfig, *, jobs: int = 1
) -> MomentCheckReport:
    """Compare Monte Carlo moments of the estimate to their leading terms.

    The leading terms come first: a point where they cannot be evaluated
    raises ConfigError naming it before any sample is drawn.
    """
    ref = reference_for(cfg.distribution)
    xs = np.asarray(cfg.x_list, dtype=float)
    try:
        bias, var_pred = np.array([
            (asymptotics.bias_interior(ref, x, cfg.b),
             asymptotics.variance_leading(ref, x, cfg.b, cfg.n))
            for x in cfg.x_list
        ]).T
    except ValueError as exc:
        raise ConfigError(f"no leading terms for this x_list and b: {exc}") from exc
    truth = _true_derivative(ref, xs)
    batch = (cfg.n, (cfg.seed,), cfg.replications, ((FixedBandwidth(cfg.b).label, cfg.b),))
    runs = _replications(cfg.distribution, xs, [batch], jobs)
    estimates = np.vstack([derivative for _, _, [(_, derivative)] in runs])

    mc_mean = estimates.mean(axis=0)
    if cfg.replications > 1:
        mc_var = estimates.var(axis=0, ddof=1)
        notes = [
            f"the predicted variance at x={float(x)!r} is 0, so its "
            "variance ratio is undefined and reported as null"
            for x in xs[var_pred == 0.0]
        ]
    else:  # numpy warns on the variance of one row; NaN carries to every statistic
        mc_var = np.full(xs.shape, np.nan)
        notes = [
            "single replication: Monte Carlo variances (and the statistics "
            "built on them) are undefined and reported as null"
        ]
    with np.errstate(divide="ignore", invalid="ignore"):  # the masked entries
        se = np.sqrt(mc_var / cfg.replications)
        bias_z = np.where(se > 0.0, (mc_mean - truth - bias) / se, np.nan)
        variance_ratio = np.where(var_pred != 0.0, mc_var / var_pred, np.nan)
    # One row per point, its columns in MomentCheckRow's field order.
    columns = (xs, mc_mean, mc_var, truth, bias, var_pred, bias_z, variance_ratio)
    rows = tuple(MomentCheckRow(*map(float, values)) for values in zip(*columns))
    return MomentCheckReport(config=cfg, rows=rows, notes=tuple(notes))


def moment_check_dict(report: MomentCheckReport) -> dict:
    return {
        "config": report.config.to_dict(),
        "rows": [dataclasses.asdict(r) for r in report.rows],
        "notes": list(report.notes),
    }
