"""Command-line entry point.

Subcommands
-----------
reproduce     repeated-sampling experiment(s); default: the Maxwell study
              at n = 200 and n = 2000 with all three bandwidth rules
bandwidths    bandwidth selectors and their audit constants for one config
converge      MISE decay-rate study across a ladder of sample sizes
verify-lemmas Monte Carlo check of the leading bias/variance predictions

Common flags: --config (JSON file), --out (output directory; overrides the
GAMMAKDE_OUT environment variable, which in turn overrides the config's
output_dir), --jobs (worker processes). Every subcommand but bandwidths,
which draws no sample, takes --seed (override); bandwidths accepts --jobs
for a uniform command line but runs in one process.

The studies in `harness` return their results; this module writes them,
an experiment's report.json and curve CSVs through `harness.write_report`.

Exit codes: 0 success, 2 configuration error, 3 numerical failure,
4 partial results (some bandwidth rules failed; everything else written).

Cost model: importing this module imports the package, numpy, argparse and
json, but not the process pool: the first study that starts a pool (--jobs
2 or more, with more than one task and CPU) imports it, multiprocessing and
subprocess among some 30 modules, before it forks. The argument parser
is built once per process, on the first main() call, and each call after
that only parses. The exact selector sums of a family are computed once per
process too (see `asymptotics`), and the estimator core keeps one workspace
buffer per thread (see `estimator`), so repeated calls in one process pay
for their numbers and their output files only. No command calls LAPACK:
converge fits its rate line in closed form.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import sys
from pathlib import Path

from . import asymptotics, harness, numerics
from .harness import (
    BandwidthsConfig,
    ConfigError,
    ConvergenceConfig,
    ExperimentConfig,
    MomentCheckConfig,
)
from .ioutil import write_json
from .refdens import reference_for

__all__ = ["main"]

_OUT_ENV = "GAMMAKDE_OUT"
_DEFAULT_OUT = "gammakde_out"
_DEFAULT_SEED = 20260815
_MAXWELL_1 = {"name": "maxwell", "sigma": 1.0}

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_PARTIAL = 4


def _load_config(args, cls, default: dict | None = None):
    """The --config file, else `default`, parsed as `cls`; --seed replaces its seed."""
    if args.config is None:
        obj = default
    else:
        try:
            obj = json.loads(Path(args.config).read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:  # not JSON, not UTF-8, or an overlong integer
            raise ConfigError(f"cannot read config file {args.config}: {exc}") from exc
    cfg = cls.from_dict(obj)
    if getattr(args, "seed", None) is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    return cfg


def _resolve_out(args, cfg_output_dir: str | None) -> Path:
    if args.out is not None:
        return Path(args.out)
    env = os.environ.get(_OUT_ENV)
    if env:
        return Path(env)
    if cfg_output_dir:
        return Path(cfg_output_dir)
    return Path(_DEFAULT_OUT)


def _save_json(obj: dict, out: Path, name: str) -> None:
    """Write obj as `name` into the directory `out` and say where it went."""
    out.mkdir(parents=True, exist_ok=True)
    write_json(obj, out / name)
    print(f"report written to {out / name}")


def _print_experiment_summary(report: harness.ExperimentReport) -> None:
    cfg = report.config
    print(f"[{cfg.distribution.label} n={cfg.n} replications={cfg.replications}]")
    for label, b in report.bandwidths.items():
        stats = report.summary[label]
        print(
            f"  {label:<12} b={b:.6f}  mean ISE={stats['mean']:.6f}  "
            f"median ISE={stats['median']:.6f}"
        )
    for label, message in report.bandwidth_errors.items():
        print(f"  {label:<12} FAILED: {message}")
    for note in report.notes:
        print(f"  note: {note}")


def _cmd_reproduce(args) -> int:
    if args.config is not None:
        cfg = _load_config(args, ExperimentConfig)
        partial = _run_one_experiment(cfg, _resolve_out(args, cfg.output_dir), args.jobs)
    else:
        partial = False
        for n in (200, 2000):
            default = {
                "distribution": _MAXWELL_1,
                "n": n,
                "seed": _DEFAULT_SEED,
                "replications": 200,
            }
            cfg = _load_config(args, ExperimentConfig, default)
            out = _resolve_out(args, None) / f"n{n}"
            partial |= _run_one_experiment(cfg, out, args.jobs)
    return EXIT_PARTIAL if partial else EXIT_OK


def _run_one_experiment(cfg: ExperimentConfig, out: Path, jobs: int) -> bool:
    """Run one experiment and write it into `out`; returns True when partial."""
    report = harness.run_experiment(cfg, jobs=jobs)
    harness.write_report(report, out)
    _print_experiment_summary(report)
    if report.bandwidth_errors:
        modes = ", ".join(sorted(report.bandwidth_errors))
        failed = f"bandwidth selection failed for mode(s): {modes}"
        print(f"partial results written to {out}: {failed}", file=sys.stderr)
        return True
    print(f"report written to {out}")
    return False


def _cmd_bandwidths(args) -> int:
    cfg = _load_config(args, BandwidthsConfig, {"distribution": _MAXWELL_1, "n": 2000})
    report = asymptotics.bandwidth_report(reference_for(cfg.distribution), cfg.n)
    print(
        f"[{cfg.distribution.label} n={cfg.n}] plugin={report.b_plugin:.6f} "
        f"refined={report.b_refined:.6f} chen={report.b_chen:.6f}"
    )
    out = _resolve_out(args, cfg.output_dir)
    _save_json(dataclasses.asdict(report), out, "bandwidths.json")
    return EXIT_OK


def _cmd_converge(args) -> int:
    default = {
        "distribution": _MAXWELL_1,
        "n_list": [500, 1000, 2000, 4000, 8000],
        "seed": _DEFAULT_SEED,
        "replications": 200,
    }
    cfg = _load_config(args, ConvergenceConfig, default)
    result = harness.convergence_study(cfg, jobs=args.jobs)
    print(f"[{cfg.distribution.label}] fitted log-log MISE slope: {result.slope:.4f}")
    for n, mise in result.points:
        print(f"  n={n:<7} mean ISE={mise:.6f}")
    out = _resolve_out(args, cfg.output_dir)
    _save_json(harness.convergence_result_dict(cfg, result), out, "convergence.json")
    return EXIT_OK


def _cmd_verify_lemmas(args) -> int:
    default = {
        "distribution": _MAXWELL_1,
        "x_list": [0.5, 1.0, 2.0],
        "b": 0.05,
        "n": 100_000,
        "seed": _DEFAULT_SEED,
        "replications": 200,
    }
    cfg = _load_config(args, MomentCheckConfig, default)
    report = harness.asymptotic_moment_check(cfg, jobs=args.jobs)
    print(f"[{cfg.distribution.label} n={cfg.n} b={cfg.b} replications={cfg.replications}]")
    for row in report.rows:
        print(
            f"  x={row.x:<6g} bias z-score={row.bias_z:+.3f}  "
            f"variance ratio={row.variance_ratio:.3f}"
        )
    for note in report.notes:
        print(f"  note: {note}")
    out = _resolve_out(args, None)
    _save_json(harness.moment_check_dict(report), out, "moment_check.json")
    return EXIT_OK


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first main() call and reused."""
    parser = argparse.ArgumentParser(
        prog="gammakde",
        description="Gamma-kernel density-derivative estimation experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn, blurb in (
        ("reproduce", _cmd_reproduce, "run the repeated-sampling experiment(s)"),
        ("bandwidths", _cmd_bandwidths, "compute bandwidth selectors for one config"),
        ("converge", _cmd_converge, "fit the MISE decay rate over sample sizes"),
        ("verify-lemmas", _cmd_verify_lemmas, "check leading bias/variance terms"),
    ):
        p = sub.add_parser(name, help=blurb)
        p.add_argument("--config", metavar="PATH", help="JSON config file")
        p.add_argument("--out", metavar="DIR", help="output directory")
        if name == "bandwidths":
            # No sample, so no seed; --jobs is kept so that one command line
            # works for every subcommand.
            jobs_help = "accepted and unused: bandwidths runs in one process"
        else:
            p.add_argument("--seed", type=int, help="override the config seed")
            jobs_help = "worker processes"
        p.add_argument("--jobs", type=int, default=1, help=jobs_help)
        p.set_defaults(fn=fn)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.jobs < 1:
        print("error: --jobs must be >= 1", file=sys.stderr)
        return EXIT_CONFIG
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (numerics.IntegrationError, numerics.NoRootError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
