"""One measured process: set up, run the workload's CLI calls, report.

Usage: python3 bench/child.py SPEC.json

The spec names the source tree gammakde must come from, the ``gammakde``
argument lists to pass to ``gammakde.cli.main`` (one per op, each with the
config file the benchmark wrote), whether to trace, and where to write the
result. Times are CLOCK_MONOTONIC readings, which the launching process
shares, so it can compute launch-to-ready without a handshake.
"""

import time

_clock = time.monotonic  # CLOCK_MONOTONIC on Linux: one time base for all processes

import contextlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402


def _cpu(usage) -> float:
    return usage.ru_utime + usage.ru_stime


def _build_inputs(gammakde, kind: str, cfg: dict):
    """Construct the validated config and reference density a caller would hold."""
    if kind == "bandwidths":
        dist = cfg["distribution"]
        params = (
            gammakde.MaxwellParams(sigma=float(dist["sigma"]))
            if dist["name"] == "maxwell"
            else gammakde.ChiSquareParams(m=int(dist["m"]))
        )
        return params, gammakde.reference_for(params)
    cls = {
        "reproduce": gammakde.ExperimentConfig,
        "converge": gammakde.ConvergenceConfig,
        "verify-lemmas": gammakde.MomentCheckConfig,
    }[kind]
    parsed = cls.from_dict(cfg)
    return parsed, gammakde.reference_for(parsed.distribution)


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    import gammakde  # from PYTHONPATH, which the launcher points at the source tree
    import gammakde.cli

    if not Path(gammakde.__file__).resolve().is_relative_to(Path(spec["src"]).resolve()):
        print(f"gammakde imported from {gammakde.__file__}, not {spec['src']}", file=sys.stderr)
        return 2
    _ = [
        _build_inputs(gammakde, op["argv"][0], json.loads(Path(op["config"]).read_text()))
        for op in spec["ops"]
    ]
    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    t_ready = _clock()

    self0 = resource.getrusage(resource.RUSAGE_SELF)
    kids0 = resource.getrusage(resource.RUSAGE_CHILDREN)
    ops = []
    t_study_start = _clock()
    for op in spec["ops"]:
        error = None
        try:
            with open(op["stderr"], "w") as err, contextlib.redirect_stderr(err):
                rc = gammakde.cli.main(op["argv"])  # looked up here: a traced main is used
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # an op that raises is counted as failed, the run goes on
            rc = -1
            error = traceback.format_exc()
        ops.append({"rc": rc, "error": error})
    t_study_end = _clock()
    self1 = resource.getrusage(resource.RUSAGE_SELF)
    kids1 = resource.getrusage(resource.RUSAGE_CHILDREN)
    if tracer is not None:
        tracer.dump(spec["spans"])
    result = {
        "t_ready": t_ready,
        "t_study_start": t_study_start,
        "t_study_end": t_study_end,
        "ops": ops,
        "study_self_cpu_s": _cpu(self1) - _cpu(self0),
        "study_children_cpu_s": _cpu(kids1) - _cpu(kids0),
        "peak_rss_kb": max(self1.ru_maxrss, kids1.ru_maxrss),
    }
    Path(spec["result"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
