#!/usr/bin/env python3
"""Time the four CLI subcommands in-process on the benchmark's configs; write JSON.

    PYTHONPATH=src python3 scripts/bench_studies.py --out BENCH.json

Each measurement is one fresh interpreter that imports gammakde.cli, writes
its config, then times one ``gammakde.cli.main`` call (the study time: the
numbers and the output files, as a user's process pays for them, lazy
imports and cold caches included; interpreter start and the import of the
package are not in it). Around the same call, ``getrusage`` of the process
and of its reaped children (the pool's workers, at --jobs 2) gives the
minor page faults and the system CPU time of the study. The configs are
those of the benchmark's workloads (``bench/workloads.py``):

* reproduce: Maxwell sigma = 1, n = 200, 100 replications, default grid,
  the three bandwidth rules (mc_small_n);
* converge: the default ladder n = 500..8000, 10 replications (mc_large_n);
* verify-lemmas: n = 1e5 at x = 0.5, 1, 2, b = 0.05, 200 replications
  (moments_pool);
* bandwidths: the 16 inputs of selectors_sweep, one process for all 16.

Every command runs at --jobs 1 and --jobs 2. At --jobs 1 the reproduce
study is also split into the estimator core (``estimator._core``),
sampling (``refdens.sample``), seeding (``refdens.derived_seed``, which
holds numpy.random's lazy import) and the rest, by timing wrappers around
those three functions; they are called 15, 100 and 100 times. Each value
is the median over --rounds rounds, and every round visits every command
and job count once, so slow phases of the host spread over all of them.
The file also records the commit, the CPU count and the Python and numpy
versions. It takes about a minute and a half at the default 7 rounds.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SEED = 1
MAXWELL_1 = {"name": "maxwell", "sigma": 1.0}
SWEEP = [
    {"distribution": d, "n": n}
    for d in [{"name": "maxwell", "sigma": s} for s in (0.1, 1.0, 10.0)]
    + [{"name": "chi_square", "m": m} for m in (3, 4, 6, 10, 50)]
    for n in (200, 2000)
]
CONFIGS = {
    "reproduce": [{"distribution": MAXWELL_1, "n": 200, "seed": SEED, "replications": 100}],
    "converge": [{
        "distribution": MAXWELL_1,
        "n_list": [500, 1000, 2000, 4000, 8000],
        "seed": SEED,
        "replications": 10,
    }],
    "verify-lemmas": [{
        "distribution": MAXWELL_1,
        "x_list": [0.5, 1.0, 2.0],
        "b": 0.05,
        "n": 100_000,
        "seed": SEED,
        "replications": 200,
    }],
    "bandwidths": SWEEP,
}
JOBS = (1, 2)
SPLIT = ("core", "sampling", "seeding")


def _usage() -> tuple[int, float]:
    """Minor page faults and system CPU seconds of this process and its reaped children."""
    both = [resource.getrusage(who) for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)]
    return sum(u.ru_minflt for u in both), sum(u.ru_stime for u in both)


def _child(command: str, jobs: int, split: bool) -> dict:
    """One fresh-process measurement; run with --child."""
    import gammakde.cli
    from gammakde import estimator, harness

    spent = dict.fromkeys(SPLIT, 0.0)

    def timed(key, fn):
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                spent[key] += time.perf_counter() - start
        return wrapper

    if split:
        estimator._core = timed("core", estimator._core)
        harness.sample = timed("sampling", harness.sample)
        harness.derived_seed = timed("seeding", harness.derived_seed)
    with tempfile.TemporaryDirectory() as work:
        argvs = []
        for k, cfg in enumerate(CONFIGS[command]):
            path = Path(work) / f"config{k}.json"
            path.write_text(json.dumps(cfg), encoding="utf-8")
            argvs.append([command, "--config", str(path), "--out", str(Path(work) / "out"),
                          "--jobs", str(jobs)])
        codes = []
        usage = _usage()
        start = time.perf_counter()
        for argv in argvs:
            codes.append(gammakde.cli.main(argv))
        study = time.perf_counter() - start
        minflt, sys_s = (after - before for after, before in zip(_usage(), usage))
    result = {"study_s": study, "exit_codes": codes, "minflt": minflt, "sys_s": sys_s}
    if split:
        result["split_s"] = {**spent, "rest": study - sum(spent.values())}
    return result


def _measure(command: str, jobs: int, split: bool) -> dict:
    proc = subprocess.run(
        [sys.executable, __file__, "--child", command, str(jobs), str(int(split))],
        capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


def _child_main(command: str, jobs: str, split: str) -> int:
    with open(os.devnull, "w") as devnull:
        stdout, sys.stdout = sys.stdout, devnull  # the CLI's own summary lines
        try:
            result = _child(command, int(jobs), split == "1")
        finally:
            sys.stdout = stdout
    print(json.dumps(result))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, metavar="PATH", help="JSON file to write")
    parser.add_argument("--rounds", type=int, default=7, help="rounds (>= 1); default 7")
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be >= 1")

    import numpy as np
    from bench_estimator import _commit  # the script beside this one

    cases = [(command, jobs) for command in CONFIGS for jobs in JOBS]
    study = {case: [] for case in cases}
    faults = {case: [] for case in cases}
    system = {case: [] for case in cases}
    split = {key: [] for key in (*SPLIT, "rest")}
    codes = {}
    for _ in range(args.rounds):
        for command, jobs in cases:
            with_split = command == "reproduce" and jobs == 1
            got = _measure(command, jobs, with_split)
            study[command, jobs].append(got["study_s"])
            faults[command, jobs].append(got["minflt"])
            system[command, jobs].append(got["sys_s"])
            codes[command, jobs] = got["exit_codes"]
            if with_split:
                for key, value in got["split_s"].items():
                    split[key].append(value)

    rows = [
        {
            "command": command,
            "jobs": jobs,
            "calls": len(CONFIGS[command]),
            "exit_codes": codes[command, jobs],
            "study_s": statistics.median(study[command, jobs]),
            "study_s_rounds": study[command, jobs],
            "minflt": statistics.median(faults[command, jobs]),
            "minflt_rounds": faults[command, jobs],
            "sys_s": statistics.median(system[command, jobs]),
            "sys_s_rounds": system[command, jobs],
        }
        for command, jobs in cases
    ]
    record = {
        "what": ("study time, minor page faults and system CPU of the CLI subcommands "
                 "on the benchmark configs, fresh process each"),
        "commit": _commit(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "rounds": args.rounds,
        "results": rows,
        "reproduce_split_jobs1": {
            key: {"median_s": statistics.median(values), "rounds_s": values}
            for key, values in split.items()
        },
    }
    Path(args.out).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    for row in rows:
        print(f"{row['command']:<14} jobs={row['jobs']}  {1e3 * row['study_s']:8.1f} ms  "
              f"{row['minflt']:8.0f} minor faults  {1e3 * row['sys_s']:7.1f} ms sys  "
              f"exit {row['exit_codes']}")
    for key, row in record["reproduce_split_jobs1"].items():
        print(f"reproduce jobs=1 {key:<9} {1e3 * row['median_s']:8.1f} ms")
    return 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--child"]:
        raise SystemExit(_child_main(*sys.argv[2:]))
    raise SystemExit(main())
