#!/usr/bin/env python3
"""Time the estimator core per (observation, grid point) pair and write JSON.

    PYTHONPATH=src python3 scripts/bench_estimator.py --out BENCH.json

Two paths are timed on the same samples: evaluate_on_grid called once per
sample, and evaluate_batch called once on the samples a study task holds
(ceil(4096 / n) replications, as the harness groups them). Sizes n = 200,
500, 2000 and 8000 use the default 400-point grid at the plug-in
bandwidth; n = 1e5 uses the verify-lemmas shape, x = 0.5, 1, 2 at b = 0.05.
Each value is the median over --rounds rounds, and every round visits every
size and path once, so slow phases of the host spread over all of them.
The file also records the commit, the CPU count and the Python and numpy
versions. It takes about fifteen seconds at the default 9 rounds.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import time
from pathlib import Path

import numpy as np

import gammakde as gk
from gammakde import estimator, harness

SIZES = (200, 500, 2000, 8000, 100_000)
# Pairs per timed call, at least: enough to swamp the clock's resolution.
MIN_PAIRS = 20_000_000


def _shape(n: int) -> tuple[np.ndarray, float]:
    """Grid and bandwidth of size n."""
    if n > 8000:
        return np.array([0.5, 1.0, 2.0]), 0.05
    ref = gk.maxwell_reference(1.0)
    return gk.GridSpec().array(), gk.global_bandwidth_plugin(ref, n)


def _commit() -> str | None:
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--abbrev=40"],
            cwd=Path(__file__).resolve().parent,
            capture_output=True,
            text=True,
            check=True,
        )
    except (OSError, subprocess.CalledProcessError):
        return None
    return out.stdout.strip()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, metavar="PATH", help="JSON file to write")
    parser.add_argument("--rounds", type=int, default=9, help="rounds (>= 1); default 9")
    parser.add_argument("--seed", type=int, default=13, help="sample seed; default 13")
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be >= 1")

    cases = []
    for n in SIZES:
        grid, b = _shape(n)
        run = -(-harness._RUN_ENTRIES // n)
        samples = [
            gk.sample(gk.MaxwellParams(1.0), n, gk.derived_seed(args.seed, n, r))
            for r in range(run)
        ]
        pairs = run * n * grid.size
        paths = {
            "evaluate_on_grid": lambda s=samples, b=b, g=grid: [
                gk.evaluate_on_grid(x, b, g) for x in s
            ],
            "evaluate_batch": lambda s=samples, b=b, g=grid: estimator.evaluate_batch(s, b, g),
        }
        for path, call in paths.items():
            call()  # warm the plan memo
            cases.append((n, path, call, -(-MIN_PAIRS // pairs), pairs, run, b, grid.size))

    times = {(n, path): [] for n, path, *_ in cases}
    for _ in range(args.rounds):
        for n, path, call, loops, pairs, *_ in cases:
            start = time.perf_counter()
            for _ in range(loops):
                call()
            times[n, path].append((time.perf_counter() - start) * 1e9 / (loops * pairs))

    rows = []
    for n, path, _, loops, pairs, run, b, points in cases:
        ns = times[n, path]
        rows.append({
            "n": n,
            "path": path,
            "samples": run,
            "grid_points": points,
            "bandwidth": b,
            "ns_per_pair": statistics.median(ns),
            "ns_per_pair_rounds": ns,
        })
    record = {
        "what": "estimator core, ns per (observation, grid point) pair",
        "commit": _commit(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "rounds": args.rounds,
        "results": rows,
    }
    Path(args.out).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    for row in rows:
        print(f"n={row['n']:<7} {row['path']:<17} samples={row['samples']:<3} "
              f"{row['ns_per_pair']:.2f} ns/pair")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
