#!/usr/bin/env python3
"""Time start-up, the estimator core and the four CLI studies on the benchmark's configs; write JSON.

    PYTHONPATH=src python3 scripts/bench_layers.py --out BENCH.json [--rounds R]

The estimator core is timed in this process, in ns per (observation, grid
point) pair, on two paths over the same samples: evaluate_on_grid called
once per sample, and evaluate_batch, which returns the (R, m) arrays the
studies reduce, called once on the samples a study task holds
(ceil(4096 / n) replications, as the harness groups them). Sizes n = 200,
500, 2000 and 8000 use the default 400-point grid at the plug-in
bandwidth; then the moments_pool workload's n (1e5), points and bandwidth.
Right before each core case, each round also times a reference kernel,
np.exp in place over 2^14 doubles (128 KiB, cache-resident), in ns per
element, and each core row records its ns per pair over that timing as
well: a host's speed and its slow phases move both, so the ratio compares
across files.

Start-up is one fresh interpreter per round that imports gammakde.cli and
nothing else: the wall time from launch to the end of that import, the
user and system CPU seconds the process has used by then, its thread
count (``Threads:`` in /proc/self/status), which shows whether numpy's BLAS
started worker threads, its peak resident memory (``VmHWM:``) and the
number of modules it has loaded. The peak is the process's own: Linux
carries ``ru_maxrss`` across exec, so that would read at least the RSS of
this script when it launched the child.

Each study is one fresh interpreter that imports gammakde.cli, then times
its ``gammakde.cli.main`` calls on the configs of the benchmark's
workloads (``bench/workloads.py``, full size), which this script writes
into a fresh directory: the numbers and the output files as a user's
process pays for them, lazy imports and cold caches included, without
interpreter start or the package import. The child imports this module,
so the modules only this script needs (``subprocess``, ``tempfile``,
``statistics``) are imported inside the functions that run here, and the
child refuses to time once ``subprocess`` or ``locale`` is loaded: it
would leave their import out of a study that makes it. Around the calls,
``getrusage`` of the process and of its reaped children (the pool's
workers) gives the minor page faults and the system CPU time, and after
them the child reads its own peak RSS (``VmHWM``). The four
commands are reproduce (mc_small_n), converge (mc_large_n), verify-lemmas
(moments_pool) and bandwidths (the 16 selectors_sweep inputs in one
process), each at --jobs 1 and --jobs 2.

Two study fields are deterministic, so any two runs of one tree agree on
them, as they do not on the timings and ``VmHWM``: ``traced_peak_b``, the
``tracemalloc`` peak of one extra child per study that starts tracing
right before its ``gammakde.cli.main`` calls (the bytes the process itself
allocates; tracing slows allocation, so that child is not timed, and at
--jobs 2 it leaves out the pool's workers), and ``pairs``, the (observation,
grid point) pairs its estimator evaluates, computed from its configs:
replications x n x grid points x modes for reproduce (counting every mode,
as if each selector finds its bandwidth), replications x the sum of the
ladder's n x grid points for converge, replications x n x points for
verify-lemmas, and none for bandwidths. At --jobs 1 the reproduce study
is also split into the estimator core (``estimator._core``), sampling
(``refdens.sample``), seeding (``refdens.derived_seed``, which holds
numpy.random's lazy import) and the rest, by timing wrappers around those
three functions. A study whose exit codes differ from the benchmark's
expectation (0, or 3 for a known selector defect) stops the script before
it writes anything.

Each value is the median over --rounds rounds, and every round runs
start-up, every core case and every study once, so slow phases of the
host spread over all of them. The file also records the commit of the
gammakde package measured (the one this script imports, so PYTHONPATH
selects it) and the line count of its *.py files (as wc -l counts it),
the CPU count and the Python and numpy versions. One round takes about 8
seconds on two cores.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

# gammakde before numpy: the package loads numpy with one BLAS thread, so the
# core rows run in the process state of the CLI's.
import gammakde as gk
from gammakde import estimator, harness

import numpy as np

HERE = Path(__file__).resolve().parent
PACKAGE = Path(gk.__file__).resolve().parent  # the gammakde measured
SEED = 1  # of the study configs and the core's samples
SIZES = (200, 500, 2000, 8000)  # on the default grid; then the moments_pool shape
# Pairs per timed core call, at least: enough to swamp the clock's resolution.
MIN_PAIRS = 20_000_000
JOBS = (1, 2)
SPLIT = ("core", "sampling", "seeding")
EXP_ELEMENTS = 2**14  # of the reference kernel
CHILD = f"import sys; sys.path.insert(0, {str(HERE)!r}); import bench_layers; bench_layers.child()"
STARTUP = (
    "import resource, sys, time; import gammakde.cli; end = time.monotonic(); "
    "use = resource.getrusage(resource.RUSAGE_SELF); "
    "status = open('/proc/self/status').read().split(); "
    "print(end, use.ru_utime, use.ru_stime, int(status[status.index('Threads:') + 1]), "
    "int(status[status.index('VmHWM:') + 1]) / 1024, len(sys.modules))"
)
STARTUP_KEYS = ("wall_s", "user_s", "sys_s", "threads", "vmhwm_mb", "modules")
# Modules a study may import itself, so none may be loaded before it is timed.
UNLOADED = ("subprocess", "locale")


def _usage() -> tuple[int, float]:
    """Minor page faults and system CPU seconds of this process and its reaped children."""
    both = [resource.getrusage(who) for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)]
    return sum(u.ru_minflt for u in both), sum(u.ru_stime for u in both)


def _run(argv: list, **kwargs):
    """subprocess.run capturing text output; subprocess is imported here, not in the child."""
    import subprocess

    return subprocess.run(argv, capture_output=True, text=True, **kwargs)


def child() -> None:
    """One fresh-process study: time the CLI calls of the spec on stdin (or, with
    "trace", take their tracemalloc peak instead), print JSON."""
    import gammakde.cli

    spec = json.load(sys.stdin)
    loaded = [name for name in UNLOADED if name in sys.modules]
    if loaded:
        raise SystemExit(f"the study child loaded {loaded} before timing")
    spent = dict.fromkeys(SPLIT, 0.0)

    def timed(key, fn):
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                spent[key] += time.perf_counter() - start
        return wrapper

    if spec["split"]:
        estimator._core = timed("core", estimator._core)
        harness.sample = timed("sampling", harness.sample)
        harness.derived_seed = timed("seeding", harness.derived_seed)
    if spec["trace"]:
        import tracemalloc

        tracemalloc.start()
    # The CLI's own summary lines go to devnull.
    with open(os.devnull, "w") as devnull, contextlib.redirect_stdout(devnull):
        usage = _usage()
        start = time.perf_counter()
        codes = [gammakde.cli.main(argv) for argv in spec["argvs"]]
        study = time.perf_counter() - start
        minflt, sys_s = (after - before for after, before in zip(_usage(), usage))
    if spec["trace"]:
        print(json.dumps({"exit_codes": codes, "traced_peak_b": tracemalloc.get_traced_memory()[1]}))
        return
    status = Path("/proc/self/status").read_text().split()
    vmhwm = int(status[status.index("VmHWM:") + 1]) / 1024
    result = {"study_s": study, "exit_codes": codes, "minflt": minflt, "sys_s": sys_s,
              "vmhwm_mb": vmhwm}
    if spec["split"]:
        result["split_s"] = {**spent, "rest": study - sum(spent.values())}
    print(json.dumps(result))


def _core_cases(moments: dict) -> list:
    """(call, loops, pairs, row fields) of every core case, each call made once."""
    ref = gk.maxwell_reference(1.0)
    cases = []
    for n in (*SIZES, moments["n"]):
        grid, b = (np.array(moments["x_list"]), moments["b"]) if n == moments["n"] else (
            gk.GridSpec().array(), gk.global_bandwidth_plugin(ref, n))
        run = -(-harness._RUN_ENTRIES // n)
        samples = [gk.sample(gk.MaxwellParams(1.0), n, gk.derived_seed(SEED, n, r))
                   for r in range(run)]
        pairs = run * n * grid.size
        paths = {
            "evaluate_on_grid": lambda s=samples, b=b, g=grid: [
                gk.evaluate_on_grid(x, b, g) for x in s
            ],
            "evaluate_batch": lambda s=samples, b=b, g=grid: estimator.evaluate_batch(s, b, g),
        }
        for path, call in paths.items():
            call()  # warm the plan memo
            fields = {"n": n, "path": path, "samples": run, "grid_points": grid.size,
                      "bandwidth": b}
            cases.append((call, -(-MIN_PAIRS // pairs), pairs, fields))
    return cases


def _pairs(command: str, config: dict) -> int:
    """The (observation, grid point) pairs a study's estimator evaluates, from its config."""
    if command == "reproduce":
        cfg = harness.ExperimentConfig.from_dict(config)
        return cfg.replications * cfg.n * cfg.grid.points * len(cfg.bandwidth_modes)
    if command == "converge":
        cfg = harness.ConvergenceConfig.from_dict(config)
        return cfg.replications * sum(cfg.n_list) * cfg.grid.points
    if command == "verify-lemmas":
        cfg = harness.MomentCheckConfig.from_dict(config)
        return cfg.replications * cfg.n * len(cfg.x_list)
    return 0  # bandwidths runs no estimator


def _exp_ns_per_element() -> float:
    """One timing of the reference kernel: np.exp over EXP_ELEMENTS doubles, in place."""
    x = np.linspace(-4.0, 0.0, EXP_ELEMENTS)
    out = np.empty_like(x)
    np.exp(x, out=out)  # warm the cache
    loops = -(-MIN_PAIRS // EXP_ELEMENTS)
    start = time.perf_counter()
    for _ in range(loops):
        np.exp(x, out=out)
    return (time.perf_counter() - start) * 1e9 / (loops * EXP_ELEMENTS)


def _startup() -> dict:
    """One fresh ``import gammakde.cli``: wall time from launch, CPU, threads, peak RSS, modules."""
    start = time.monotonic()  # CLOCK_MONOTONIC, shared with the child
    proc = _run([sys.executable, "-c", STARTUP], check=True)
    end, user, system, threads, vmhwm, modules = proc.stdout.split()
    return dict(zip(STARTUP_KEYS, (float(end) - start, float(user), float(system),
                                   int(threads), float(vmhwm), int(modules))))


def _measure(command: str, jobs: int, configs: list, split: bool, trace: bool = False) -> dict:
    """One study in a fresh child, on configs written into a fresh directory."""
    import tempfile

    with tempfile.TemporaryDirectory() as work:
        argvs = []
        for k, cfg in enumerate(configs):
            path = Path(work) / f"config{k}.json"
            path.write_text(json.dumps(cfg), encoding="utf-8")
            argvs.append([command, "--config", str(path), "--out", str(Path(work) / "out"),
                          "--jobs", str(jobs)])
        spec = {"argvs": argvs, "split": split, "trace": trace}
        proc = _run([sys.executable, "-c", CHILD], input=json.dumps(spec))
    if proc.returncode:
        raise SystemExit(f"{command} --jobs {jobs}: the study child failed\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def _median(values: list) -> float:
    # statistics imports fractions and decimal; importing it here, not at the
    # top, keeps them out of the study child, which imports this module.
    import statistics

    return statistics.median(values)


def _stat(name: str, values: list) -> dict:
    return {name: _median(values), f"{name}_rounds": values}


def _commit() -> str | None:
    try:
        proc = _run(["git", "describe", "--always", "--dirty", "--abbrev=40"], cwd=PACKAGE)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, metavar="PATH", help="JSON file to write")
    parser.add_argument("--rounds", type=int, default=7, help="rounds (>= 1); default 7")
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be >= 1")

    sys.path.insert(0, str(HERE.parent / "bench"))
    from workloads import WORKLOADS

    ops = {}
    for workload in WORKLOADS.values():
        for op in workload.ops(SEED, "full"):
            ops.setdefault(op.command, []).append(op)
    cores = _core_cases(ops["verify-lemmas"][0].config)
    studies = [(command, jobs) for command in ops for jobs in JOBS]

    def expected(command):
        return [3 if op.expect_error else 0 for op in ops[command]]

    def measured(command, jobs, **kwargs):
        result = _measure(command, jobs, [op.config for op in ops[command]], **kwargs)
        if result["exit_codes"] != expected(command):
            parser.exit(1, f"{command} --jobs {jobs} exited {result['exit_codes']}, "
                           f"the benchmark expects {expected(command)}; {args.out} not written\n")
        return result

    traced = {(command, jobs): measured(command, jobs, split=False, trace=True)["traced_peak_b"]
              for command, jobs in studies}
    ns = [[] for _ in cores]
    exp_ns = [[] for _ in cores]
    got = {case: [] for case in studies}
    starts = []
    for _ in range(args.rounds):
        starts.append(_startup())
        for times, refs, (call, loops, pairs, _) in zip(ns, exp_ns, cores):
            refs.append(_exp_ns_per_element())
            start = time.perf_counter()
            for _ in range(loops):
                call()
            times.append((time.perf_counter() - start) * 1e9 / (loops * pairs))
        for command, jobs in studies:
            got[command, jobs].append(
                measured(command, jobs, split=command == "reproduce" and jobs == 1))

    rows = [
        {**fields, **_stat("ns_per_pair", times),
         **_stat("ns_per_pair_over_exp", [t / e for t, e in zip(times, refs)])}
        for times, refs, (*_, fields) in zip(ns, exp_ns, cores)
    ]
    results = []
    for command, jobs in studies:
        runs = got[command, jobs]
        row = {"command": command, "jobs": jobs, "calls": len(ops[command]),
               "exit_codes": runs[-1]["exit_codes"],
               "pairs": sum(_pairs(command, op.config) for op in ops[command]),
               "traced_peak_b": traced[command, jobs]}
        for key in ("study_s", "minflt", "sys_s", "vmhwm_mb"):
            row.update(_stat(key, [r[key] for r in runs]))
        results.append(row)
    startup = {"what": ("a fresh interpreter's `import gammakde.cli`: wall seconds from "
                        "launch, user and system CPU seconds, threads, peak RSS in MB "
                        "(VmHWM) and modules in sys.modules, at the import's end")}
    for key in STARTUP_KEYS:
        startup.update(_stat(key, [s[key] for s in starts]))
    split = {key: [r["split_s"][key] for r in got["reproduce", 1]] for key in (*SPLIT, "rest")}
    record = {
        "what": ("start-up of a fresh process importing the CLI; estimator core ns per "
                 "(observation, grid point) pair, in the measuring process, also over "
                 "the reference kernel's ns per element; study time, minor page faults, "
                 "system CPU and the process's own peak RSS in MB (VmHWM) of the CLI "
                 "subcommands on the benchmark configs, a fresh process each, with the "
                 "estimator pairs computed from the configs and the tracemalloc peak "
                 "in bytes of one more fresh process per study"),
        "commit": _commit(),
        "src_lines": sum(p.read_bytes().count(b"\n") for p in PACKAGE.glob("*.py")),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "rounds": args.rounds,
        "reference_kernel": {
            "what": (f"np.exp in place over {EXP_ELEMENTS} float64, ns per element, "
                     "timed before each core case of each round"),
            **_stat("ns_per_element", [e for refs in exp_ns for e in refs]),
        },
        "startup": startup,
        "estimator": rows,
        "studies": results,
        "reproduce_split_jobs1": {
            key: {"median_s": _median(values), "rounds_s": values}
            for key, values in split.items()
        },
    }
    Path(args.out).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"{PACKAGE} {record['src_lines']} lines")
    print(f"startup {1e3 * startup['wall_s']:.1f} ms wall  {1e3 * startup['user_s']:.1f} ms user  "
          f"{1e3 * startup['sys_s']:.1f} ms sys  {startup['threads']:.0f} threads  "
          f"{startup['vmhwm_mb']:.2f} MB peak  {startup['modules']:.0f} modules")
    print(f"reference kernel {record['reference_kernel']['ns_per_element']:.3f} ns/element")
    for row in rows:
        print(f"n={row['n']:<7} {row['path']:<17} samples={row['samples']:<3} "
              f"{row['ns_per_pair']:.2f} ns/pair  {row['ns_per_pair_over_exp']:.2f} x exp")
    for row in results:
        print(f"{row['command']:<14} jobs={row['jobs']}  {1e3 * row['study_s']:8.1f} ms  "
              f"{row['minflt']:8.0f} minor faults  {1e3 * row['sys_s']:7.1f} ms sys  "
              f"{row['vmhwm_mb']:6.2f} MB peak  {row['traced_peak_b']:>10,} B traced  "
              f"{row['pairs']:>12,} pairs")
    for key, value in record["reproduce_split_jobs1"].items():
        print(f"reproduce jobs=1 {key:<9} {1e3 * value['median_s']:8.1f} ms")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
