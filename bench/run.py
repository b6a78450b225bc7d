"""Benchmark of the gammakde study commands.

Usage (from the root of a source checkout):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each measured process is a fresh interpreter (bench/child.py) that imports
gammakde from ./src and calls ``gammakde.cli.main`` with config files
written here. Processes are launched one after another, closed loop, until
``--seconds`` have passed (at least three), and every output is checked.

--trace 0 prints the end-to-end metrics: medians over the processes of the
run. --trace 1 alternates untraced and traced processes and prints the
per-layer metrics taken from the traced ones, plus the tracing overhead.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
carry the host facts and the spread of every metric. A full record of the
run is written to bench/_out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "_out"

MIN_PROCESSES = 3
MIN_TRACED = 2
RUN_CAP_S = 150.0  # stop launching once a run could overrun its 180 s limit
CHILD_TIMEOUT_S = 120.0

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "ops_per_s": "1/s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
}
NS_PER_PAIR_SIZES = (200, 500, 1000, 2000, 4000, 8000, 100_000)
PER_LAYER = {
    "specfun.log_gamma.calls": "count",
    "specfun.digamma.calls": "count",
    "specfun.self_s": "s",
    "kernels.shape_params.calls": "count",
    "kernels.self_s": "s",
    "estimator.evaluate_on_grid.calls": "count",
    "estimator.self_s": "s",
    "estimator.pairs": "count",
    **{f"estimator.ns_per_pair.n{n}": "ns" for n in NS_PER_PAIR_SIZES},
    "refdens.sample.calls": "count",
    "refdens.sample.self_s": "s",
    "refdens.ns_per_draw": "ns",
    "numerics.integrate_semi_infinite.calls": "count",
    "numerics.quad_evals": "count",
    "numerics.find_root.calls": "count",
    "numerics.self_s": "s",
    "asymptotics.mise_integrals.self_s": "s",
    "asymptotics.chen_constants.calls": "count",
    "asymptotics.refined_bandwidth.roots": "count",
    "asymptotics.self_s": "s",
    "harness.self_s": "s",
    "harness.tasks": "count",
    "harness.pool_efficiency": "ratio",
    "ioutil.write_json.calls": "count",
    "ioutil.self_s": "s",
    "ioutil.bytes_written": "bytes",
    "cli.self_s": "s",
    "trace.overhead_ratio": "ratio",
}


def _child_env() -> dict:
    """The caller's environment with ./src first on the import path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


class Run:
    """State of one benchmark run: the workload, its ops and the work area."""

    def __init__(self, gk, workload, seed: int, size: str, work: Path):
        self.gk = gk
        self.workload = workload
        self.seed = seed
        self.ops = workload.ops(seed, size)
        self.work = work
        self.count = 0
        config_dir = work / "configs"
        config_dir.mkdir(parents=True)
        self.config_paths = []
        for op in self.ops:
            path = config_dir / f"{op.label}.json"
            path.write_text(json.dumps(op.config), encoding="utf-8")
            self.config_paths.append(path)

    def invoke(self, *, jobs: int, trace: bool) -> dict:
        """Launch one measured process, wait for it, check its outputs."""
        self.count += 1
        inv = self.work / f"p{self.count}"
        out = inv / "out"
        out.mkdir(parents=True)
        ops = [
            {
                "argv": [op.command, "--config", str(path), "--out", str(out / op.label),
                         "--jobs", str(jobs)],
                "config": str(path),
                "stderr": str(inv / f"{op.label}.stderr"),
            }
            for op, path in zip(self.ops, self.config_paths)
        ]
        spec = {
            "src": str(SRC),
            "ops": ops,
            "trace": trace,
            "result": str(inv / "result.json"),
            "spans": str(inv / "spans"),
        }
        (inv / "spec.json").write_text(json.dumps(spec), encoding="utf-8")
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        with open(inv / "stdout.txt", "wb") as so, open(inv / "stderr.txt", "wb") as se:
            t_launch = time.monotonic()
            proc = subprocess.Popen(
                [sys.executable, str(HERE / "child.py"), str(inv / "spec.json")],
                stdout=so, stderr=se, cwd=inv, env=_child_env(), start_new_session=True,
            )
            # A blocking wait reads the exit time exactly; Popen.wait(timeout)
            # polls at up to 50 ms. The timer ends a hung process (and its
            # pool workers) instead; the failure is reported below.
            watchdog = threading.Timer(CHILD_TIMEOUT_S, _kill_group, (proc.pid,))
            watchdog.start()
            try:
                proc.wait()
            finally:
                watchdog.cancel()
                if proc.poll() is None:
                    _kill_group(proc.pid)
                    proc.wait()
            t_exit = time.monotonic()
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        sample = {
            "trace": trace,
            "jobs": jobs,
            "wall_s": t_exit - t_launch,
            "cpu_s": (after.ru_utime + after.ru_stime) - (before.ru_utime + before.ru_stime),
            "attempted": sum(op.tasks for op in self.ops),
            "ok": 0,
            "expected_failures": 0,
            "problems": [],
        }
        result_path = inv / "result.json"
        if proc.returncode != 0 or not result_path.exists():
            stderr = (inv / "stderr.txt").read_text(errors="replace")[-2000:]
            sample["problems"].append(f"process exited {proc.returncode}: {stderr}")
        else:
            self._check(sample, json.loads(result_path.read_text()), t_launch, out, trace, inv)
        shutil.rmtree(inv)
        return sample

    def _check(self, sample, result, t_launch, out, trace, inv) -> None:
        study_s = result["t_study_end"] - result["t_study_start"]
        sample.update(
            setup_s=result["t_ready"] - t_launch,
            study_s=study_s,
            ops_per_s=sample["attempted"] / study_s,
            peak_rss_mb=result["peak_rss_kb"] / 1024.0,
            study_self_cpu_s=result["study_self_cpu_s"],
            study_children_cpu_s=result["study_children_cpu_s"],
            bytes_written=sum(f.stat().st_size for f in out.rglob("*") if f.is_file()),
        )
        seen: dict = {}
        for op, op_result in zip(self.ops, result["ops"]):
            stderr = (inv / f"{op.label}.stderr").read_text(errors="replace")
            if op_result["error"]:
                problems = [op_result["error"]]
            else:
                try:
                    problems = self.workload.check(
                        self.gk, op, op_result["rc"], out / op.label, stderr, seen
                    )
                except (OSError, KeyError, ValueError, TypeError) as exc:
                    problems = [f"unreadable output: {type(exc).__name__}: {exc}"]
            if problems:
                sample["problems"].extend(f"{op.label}: {p}" for p in problems)
            elif op_result["rc"] == 0:
                sample["ok"] += op.tasks
            else:
                sample["expected_failures"] += op.tasks
        sample["problems"].extend(self.workload.check_run(seen))
        if trace:
            import tracer

            meta, cols = tracer.load(inv / "spans")
            sample["trace_summary"] = tracer.summarize(meta, cols)
            sample["trace_meta"] = {k: meta[k] for k in ("counters", "errors", "quad_calls")}


def _spread(values: list[float]) -> dict:
    values = sorted(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "min": values[0],
        "max": values[-1],
        "n": len(values),
    }


def _median_of(samples: list[dict], key: str) -> float:
    values = [s[key] for s in samples if key in s]
    return statistics.median(values) if values else 0.0


def end_to_end(samples: list[dict]) -> tuple[dict, dict]:
    """Median of each end-to-end metric over the processes, with its spread."""
    spreads = {}
    for key in ("wall_s", "setup_s", "ops_per_s", "cpu_s", "peak_rss_mb"):
        values = [s[key] for s in samples if key in s]
        if values:
            spreads[key] = _spread(values)
    attempted = sum(s["attempted"] for s in samples)
    ok = sum(s["ok"] for s in samples)
    metrics = {key: spreads[key]["median"] if key in spreads else 0.0 for key in END_TO_END}
    metrics["ok_frac"] = ok / attempted
    spreads["fail_frac"] = {"value": 1.0 - ok / attempted}
    return metrics, spreads


def _pool_efficiency(samples: list[dict]) -> float:
    """Worker CPU over jobs x study wall; at jobs 1 the process is its own worker."""
    values = []
    for s in samples:
        if "study_s" not in s:
            continue
        cpu = s["study_children_cpu_s"] if s["jobs"] > 1 else s["study_self_cpu_s"]
        values.append(cpu / (s["jobs"] * s["study_s"]))
    return statistics.median(values) if values else 0.0


def _counts_fingerprint(sample: dict) -> str:
    summary = sample["trace_summary"]["functions"]
    calls = {name: row["calls"] for name, row in summary.items()}
    meta = sample["trace_meta"]
    return json.dumps([calls, meta["counters"], meta["quad_calls"], meta["errors"]], sort_keys=True)


def quad_eval_notes(sample: dict, maxwell_1_only: bool) -> list[str]:
    """Quadrature evaluations per call, grouped by the asking function.

    When every op uses Maxwell sigma=1, each group is compared with the
    counts recorded for it; a difference is reported, not failed, because a
    better quadrature may legitimately change it.
    """
    from workloads import EXPECTED

    want = EXPECTED["maxwell_sigma1_quad_evals"]
    got: dict[str, list] = {}
    for caller, evals in sample["trace_meta"]["quad_calls"]:
        got.setdefault(caller, []).append(evals)
    notes = []
    for caller, per_call in got.items():
        pattern = want.get(caller)
        note = f"{caller}: {len(per_call)} quadratures, evaluations {per_call}"
        if maxwell_1_only and pattern is not None:
            k = len(pattern)
            groups = [per_call[i:i + k] for i in range(0, len(per_call), k)]
            same = all(g == pattern for g in groups)
            note += f" ({len(groups)} x recorded {pattern})" if same else (
                f" DIFFERS from recorded {pattern} per call"
            )
        notes.append(note)
    return notes


def ns_per_pair(gk, seed: int, repeats: int) -> dict:
    """Untraced evaluate_on_grid time per (sample, grid point) pair, in ns.

    The default 400-point grid at the plug-in bandwidth for n <= 8000 and the
    verify-lemmas shape (x = 0.5, 1, 2 at b = 0.05) for n = 1e5; the median
    of `repeats` calls after one warm-up call.
    """
    ref = gk.maxwell_reference(1.0)
    ints = gk.mise_integrals(ref)
    out = {}
    for n in NS_PER_PAIR_SIZES:
        s = gk.sample(gk.MaxwellParams(1.0), n, gk.derived_seed(seed, n))
        if n > 8000:
            grid, b = [0.5, 1.0, 2.0], 0.05
        else:
            grid, b = gk.GridSpec().array(), gk.global_bandwidth_plugin(ref, n, integrals=ints)
        gk.evaluate_on_grid(s, b, grid)
        times = []
        for _ in range(repeats):
            start = time.perf_counter()
            gk.evaluate_on_grid(s, b, grid)
            times.append(time.perf_counter() - start)
        out[n] = statistics.median(times) * 1e9 / (n * len(grid))
    return out


def per_layer(run: Run, sets: dict, repeats: int) -> tuple[dict, list[str], list[str]]:
    """Per-layer metrics from the traced processes; (metrics, problems, notes)."""
    from workloads import MAXWELL_1

    traced, baseline, pool = sets["traced"], sets["baseline"], sets["pool"]
    problems = []
    prints = {_counts_fingerprint(s) for s in traced}
    if len(prints) != 1:
        problems.append("trace counters differ between traced processes of one run")
    first = traced[0]
    counters = first["trace_meta"]["counters"]
    functions = first["trace_summary"]["functions"]

    def calls(name):
        return functions.get(name, {}).get("calls", 0)

    def self_s(name):
        return statistics.median(
            s["trace_summary"]["functions"].get(name, {}).get("self_s", 0.0) for s in traced
        )

    def layer_s(layer):
        return statistics.median(s["trace_summary"]["layer_self_s"][layer] for s in traced)

    draws = counters.get("refdens.draws", 0)
    metrics = {
        "specfun.log_gamma.calls": calls("specfun.log_gamma"),
        "specfun.digamma.calls": calls("specfun.digamma"),
        "specfun.self_s": layer_s("specfun"),
        "kernels.shape_params.calls": calls("kernels.shape_params"),
        "kernels.self_s": layer_s("kernels"),
        "estimator.evaluate_on_grid.calls": calls("estimator.evaluate_on_grid"),
        "estimator.self_s": layer_s("estimator"),
        "estimator.pairs": counters.get("estimator.pairs", 0),
        "refdens.sample.calls": calls("refdens.sample"),
        "refdens.sample.self_s": self_s("refdens.sample"),
        "refdens.ns_per_draw": self_s("refdens.sample") * 1e9 / draws if draws else 0.0,
        "numerics.integrate_semi_infinite.calls": calls("numerics.integrate_semi_infinite"),
        "numerics.quad_evals": counters.get("numerics.quad_evals", 0),
        "numerics.find_root.calls": calls("numerics.find_root"),
        "numerics.self_s": layer_s("numerics"),
        "asymptotics.mise_integrals.self_s": self_s("asymptotics.mise_integrals"),
        "asymptotics.chen_constants.calls": calls("asymptotics.chen_constants"),
        "asymptotics.refined_bandwidth.roots": counters.get(
            "asymptotics.refined_bandwidth.roots", 0
        ),
        "asymptotics.self_s": layer_s("asymptotics"),
        "harness.self_s": layer_s("harness"),
        "harness.tasks": counters.get("harness.tasks", 0),
        "harness.pool_efficiency": _pool_efficiency(pool),
        "ioutil.write_json.calls": calls("ioutil.write_json"),
        "ioutil.self_s": layer_s("ioutil"),
        "ioutil.bytes_written": first["bytes_written"],
        "cli.self_s": layer_s("cli"),
        "trace.overhead_ratio": _median_of(traced, "wall_s") / _median_of(baseline, "wall_s"),
    }
    for n, value in ns_per_pair(run.gk, run.seed, repeats).items():
        metrics[f"estimator.ns_per_pair.n{n}"] = value
    notes = quad_eval_notes(
        first, all(op.config["distribution"] == MAXWELL_1 for op in run.ops)
    )
    return {k: metrics[k] for k in PER_LAYER}, problems, notes


def host_facts(gk, args) -> dict:
    import numpy

    digest = hashlib.sha256()
    for path in sorted((SRC / "gammakde").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True
        )
        commit = done.stdout.strip() or None
    cpu_model = platform.processor() or None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu_model = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                cpu_model,
            )
    except OSError:
        pass
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "gammakde": gk.__version__,
        "commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def measure(run: Run, args) -> tuple[list[dict], dict]:
    """Launch processes until the time is up; returns (samples, per-layer record)."""
    start = time.monotonic()
    jobs = run.workload.jobs

    def time_left(kinds_done: bool, last: float) -> bool:
        elapsed = time.monotonic() - start
        return not kinds_done or (elapsed < args.seconds and elapsed + last < RUN_CAP_S)

    if not args.trace:
        samples: list[dict] = []
        while time_left(len(samples) >= MIN_PROCESSES, samples[-1]["wall_s"] if samples else 0):
            samples.append(run.invoke(jobs=jobs, trace=False))
        return samples, {}
    traced, baseline, pool = [], [], []
    last = 0.0
    while time_left(len(traced) >= MIN_TRACED and len(baseline) >= MIN_TRACED, last):
        traced.append(run.invoke(jobs=1, trace=True))
        baseline.append(run.invoke(jobs=1, trace=False))
        last = traced[-1]["wall_s"] + baseline[-1]["wall_s"]
        if jobs > 1:
            pool.append(run.invoke(jobs=jobs, trace=False))
            last += pool[-1]["wall_s"]
    return traced + baseline + pool, {"traced": traced, "baseline": baseline,
                                       "pool": pool or baseline}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: smallest inputs, for the smoke test")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (SRC / "gammakde" / "__init__.py").is_file():
        print(f"error: no gammakde source tree at {SRC}", file=sys.stderr)
        return 2

    sys.path.insert(0, str(SRC))
    import gammakde as gk

    from workloads import EXPECTED, WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    # Compile bytecode and warm the file cache once, as an installed package would be.
    subprocess.run([sys.executable, "-c", "import gammakde.cli"], env=_child_env(), check=True)

    work = OUT / f"work-{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        run = Run(gk, workload, args.seed, args.size, work)
        samples, traced_sets = measure(run, args)
        problems = [p for s in samples for p in s["problems"]]
        record = {"host": host_facts(gk, args)}
        if args.trace:
            if all("trace_summary" in s for s in traced_sets["traced"]):
                metrics, trace_problems, notes = per_layer(
                    run, traced_sets, repeats=5 if args.size == "full" else 1
                )
            else:
                metrics, trace_problems, notes = {k: 0.0 for k in PER_LAYER}, [], []
            problems += trace_problems
            units = PER_LAYER
            record["trace"] = {
                "summary": traced_sets["traced"][0].get("trace_summary", {}),
                "counter_notes": notes,
            }
        else:
            metrics, spreads = end_to_end(samples)
            units = END_TO_END
            record["spread"] = spreads
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(s["attempted"] for s in samples)
    failed = attempted - sum(s["ok"] + s["expected_failures"] for s in samples)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    record.update(
        problems=problems,
        samples=[{k: v for k, v in s.items() if not k.startswith("trace_")} for s in samples],
        result=result,
    )
    OUT.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1), encoding="utf-8")

    print(json.dumps({"host": record["host"]}))
    for line in list(dict.fromkeys(problems))[:20]:  # each distinct problem once
        print(f"problem: {line}")
    if args.trace:
        for note in record["trace"]["counter_notes"]:
            print(f"counter note: {note}")
        for n, want in EXPECTED["roadmap_ns_per_pair"].items():
            got = metrics[f"estimator.ns_per_pair.n{n}"]
            print(f"baseline cross-check: evaluate_on_grid n={n}: {got:.1f} ns/pair "
                  f"(ROADMAP baseline {want} ns/pair)")
    else:
        for key, row in record["spread"].items():
            print(f"{key}: {json.dumps(row)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
