"""Smoke test of the benchmark's own code.

Runs every workload at its tiny size, untraced and traced, and checks that
the last line names every metric of BENCHMARK.json with its unit, that the
outputs checked out, and that the file agrees with the benchmark's tables.

    python3 -m pytest -q bench/test_smoke.py
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

sys.path.insert(0, str(HERE))

from run import END_TO_END, PER_LAYER  # noqa: E402
from workloads import WORKLOADS, expected_failures_text  # noqa: E402


def _run(workload: str, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_benchmark_json_matches_the_benchmark():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert {w["name"]: w["why"] for w in BENCHMARK["workloads"]} == {
        name: w.why for name, w in WORKLOADS.items()
    }
    assert expected_failures_text() in WORKLOADS["selectors_sweep"].why
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == PER_LAYER


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_every_metric_is_printed_with_its_unit(workload, trace):
    result = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    table = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in table}
    for m in table:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"])
    if not trace:
        ok_frac = result["metrics"]["ok_frac"]["value"]
        ops = WORKLOADS[workload].ops(3, "tiny")
        expected_share = sum(op.expect_error is not None for op in ops) / len(ops)
        assert ok_frac == pytest.approx(1.0 - expected_share)


def test_refuses_to_run_without_the_source_tree():
    bare = HERE / "_out" / "bare"  # BENCHMARK.json and the benchmark's files only
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "bench").mkdir(parents=True)
    try:
        for path in HERE.iterdir():
            if path.is_file():
                shutil.copyfile(path, bare / "bench" / path.name)
        shutil.copyfile(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        done = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "mc_small_n", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60,
        )
    finally:
        shutil.rmtree(bare)
    assert done.returncode != 0
    assert done.stdout == ""
