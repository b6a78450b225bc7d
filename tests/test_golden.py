"""End-to-end golden outputs: small configs of every subcommand.

Each case runs `gammakde <command> --config ... --jobs 1`, and again with
--jobs 2 through the process pool, and must write the same files, byte for
byte, as the copies under tests/data/golden/<case>/.
The configs are small, but the converge ladder reaches n = 1600 on the
400-point default grid, which the estimator evaluates in several blocks.

A change that is meant to move printed digits regenerates the copies with

    PYTHONPATH=src python tests/test_golden.py

and says in its change log which numbers moved and why.
"""

import json
import sys
from pathlib import Path

import pytest

from gammakde.cli import EXIT_OK, main

GOLDEN = Path(__file__).with_name("data") / "golden"
SEED = 20260815
MAXWELL_1 = {"name": "maxwell", "sigma": 1.0}

CASES = {
    "reproduce_maxwell": (
        "reproduce",
        {"distribution": MAXWELL_1, "n": 200, "seed": SEED, "replications": 3},
    ),
    "reproduce_chi2_m6": (
        "reproduce",
        {"distribution": {"name": "chi_square", "m": 6}, "n": 200, "seed": SEED,
         "replications": 2},
    ),
    "converge": (
        "converge",
        {"distribution": MAXWELL_1, "n_list": [200, 400, 800, 1600], "seed": SEED,
         "replications": 2},
    ),
    "verify_lemmas": (
        "verify-lemmas",
        {"distribution": MAXWELL_1, "x_list": [0.5, 1.0, 2.0], "b": 0.05,
         "n": 20000, "seed": SEED, "replications": 3},
    ),
    # Bandwidths whose refined root lies near an edge of the (1e-4, 1) scan
    # window: about 1.96e-4 for Maxwell sigma = 0.001 and 0.54 for chi-square
    # m = 10 at n = 2000.
    "bandwidths_maxwell_s0.001_n200": (
        "bandwidths",
        {"distribution": {"name": "maxwell", "sigma": 0.001}, "n": 200},
    ),
    "bandwidths_maxwell_s0.1_n2000": (
        "bandwidths",
        {"distribution": {"name": "maxwell", "sigma": 0.1}, "n": 2000},
    ),
    "bandwidths_chi2_m10_n2000": (
        "bandwidths",
        {"distribution": {"name": "chi_square", "m": 10}, "n": 2000},
    ),
    "bandwidths_chi2_m6_n200": (
        "bandwidths",
        {"distribution": {"name": "chi_square", "m": 6}, "n": 200},
    ),
}


def run_case(name: str, work: Path, out: Path, jobs: int = 1) -> int:
    command, config = CASES[name]
    work.mkdir(parents=True, exist_ok=True)
    cfg = work / f"{name}.json"
    cfg.write_text(json.dumps(config))
    return main([command, "--config", str(cfg), "--out", str(out), "--jobs", str(jobs)])


def files_under(root: Path) -> dict:
    return {p.relative_to(root).as_posix(): p for p in sorted(root.rglob("*")) if p.is_file()}


def check_golden(name: str, tmp_path: Path, jobs: int) -> None:
    out = tmp_path / "out"
    assert run_case(name, tmp_path, out, jobs) == EXIT_OK
    want = files_under(GOLDEN / name)
    got = files_under(out)
    assert want, f"no golden files for {name}"
    assert sorted(got) == sorted(want)
    for rel, path in want.items():
        assert got[rel].read_bytes() == path.read_bytes(), f"{name}/{rel} differs"


@pytest.mark.parametrize("name", sorted(CASES))
def test_outputs_match_golden_bytes(name, tmp_path):
    check_golden(name, tmp_path, jobs=1)


@pytest.mark.parametrize("name", sorted(CASES))
def test_pool_outputs_match_golden_bytes(name, tmp_path):
    check_golden(name, tmp_path, jobs=2)


if __name__ == "__main__":
    import shutil
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        for case in sorted(CASES):
            target = GOLDEN / case
            shutil.rmtree(target, ignore_errors=True)
            if run_case(case, Path(tmp), target) != EXIT_OK:
                sys.exit(f"{case}: the command did not exit 0")
