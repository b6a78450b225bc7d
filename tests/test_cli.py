"""CLI surface: config loading, output resolution, exit codes."""

import contextlib
import csv
import io
import json
import math
import os
import runpy
import shutil
import subprocess
import sys
import tempfile
import warnings
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gammakde
from gammakde.cli import EXIT_CONFIG, EXIT_NUMERICAL, EXIT_OK, EXIT_PARTIAL, main
from gammakde.harness import (
    BandwidthsConfig,
    ConfigError,
    ConvergenceConfig,
    ExperimentConfig,
    MomentCheckConfig,
)

MAXWELL_EXPERIMENT = {
    "distribution": {"name": "maxwell", "sigma": 1.0},
    "n": 60,
    "seed": 314,
    "replications": 3,
    "grid": {"min": 0.05, "max": 3.5, "points": 40},
}

# So narrow that the plug-in bandwidth (5.8e-6 at n = 100) lies below the
# refined rule's scan window, and the density vanishes on the default grid.
NARROW_MAXWELL = {"name": "maxwell", "sigma": 3e-5}
NO_REFINED_ROOT = "NoRootError: stationarity residual has no sign change"

CHI3_EXPERIMENT = {
    "distribution": {"name": "chi_square", "m": 3},
    "n": 50,
    "seed": 1,
    "replications": 2,
    "grid": {"min": 0.05, "max": 3.5, "points": 40},
}


# Maxwell scales whose sigma^5 or sigma^7 leaves the float range.
EXTREME_SIGMAS = [1e65, 1e200, 1e300]

# So wide that some of its draws, sigma times a unit Maxwell draw, overflow.
HUGE_SIGMA_EXPERIMENT = {
    "distribution": {"name": "maxwell", "sigma": 8e307},
    "n": 200,
    "seed": 1,
    "replications": 5,
    "bandwidth_modes": [{"fixed": 0.1}],
}


def _json_numbers(obj):
    if isinstance(obj, dict):
        obj = list(obj.values())
    if isinstance(obj, list):
        for item in obj:
            yield from _json_numbers(item)
    elif isinstance(obj, (int, float)) and not isinstance(obj, bool):
        yield float(obj)


def write_config(tmp_path, obj, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def _fresh_imports(argvs, modules) -> str:
    """Exit codes of main over argvs in one fresh process, and which of the
    modules it imported, as that process prints them to stderr."""
    code = (
        "import sys; from gammakde.cli import main; "
        f"codes = [main(argv) for argv in {argvs!r}]; "
        f"print(codes, [m for m in {modules!r} if m in sys.modules], file=sys.stderr)"
    )
    src = str(Path(gammakde.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    return proc.stderr


@pytest.fixture(autouse=True)
def no_out_env(monkeypatch):
    monkeypatch.delenv("GAMMAKDE_OUT", raising=False)


class TestConfigErrors:
    def test_missing_file(self, tmp_path, capsys):
        assert main(["reproduce", "--config", str(tmp_path / "nope.json")]) == EXIT_CONFIG
        assert "configuration error" in capsys.readouterr().err

    def test_invalid_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["reproduce", "--config", str(path)]) == EXIT_CONFIG

    def test_unknown_key(self, tmp_path):
        cfg = write_config(tmp_path, {**MAXWELL_EXPERIMENT, "oops": 1})
        assert main(["reproduce", "--config", cfg]) == EXIT_CONFIG

    def test_non_object_config(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        assert main(["reproduce", "--config", str(path)]) == EXIT_CONFIG

    def test_list_key_must_be_an_array(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {**MAXWELL_EXPERIMENT, "bandwidth_modes": "plugin"})
        assert main(["reproduce", "--config", cfg]) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            "configuration error: bad config: expected a JSON array, got 'plugin'\n"
        )

    def test_bad_jobs(self, capsys, monkeypatch):
        assert main(["bandwidths", "--jobs", "0"]) == EXIT_CONFIG
        assert "--jobs" in capsys.readouterr().err
        # The same through `python -m gammakde.cli`, whose exit status is main's.
        monkeypatch.setattr(sys, "argv", ["gammakde", "bandwidths", "--jobs", "0"])
        monkeypatch.delitem(sys.modules, "gammakde.cli")  # else runpy warns it is imported
        with pytest.raises(SystemExit) as exc_info:
            runpy.run_module("gammakde.cli", run_name="__main__")
        assert exc_info.value.code == EXIT_CONFIG
        assert "--jobs" in capsys.readouterr().err

    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit) as exc_info:
            main(["frobnicate"])
        assert exc_info.value.code == 2


class TestReproduce:
    def test_success(self, tmp_path, capsys):
        cfg = write_config(tmp_path, MAXWELL_EXPERIMENT)
        out = tmp_path / "out"
        assert main(["reproduce", "--config", cfg, "--out", str(out)]) == EXIT_OK
        captured = capsys.readouterr()
        assert "mean ISE" in captured.out
        assert f"report written to {out}" in captured.out
        data = json.loads((out / "report.json").read_text())
        assert data["config"]["seed"] == 314
        for mode in ("plugin", "refined", "chen"):
            assert (out / f"curve_{mode}.csv").exists()

    def test_partial_when_selectors_fail(self, tmp_path, capsys):
        cfg = write_config(tmp_path, CHI3_EXPERIMENT)
        out = tmp_path / "out"
        assert main(["reproduce", "--config", cfg, "--out", str(out)]) == EXIT_PARTIAL
        captured = capsys.readouterr()
        assert "FAILED" in captured.out
        assert "partial results" in captured.err
        data = json.loads((out / "report.json").read_text())
        assert set(data["bandwidth_errors"]) == {"plugin", "refined", "chen"}

    @pytest.mark.parametrize(
        "grid", [MAXWELL_EXPERIMENT["grid"], None], ids=["small_grid", "default_grid"]
    )
    def test_refined_fails_when_its_root_leaves_the_window(self, tmp_path, grid):
        config = {"distribution": NARROW_MAXWELL, "n": 100, "seed": 1, "replications": 2}
        cfg = write_config(tmp_path, config if grid is None else {**config, "grid": grid})
        out = tmp_path / "out"
        assert main(["reproduce", "--config", cfg, "--out", str(out)]) == EXIT_PARTIAL
        data = json.loads((out / "report.json").read_text())
        assert set(data["bandwidth_errors"]) == {"refined"}
        assert data["bandwidth_errors"]["refined"].startswith(NO_REFINED_ROOT)
        assert set(data["bandwidths"]) == {"plugin", "chen"}

    def test_seed_override(self, tmp_path):
        cfg = write_config(tmp_path, MAXWELL_EXPERIMENT)
        out = tmp_path / "out"
        assert main(
            ["reproduce", "--config", cfg, "--out", str(out), "--seed", "999"]
        ) == EXIT_OK
        data = json.loads((out / "report.json").read_text())
        assert data["config"]["seed"] == 999

    def test_jobs_do_not_change_bytes(self, tmp_path):
        cfg = write_config(tmp_path, MAXWELL_EXPERIMENT)
        for jobs, sub in (("1", "a"), ("2", "b")):
            assert main(
                ["reproduce", "--config", cfg, "--out", str(tmp_path / sub),
                 "--jobs", jobs]
            ) == EXIT_OK
        a = (tmp_path / "a" / "report.json").read_bytes()
        b = (tmp_path / "b" / "report.json").read_bytes()
        assert a == b

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("sigma", EXTREME_SIGMAS)
    def test_extreme_sigma_runs(self, tmp_path, capsys, sigma):
        # The truth on a grid scaled with sigma, at a bandwidth scaled with
        # it: every number in every file is finite (or null), no warning.
        cfg = write_config(
            tmp_path,
            {
                "distribution": {"name": "maxwell", "sigma": sigma},
                "n": 50,
                "seed": 3,
                "replications": 2,
                "grid": {"min": 0.05 * sigma, "max": 4.0 * sigma, "points": 10},
                "bandwidth_modes": [{"fixed": 0.1 * sigma}],
            },
        )
        out = tmp_path / "out"
        assert main(["reproduce", "--config", cfg, "--out", str(out)]) == EXIT_OK
        assert capsys.readouterr().err == ""
        report = json.loads((out / "report.json").read_text())
        numbers = list(_json_numbers(report))
        [curve] = out.glob("curve_*.csv")
        with open(curve, newline="") as fh:
            for row in csv.DictReader(fh):
                numbers += [float(v) for v in row.values()]
        assert numbers and all(math.isfinite(v) for v in numbers)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "sigma, message",
        [
            (1e-60, "the ISE of mode 'fixed_1e-61' at n=50 overflows: it reaches 5.29"),
            (1e-100, "the ISE of mode 'fixed_1e-101' at n=50 overflows: it reaches inf,"),
            (1e-154, "the ISE of mode 'fixed_1e-155' at n=50 overflows: it reaches inf,"),
            (1e-200, "the true derivative overflows the float range on the grid"),
        ],
    )
    def test_tiny_sigma_overflow_fails_cleanly(self, tmp_path, capsys, sigma, message):
        # The mirror of test_extreme_sigma_runs: the slope is of order
        # sigma^-2, so the ISE, the estimates or the truth itself overflow.
        # One line on stderr naming what overflowed, no warning, no files.
        cfg = write_config(
            tmp_path,
            {
                "distribution": {"name": "maxwell", "sigma": sigma},
                "n": 50,
                "seed": 3,
                "replications": 2,
                "grid": {"min": 0.05 * sigma, "max": 4.0 * sigma, "points": 10},
                "bandwidth_modes": [{"fixed": 0.1 * sigma}],
            },
        )
        out = tmp_path / "out"
        assert main(["reproduce", "--config", cfg, "--out", str(out)]) == EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert err.startswith(f"numerical failure: {message}")
        assert err.count("\n") == 1 and err.endswith("\n")
        assert not out.exists()

    def test_fresh_run_does_not_import_numpy_ma(self, tmp_path):
        # The ISE median is taken without np.median, whose first call
        # imports numpy.ma (about 20 ms).
        cfg = write_config(tmp_path, MAXWELL_EXPERIMENT)
        argv = ["reproduce", "--config", cfg, "--out", str(tmp_path / "out")]
        assert _fresh_imports([argv], ["numpy.ma"]) == f"{[EXIT_OK]} []\n"

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "sigma, grid",
        [(1e-300, None), (1.0, {"max": 1e300})],
        ids=["tiny_sigma", "huge_grid_max"],
    )
    def test_truth_far_in_the_tail_is_zero(self, tmp_path, capsys, sigma, grid):
        # x / sigma overflows, or x^2 and x^4 do: the truth there is 0.0, not
        # nan, so every number in every file is finite and nothing warns.
        config = {
            "distribution": {"name": "maxwell", "sigma": sigma},
            "n": 50,
            "seed": 3,
            "replications": 2,
            "bandwidth_modes": [{"fixed": 0.1}],
        }
        cfg = write_config(tmp_path, config if grid is None else {**config, "grid": grid})
        out = tmp_path / "out"
        assert main(["reproduce", "--config", cfg, "--out", str(out)]) == EXIT_OK
        assert capsys.readouterr().err == ""
        numbers = list(_json_numbers(json.loads((out / "report.json").read_text())))
        with open(out / "curve_fixed_0.1.csv", newline="") as fh:
            for row in csv.DictReader(fh):
                numbers += [float(v) for v in row.values()]
        assert numbers and all(math.isfinite(v) for v in numbers)

    def test_tiny_fixed_bandwidth_runs(self, tmp_path, capsys):
        # At b = 1e-300 every grid point is interior; the kernel plan must not
        # evaluate the boundary formulas there (pytest makes their
        # RuntimeWarnings errors). Every kernel underflows to 0.
        cfg = write_config(
            tmp_path, {**MAXWELL_EXPERIMENT, "bandwidth_modes": [{"fixed": 1e-300}]}
        )
        out = tmp_path / "out"
        assert main(["reproduce", "--config", cfg, "--out", str(out)]) == EXIT_OK
        report = json.loads((out / "report.json").read_text())
        ises = [row["ise"] for row in report["per_replication_ise"]]
        assert len(ises) == 3 and all(math.isfinite(v) and v > 0.0 for v in ises)
        with open(out / "curve_fixed_1e-300.csv", newline="") as fh:
            assert {float(r["estimate"]) for r in csv.DictReader(fh)} == {0.0}


class TestOutputResolution:
    def test_env_var_honored(self, tmp_path, monkeypatch):
        cfg = write_config(tmp_path, MAXWELL_EXPERIMENT)
        env_out = tmp_path / "from_env"
        monkeypatch.setenv("GAMMAKDE_OUT", str(env_out))
        assert main(["reproduce", "--config", cfg]) == EXIT_OK
        assert (env_out / "report.json").exists()

    def test_flag_beats_env(self, tmp_path, monkeypatch):
        cfg = write_config(tmp_path, MAXWELL_EXPERIMENT)
        monkeypatch.setenv("GAMMAKDE_OUT", str(tmp_path / "from_env"))
        flag_out = tmp_path / "from_flag"
        assert main(["reproduce", "--config", cfg, "--out", str(flag_out)]) == EXIT_OK
        assert (flag_out / "report.json").exists()
        assert not (tmp_path / "from_env").exists()

    def test_env_beats_config_output_dir(self, tmp_path, monkeypatch):
        cfg = write_config(
            tmp_path,
            {**MAXWELL_EXPERIMENT, "output_dir": str(tmp_path / "from_cfg")},
        )
        env_out = tmp_path / "from_env"
        monkeypatch.setenv("GAMMAKDE_OUT", str(env_out))
        assert main(["reproduce", "--config", cfg]) == EXIT_OK
        assert (env_out / "report.json").exists()
        assert not (tmp_path / "from_cfg").exists()

    def test_config_output_dir_used(self, tmp_path, monkeypatch):
        cfg = write_config(
            tmp_path,
            {**MAXWELL_EXPERIMENT, "output_dir": str(tmp_path / "from_cfg")},
        )
        assert main(["reproduce", "--config", cfg]) == EXIT_OK
        assert (tmp_path / "from_cfg" / "report.json").exists()
        # With no flag, variable or output_dir, the default directory in the cwd.
        monkeypatch.chdir(tmp_path)
        cfg = write_config(tmp_path, MAXWELL_EXPERIMENT, "no_output_dir.json")
        assert main(["reproduce", "--config", cfg]) == EXIT_OK
        assert (tmp_path / "gammakde_out" / "report.json").exists()


class TestBandwidths:
    def test_fresh_selectors_do_not_import_fractions(self, tmp_path):
        # The exact selector sums run on Python ints; the fractions module
        # and its decimal import cost several ms of a cold selector sweep.
        runs = [
            ("bandwidths", {"distribution": {"name": "maxwell", "sigma": 1.0}, "n": 200}),
            ("bandwidths", {"distribution": {"name": "chi_square", "m": 6}, "n": 500}),
            ("reproduce", {**MAXWELL_EXPERIMENT, "n": 20, "replications": 2}),
        ]
        argvs = [
            [cmd, "--config", write_config(tmp_path, cfg, f"{i}.json"),
             "--out", str(tmp_path / f"out{i}")]
            for i, (cmd, cfg) in enumerate(runs)
        ]
        assert _fresh_imports(argvs, ["fractions", "decimal"]) == f"{[EXIT_OK] * 3} []\n"

    def test_default_config(self, tmp_path, capsys):
        out = tmp_path / "bw"
        assert main(["bandwidths", "--out", str(out)]) == EXIT_OK
        data = json.loads((out / "bandwidths.json").read_text())
        assert data["n"] == 2000
        assert data["b_plugin"] == pytest.approx(0.1004414215876263, rel=1e-11)
        assert data["b_refined"] == pytest.approx(0.10094331611016391, rel=1e-11)
        assert data["b_chen"] == pytest.approx(0.017534313639687157, rel=1e-11)
        assert "plugin=0.100441" in capsys.readouterr().out

    def test_explicit_config(self, tmp_path):
        cfg = write_config(
            tmp_path, {"distribution": {"name": "chi_square", "m": 6}, "n": 500}
        )
        out = tmp_path / "bw"
        assert main(["bandwidths", "--config", cfg, "--out", str(out)]) == EXIT_OK
        data = json.loads((out / "bandwidths.json").read_text())
        assert data["n"] == 500

    def test_unknown_key(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {"distribution": {"name": "maxwell"}, "n": 100, "replications": 5},
        )
        assert main(["bandwidths", "--config", cfg]) == EXIT_CONFIG

    @pytest.mark.parametrize("n", [0, "abc", 200.7, True, pytest.param(10**400, id="1e400")])
    def test_bad_sample_size_is_a_config_error(self, tmp_path, capsys, n):
        cfg = write_config(
            tmp_path, {"distribution": {"name": "maxwell", "sigma": 1.0}, "n": n}
        )
        assert main(
            ["bandwidths", "--config", cfg, "--out", str(tmp_path / "bw")]
        ) == EXIT_CONFIG
        assert "configuration error:" in capsys.readouterr().err
        assert not (tmp_path / "bw").exists()

    def test_unknown_distribution_key(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, {"distribution": {"name": "maxwell", "sigm": 10}, "n": 200}
        )
        assert main(["bandwidths", "--config", cfg]) == EXIT_CONFIG
        assert "sigm" in capsys.readouterr().err

    def test_default_file_matches_golden_bytes(self, tmp_path):
        out = tmp_path / "bw"
        assert main(["bandwidths", "--out", str(out)]) == EXIT_OK
        golden = Path(__file__).with_name("data") / "bandwidths_default.json"
        assert (out / "bandwidths.json").read_bytes() == golden.read_bytes()

    def test_experiment_constants_match_bandwidths_file(self, tmp_path):
        dist = {"name": "maxwell", "sigma": 1.0}
        bw = write_config(tmp_path, {"distribution": dist, "n": 200}, "bw.json")
        experiment = {
            "distribution": dist,
            "n": 200,
            "seed": 1,
            "replications": 1,
            "grid": {"points": 10},
            "bandwidth_modes": ["plugin"],
        }
        ex = write_config(tmp_path, experiment, "ex.json")
        assert main(["bandwidths", "--config", bw, "--out", str(tmp_path / "bw")]) == EXIT_OK
        assert main(["reproduce", "--config", ex, "--out", str(tmp_path / "ex")]) == EXIT_OK
        bandwidths = json.loads((tmp_path / "bw" / "bandwidths.json").read_text())
        report = json.loads((tmp_path / "ex" / "report.json").read_text())
        assert report["bandwidth_constants"] == bandwidths["constants"]

    def test_numerical_failure_exit(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, {"distribution": {"name": "chi_square", "m": 3}, "n": 100}
        )
        assert main(
            ["bandwidths", "--config", cfg, "--out", str(tmp_path / "bw")]
        ) == EXIT_NUMERICAL
        assert "numerical failure" in capsys.readouterr().err

    def test_a_sample_size_in_the_float_range_reaches_the_selectors(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, {"distribution": {"name": "maxwell", "sigma": 1.0}, "n": 10**300}
        )
        assert main(
            ["bandwidths", "--config", cfg, "--out", str(tmp_path / "bw")]
        ) == EXIT_NUMERICAL
        assert "numerical failure" in capsys.readouterr().err


    def test_degenerate_curvature_is_a_numerical_failure(self, tmp_path, capsys):
        # sigma^-5 underflows to 0
        dist = {"name": "maxwell", "sigma": 1e65}
        cfg = write_config(tmp_path, {"distribution": dist, "n": 200})
        assert main(
            ["bandwidths", "--config", cfg, "--out", str(tmp_path / "bw")]
        ) == EXIT_NUMERICAL
        assert "numerical failure: degenerate curvature" in capsys.readouterr().err

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "sigma, message",
        [
            (1e-300, "the curvature integral overflows the float range at sigma=1e-300"),
            (1e-65, "the curvature integral overflows the float range at sigma=1e-65"),
            (1e-6, NO_REFINED_ROOT.split(": ", 1)[1]),
            (NARROW_MAXWELL["sigma"], NO_REFINED_ROOT.split(": ", 1)[1]),
            (1e65, "degenerate curvature integral; no plug-in bandwidth"),
            (1e200, "degenerate curvature integral; no plug-in bandwidth"),
            (1e300, "degenerate curvature integral; no plug-in bandwidth"),
        ],
    )
    def test_extreme_sigma_fails_cleanly(self, tmp_path, capsys, sigma, message):
        # One line on stderr, no warning and no traceback (exit 1).
        dist = {"name": "maxwell", "sigma": sigma}
        cfg = write_config(tmp_path, {"distribution": dist, "n": 200})
        assert main(
            ["bandwidths", "--config", cfg, "--out", str(tmp_path / "bw")]
        ) == EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert err.startswith(f"numerical failure: {message}")
        assert err.count("\n") == 1 and err.endswith("\n")
        assert not (tmp_path / "bw").exists()

    def test_seed_rejected(self, tmp_path, capsys):
        # bandwidths draws no sample, so a seed would be silently ignored
        with pytest.raises(SystemExit) as exc_info:
            main(["bandwidths", "--seed", "5", "--out", str(tmp_path / "bw")])
        assert exc_info.value.code == EXIT_CONFIG
        assert "--seed" in capsys.readouterr().err
        assert not (tmp_path / "bw").exists()

    def test_jobs_accepted(self, tmp_path):
        out = tmp_path / "bw"
        assert main(["bandwidths", "--jobs", "2", "--out", str(out)]) == EXIT_OK
        golden = Path(__file__).with_name("data") / "bandwidths_default.json"
        assert (out / "bandwidths.json").read_bytes() == golden.read_bytes()


class TestConverge:
    @pytest.mark.filterwarnings("error")
    def test_zero_mean_ise_is_a_numerical_failure(self, tmp_path, capsys):
        # Density and estimates vanish on the grid, so every mean ISE is 0,
        # which once gave slope nan, exit 0 and a RuntimeWarning from log(0).
        for sigma in (1e-4, NARROW_MAXWELL["sigma"]):
            cfg = write_config(
                tmp_path,
                {
                    "distribution": {"name": "maxwell", "sigma": sigma},
                    "n_list": [50, 100, 200, 400],
                    "seed": 11,
                    "replications": 2,
                },
            )
            out = tmp_path / "conv"
            assert main(["converge", "--config", cfg, "--out", str(out)]) == EXIT_NUMERICAL
            assert capsys.readouterr().err == (
                "numerical failure: mean ISE 0.0 at n=50 on the grid (0.02, 4.0] "
                "of 400 points; no log-log slope\n"
            )
            assert not out.exists()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("sigma", EXTREME_SIGMAS)
    def test_extreme_sigma_fails_cleanly(self, tmp_path, capsys, sigma):
        # sigma^-5 underflows, so the plug-in rule the ladder uses has no
        # curvature: one line on stderr, no traceback (exit 1), no warning.
        cfg = write_config(
            tmp_path,
            {
                "distribution": {"name": "maxwell", "sigma": sigma},
                "n_list": [50, 100, 200, 400],
                "seed": 3,
                "replications": 2,
                "grid": {"min": 0.05 * sigma, "max": 4.0 * sigma, "points": 10},
            },
        )
        out = tmp_path / "conv"
        assert main(["converge", "--config", cfg, "--out", str(out)]) == EXIT_NUMERICAL
        assert capsys.readouterr().err == (
            "numerical failure: degenerate curvature integral; no plug-in bandwidth\n"
        )
        assert not out.exists()

    def test_small_study(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {
                "distribution": {"name": "maxwell", "sigma": 1.0},
                "n_list": [50, 100, 200, 400],
                "seed": 11,
                "replications": 2,
                "grid": {"min": 0.05, "max": 3.5, "points": 40},
            },
        )
        out = tmp_path / "conv"
        assert main(["converge", "--config", cfg, "--out", str(out)]) == EXIT_OK
        data = json.loads((out / "convergence.json").read_text())
        assert data["slope"] < 0.0
        assert len(data["points"]) == 4
        assert "slope" in capsys.readouterr().out


class TestVerifyLemmas:
    def test_small_check(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {
                "distribution": {"name": "maxwell", "sigma": 1.0},
                "x_list": [0.5, 1.0],
                "b": 0.1,
                "n": 200,
                "seed": 5,
                "replications": 20,
            },
        )
        out = tmp_path / "mc"
        assert main(["verify-lemmas", "--config", cfg, "--out", str(out)]) == EXIT_OK
        data = json.loads((out / "moment_check.json").read_text())
        assert [row["x"] for row in data["rows"]] == [0.5, 1.0]
        assert "variance ratio" in capsys.readouterr().out

    @pytest.mark.filterwarnings("error")
    def test_zero_predicted_variance_gives_a_null_ratio_and_a_note(self, tmp_path):
        # At x = 1e300 the density, its slope and so the predicted variance
        # are 0: the ratio is null, with a note naming x, and nothing warns.
        cfg = write_config(
            tmp_path,
            {
                "distribution": {"name": "maxwell", "sigma": 1.0},
                "x_list": [1.0, 1e300],
                "b": 0.1,
                "n": 50,
                "seed": 5,
                "replications": 3,
            },
        )
        out = tmp_path / "mc"
        assert main(["verify-lemmas", "--config", cfg, "--out", str(out)]) == EXIT_OK
        data = json.loads((out / "moment_check.json").read_text())
        near, far = data["rows"]
        assert math.isfinite(near["variance_ratio"])
        assert far["predicted_variance"] == 0.0 and far["variance_ratio"] is None
        assert data["notes"] == [
            "the predicted variance at x=1e+300 is 0, so its variance ratio is "
            "undefined and reported as null"
        ]

    @pytest.mark.parametrize(
        "x, b, message",
        [
            (1e-300, 1e-301, "interior bias at x=1e-300: x^2 underflows to 0"),
            (1.0, 1e-250, "interior variance at x=1.0, b=1e-250"),
        ],
    )
    def test_underflowing_leading_terms_are_a_config_error(
        self, tmp_path, capsys, x, b, message
    ):
        # The leading terms divide by 12 x^2 and by b^(3/2) sqrt(x); where
        # these underflow the command stops before drawing a sample.
        cfg = write_config(
            tmp_path,
            {
                "distribution": {"name": "maxwell", "sigma": 1.0},
                "x_list": [x],
                "b": b,
                "n": 20,
                "seed": 5,
                "replications": 2,
            },
        )
        out = tmp_path / "mc"
        assert main(["verify-lemmas", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ") and message in err
        assert err.count("\n") == 1
        assert not out.exists()

    def test_output_dir_is_not_a_config_key(self, tmp_path, capsys):
        # Unlike the other three configs, this one has no output_dir field:
        # adding one would add it to the config echo in moment_check.json.
        cfg = write_config(
            tmp_path,
            {
                "distribution": {"name": "maxwell", "sigma": 1.0},
                "x_list": [0.5, 1.0],
                "b": 0.1,
                "n": 200,
                "seed": 5,
                "replications": 20,
                "output_dir": str(tmp_path / "cfg_out"),
            },
        )
        out = tmp_path / "mc"
        assert main(["verify-lemmas", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "configuration error: unknown config keys: ['output_dir']" in err
        assert not out.exists() and not (tmp_path / "cfg_out").exists()


def _moments(dist, x_list, b, n, replications):
    return {"distribution": dist, "x_list": x_list, "b": b, "n": n, "seed": 1,
            "replications": replications}


def _fixed(dist, grid, b, replications):
    return {"distribution": dist, "n": 1, "seed": 1, "replications": replications,
            "grid": grid, "bandwidth_modes": [{"fixed": b}]}


# Inputs at the edge of the float range, each of which once exited 1 or
# printed a RuntimeWarning: (subcommand, config, exit code).
EDGE_INPUTS = {
    # b^(3/2) overflows in the leading variance
    "variance_scale_overflows": ("verify-lemmas", _moments(
        {"name": "maxwell", "sigma": 1e-103}, [3e291, 6e292], 1e291, 3, 1), EXIT_CONFIG),
    # the leading variance is inf
    "variance_overflows": ("verify-lemmas", _moments(
        {"name": "chi_square", "m": 3}, [2e-141, 2.6e-141], 6e-142, 1, 2), EXIT_CONFIG),
    # the f'' of the leading bias overflows
    "bias_overflows": ("verify-lemmas", _moments(
        {"name": "chi_square", "m": 8}, [1e-155, 3e-154], 3e-157, 1, 2), EXIT_CONFIG),
    # t/b underflows to 0 before its log
    "t_over_b_underflows": ("reproduce", _fixed(
        {"name": "maxwell", "sigma": 7e-154}, {"min": 0, "max": 2.7e272, "points": 3},
        1e198, 2), EXIT_NUMERICAL),
    # the unused f'' beside the true slope divides by x^2 = 0
    "truth_beside_a_zero_square": ("reproduce", _fixed(
        {"name": "chi_square", "m": 6}, {"min": 1e-300, "max": 2e-300, "points": 2},
        0.1, 2), EXIT_OK),
    # the unused f'' beside the true slope overflows
    "truth_beside_an_overflow": ("reproduce", _fixed(
        {"name": "chi_square", "m": 10000}, {"min": 1.2e215, "max": 3.4e216, "points": 2},
        2.9e76, 1), EXIT_OK),
}


class TestEdgeInputs:
    @pytest.mark.parametrize("case", EDGE_INPUTS)
    def test_works_or_fails_in_one_line(self, tmp_path, capsys, case):
        command, config, expected = EDGE_INPUTS[case]
        cfg = write_config(tmp_path, config)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main([command, "--config", cfg, "--out", str(tmp_path / "out")])
        assert [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)] == []
        assert code in (EXIT_OK, EXIT_CONFIG, EXIT_NUMERICAL) and code == expected
        err = capsys.readouterr().err
        if code == EXIT_OK:
            assert err == ""
        else:
            assert err.count("\n") == 1 and err.endswith("\n")

    # Draws that overflow: one line naming the distribution and n, no
    # warning, no files.
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "command, config, label",
        [
            ("reproduce", HUGE_SIGMA_EXPERIMENT, "maxwell(sigma=8e+307) at n=200"),
            ("verify-lemmas", _moments({"name": "maxwell", "sigma": 1.7e308}, [0.5], 0.05, 50, 2),
             "maxwell(sigma=1.7e+308) at n=50"),
        ],
        ids=["reproduce", "verify-lemmas"],
    )
    def test_draws_past_the_float_range_fail_in_one_line(
        self, tmp_path, capsys, command, config, label
    ):
        cfg = write_config(tmp_path, config)
        out = tmp_path / "out"
        assert main([command, "--config", cfg, "--out", str(out)]) == EXIT_NUMERICAL
        assert capsys.readouterr().err == (
            f"numerical failure: the draws of {label} leave the float range: "
            "sample values must be finite\n"
        )
        assert not out.exists()


def _spread(top: float):
    """Positive floats from 1e-300 to top, spread evenly over the exponents."""
    exponents = st.integers(-300, math.ceil(math.log10(top)) - 1)
    return st.builds(
        lambda mantissa, exponent: min(mantissa * 10.0**exponent, top),
        st.floats(1.0, 10.0), exponents,
    ) | st.sampled_from([1e-300, top])


EXTREME = _spread(1e300)
# A Maxwell scale up to the largest float, where the draws themselves overflow.
DISTRIBUTION = st.builds(
    lambda sigma: {"name": "maxwell", "sigma": sigma}, _spread(sys.float_info.max),
) | st.builds(lambda m: {"name": "chi_square", "m": m}, st.integers(3, 200))
GRID = st.builds(
    lambda bounds, points: {"min": bounds[0], "max": bounds[1], "points": points},
    st.lists(EXTREME | st.just(0.0), min_size=2, max_size=2, unique=True).map(sorted),
    st.integers(2, 4),
)
MODE = st.sampled_from(["plugin", "refined", "chen"]) | st.builds(lambda b: {"fixed": b}, EXTREME)
SMALL = {"seed": st.integers(0, 3), "replications": st.integers(1, 3)}

# (subcommand, config class, config): valid configs of every subcommand, at
# tiny sizes and with every real number drawn from the whole float range.
GRAMMAR_CASES = st.one_of(
    st.tuples(st.just("reproduce"), st.just(ExperimentConfig), st.fixed_dictionaries({
        "distribution": DISTRIBUTION, "n": st.integers(1, 5), "grid": GRID,
        "bandwidth_modes": st.lists(MODE, min_size=1, max_size=3, unique_by=json.dumps),
        **SMALL,
    })),
    st.tuples(st.just("bandwidths"), st.just(BandwidthsConfig), st.fixed_dictionaries({
        "distribution": DISTRIBUTION, "n": st.integers(1, 10**6),
    })),
    st.tuples(st.just("converge"), st.just(ConvergenceConfig), st.fixed_dictionaries({
        "distribution": DISTRIBUTION, "grid": GRID,
        "n_list": st.lists(st.integers(1, 8), min_size=4, max_size=4, unique=True),
        **SMALL,
    })),
    st.tuples(st.just("verify-lemmas"), st.just(MomentCheckConfig), st.builds(
        # b is a share of the first point, so that most draws keep x >= 2 b.
        lambda x_list, share, rest: {"x_list": x_list, "b": x_list[0] * share, **rest},
        st.lists(EXTREME, min_size=1, max_size=3, unique=True).map(sorted),
        st.floats(1e-300, 0.5),
        st.fixed_dictionaries({"distribution": DISTRIBUTION, "n": st.integers(1, 5), **SMALL}),
    )),
)


class TestGrammar:
    @settings(max_examples=200, deadline=None)
    @given(GRAMMAR_CASES)
    @example(("reproduce", ExperimentConfig, HUGE_SIGMA_EXPERIMENT))
    def test_every_valid_config_works_or_fails_in_one_line(self, case):
        """A config that parses round-trips through to_dict. Run through main,
        every config exits 0 with every written number finite or null, or
        exits 2, 3 or 4 with one line on stderr; it never raises or warns."""
        command, cls, config = case
        try:
            cfg = cls.from_dict(config)
        except ConfigError:
            pass
        else:
            assert cls.from_dict(cfg.to_dict()) == cfg
        with tempfile.TemporaryDirectory() as tmp:
            path, out = write_config(Path(tmp), config), Path(tmp) / "out"
            err = io.StringIO()
            with warnings.catch_warnings(record=True) as caught, \
                    contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                warnings.simplefilter("always")
                code = main([command, "--config", path, "--out", str(out)])
            assert [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)] == []
            assert code in (EXIT_OK, EXIT_CONFIG, EXIT_NUMERICAL, EXIT_PARTIAL)
            err = err.getvalue()
            assert err == "" if code == EXIT_OK else (err.count("\n") == 1 and err.endswith("\n"))
            for file in out.rglob("*") if code in (EXIT_OK, EXIT_PARTIAL) else ():
                if file.suffix == ".json":
                    numbers = list(_json_numbers(json.loads(file.read_text())))
                else:
                    rows = list(csv.reader(file.read_text().splitlines()))[1:]
                    numbers = [float(value) for row in rows for value in row]
                assert all(math.isfinite(v) for v in numbers), file.name


# One small run of each subcommand; each writes into its own --out directory.
SMALL_RUNS = {
    "reproduce": MAXWELL_EXPERIMENT,
    "bandwidths": {"distribution": {"name": "chi_square", "m": 6}, "n": 500},
    "converge": {
        "distribution": {"name": "maxwell", "sigma": 1.0},
        "n_list": [50, 100, 200, 400],
        "seed": 11,
        "replications": 2,
        "grid": {"min": 0.05, "max": 3.5, "points": 40},
    },
    "verify-lemmas": {
        "distribution": {"name": "maxwell", "sigma": 1.0},
        "x_list": [0.5, 1.0],
        "b": 0.1,
        "n": 200,
        "seed": 5,
        "replications": 20,
    },
}


def _take_outputs(argv) -> dict:
    """The files written under argv's --out directory, which is then removed."""
    if "--out" not in argv:
        return {}
    out = Path(argv[argv.index("--out") + 1])
    files = {
        p.relative_to(out).as_posix(): p.read_bytes()
        for p in sorted(out.rglob("*"))
        if p.is_file()
    }
    shutil.rmtree(out, ignore_errors=True)
    return files


def _fresh_process(argv) -> tuple:
    proc = subprocess.run(
        [sys.executable, "-m", "gammakde.cli", *argv], capture_output=True, text=True
    )
    return proc.returncode, proc.stdout, proc.stderr, _take_outputs(argv)


def _in_process(argv, capsys) -> tuple:
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err, _take_outputs(argv)


class TestParserReuse:
    """main() builds its parser once per process; reuse must not show."""

    def test_repeated_calls_match_a_fresh_process(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")  # the help text wraps at this width
        argvs = {
            name: [name, "--config", write_config(tmp_path, cfg, f"{name}.json"),
                   "--out", str(tmp_path / name)]
            for name, cfg in SMALL_RUNS.items()
        }
        argvs["--help"] = ["--help"]
        argvs.update({f"{name} --help": [name, "--help"] for name in SMALL_RUNS})
        with ThreadPoolExecutor(max_workers=3) as pool:
            fresh = dict(zip(argvs, pool.map(_fresh_process, argvs.values())))
        assert all(fresh[name][0] == EXIT_OK for name in SMALL_RUNS)
        assert all(fresh[name][3] for name in SMALL_RUNS)
        assert all(fresh[key][0] == 0 and "usage:" in fresh[key][1]
                   for key in argvs if key.endswith("--help"))
        not_utf8 = tmp_path / "latin1.json"
        not_utf8.write_bytes(b'{"n": "\xe9"}')
        long_int = tmp_path / "long_int.json"  # past Python's int-from-text limit
        long_int.write_text('{"n": 1' + "0" * 5000 + "}")

        for _ in range(2):
            for key, argv in argvs.items():
                assert _in_process(argv, capsys) == fresh[key], key
                name = argv[0]
                if name not in SMALL_RUNS:
                    continue
                code, _, err, _ = _in_process([name, "--jobs", "0"], capsys)
                assert (code, err) == (EXIT_CONFIG, "error: --jobs must be >= 1\n")
                code, _, err, _ = _in_process([name, "--config", str(tmp_path)], capsys)
                assert code == EXIT_CONFIG
                assert err.startswith(f"configuration error: cannot read config file {tmp_path}")
                for bad in (not_utf8, long_int):
                    code, _, err, _ = _in_process([name, "--config", str(bad)], capsys)
                    assert code == EXIT_CONFIG
                    assert err.startswith(f"configuration error: cannot read config file {bad}")
                code, _, err, _ = _in_process(["frobnicate"], capsys)
                assert code == 2 and "invalid choice: 'frobnicate'" in err


class TestPoolImport:
    def test_only_a_study_that_forks_imports_the_pool(self, tmp_path):
        # The pool's import loads multiprocessing, subprocess, socket and
        # logging: a --jobs 1 process has no use for them.
        pool = ["multiprocessing", "concurrent.futures.process"]
        argvs = {
            name: [name, "--config", write_config(tmp_path, cfg, f"{name}.json"),
                   "--out", str(tmp_path / name), "--jobs", "1"]
            for name, cfg in SMALL_RUNS.items()
        }
        assert _fresh_imports(list(argvs.values()), pool) == f"{[EXIT_OK] * 4} []\n"
        # Three replications on two CPUs make three tasks and a pool of two.
        forks = pool if (os.cpu_count() or 1) > 1 else []
        argv = [*argvs["reproduce"][:-1], "2"]
        assert _fresh_imports([argv], pool) == f"{[EXIT_OK]} {forks}\n"
