"""CLI surface: config loading, output resolution, exit codes."""

import csv
import json
import math
import shutil
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from gammakde.cli import EXIT_CONFIG, EXIT_NUMERICAL, EXIT_OK, EXIT_PARTIAL, main

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

    def test_bad_jobs(self, capsys):
        assert main(["bandwidths", "--jobs", "0"]) == EXIT_CONFIG
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

    def test_config_output_dir_used(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {**MAXWELL_EXPERIMENT, "output_dir": str(tmp_path / "from_cfg")},
        )
        assert main(["reproduce", "--config", cfg]) == EXIT_OK
        assert (tmp_path / "from_cfg" / "report.json").exists()


class TestBandwidths:
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

    @pytest.mark.parametrize("n", [0, "abc", 200.7, True])
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
                code, _, err, _ = _in_process(["frobnicate"], capsys)
                assert code == 2 and "invalid choice: 'frobnicate'" in err
