"""CLI surface: config loading, output resolution, exit codes."""

import json
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

# So narrow that the selector integrals come out 0 (see ROADMAP item 3).
NARROW_MAXWELL = {"name": "maxwell", "sigma": 3e-5}

CHI3_EXPERIMENT = {
    "distribution": {"name": "chi_square", "m": 3},
    "n": 50,
    "seed": 1,
    "replications": 2,
    "grid": {"min": 0.05, "max": 3.5, "points": 40},
}


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

    def test_partial_when_curvature_degenerates(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, {**MAXWELL_EXPERIMENT, "distribution": NARROW_MAXWELL}
        )
        out = tmp_path / "out"
        assert main(["reproduce", "--config", cfg, "--out", str(out)]) == EXIT_PARTIAL
        data = json.loads((out / "report.json").read_text())
        for mode in ("plugin", "chen"):
            assert "degenerate curvature" in data["bandwidth_errors"][mode]

    def test_refined_fails_when_curvature_degenerates(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {"distribution": NARROW_MAXWELL, "n": 100, "seed": 1, "replications": 2},
        )
        out = tmp_path / "out"
        assert main(["reproduce", "--config", cfg, "--out", str(out)]) == EXIT_PARTIAL
        data = json.loads((out / "report.json").read_text())
        assert set(data["bandwidth_errors"]) == {"plugin", "refined", "chen"}
        assert "degenerate curvature" in data["bandwidth_errors"]["refined"]
        assert "refined" not in data["bandwidths"]

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
        cfg = write_config(tmp_path, {"distribution": NARROW_MAXWELL, "n": 200})
        assert main(
            ["bandwidths", "--config", cfg, "--out", str(tmp_path / "bw")]
        ) == EXIT_NUMERICAL
        assert "numerical failure: degenerate curvature" in capsys.readouterr().err

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
    def test_degenerate_curvature_is_a_numerical_failure(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {
                "distribution": NARROW_MAXWELL,
                "n_list": [50, 100, 200, 400],
                "seed": 11,
                "replications": 2,
            },
        )
        out = tmp_path / "conv"
        assert main(["converge", "--config", cfg, "--out", str(out)]) == EXIT_NUMERICAL
        assert "numerical failure: degenerate curvature" in capsys.readouterr().err

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
