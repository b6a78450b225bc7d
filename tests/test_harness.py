"""Experiment harness: configs, reports, determinism, failure paths."""

import json
import math

import numpy as np
import pytest

from gammakde import harness
from gammakde.harness import (
    BandwidthsConfig,
    ConfigError,
    ConvergenceConfig,
    ExperimentConfig,
    FixedBandwidth,
    GridSpec,
    ISE_DEFINITION,
    MomentCheckConfig,
    asymptotic_moment_check,
    convergence_result_dict,
    convergence_study,
    moment_check_dict,
    report_dict,
    run_experiment,
    write_report,
)
from gammakde.ioutil import json_text, round_floats
from gammakde.kernels import kernel_x_derivative
from gammakde.refdens import ChiSquareParams, MaxwellParams, derived_seed, sample

MAXWELL = MaxwellParams()
SMALL_GRID = GridSpec(min=0.05, max=3.5, points=40)


def small_config(**overrides):
    base = dict(
        distribution=MAXWELL,
        n=60,
        seed=314,
        replications=4,
        grid=SMALL_GRID,
        bandwidth_modes=("plugin", "refined", "chen"),
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestGridSpec:
    def test_array_is_half_open(self):
        g = GridSpec(min=0.0, max=1.0, points=4)
        assert np.allclose(g.array(), [0.25, 0.5, 0.75, 1.0], rtol=0, atol=1e-15)
        # min itself is excluded, so a zero left edge stays out of the grid
        assert g.array()[0] > 0.0

    def test_default_shape(self):
        arr = GridSpec().array()
        assert arr.shape == (400,)
        assert arr[0] > 0.02 and math.isclose(arr[-1], 4.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"min": -0.1},
            {"max": 0.02},
            {"min": 0.5, "max": 0.5},
            {"points": 1},
            {"points": 0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ConfigError):
            GridSpec(**kwargs)


class TestConfigs:
    def test_experiment_round_trip(self):
        cfg = small_config(bandwidth_modes=("plugin", FixedBandwidth(0.25)))
        assert ExperimentConfig.from_dict(cfg.to_dict()) == cfg

    def test_convergence_round_trip(self):
        cfg = ConvergenceConfig(
            distribution=ChiSquareParams(m=4),
            n_list=(100, 200, 400, 800),
            seed=9,
            replications=3,
            grid=SMALL_GRID,
        )
        assert ConvergenceConfig.from_dict(cfg.to_dict()) == cfg

    def test_moment_check_round_trip(self):
        cfg = MomentCheckConfig(
            distribution=MAXWELL, x_list=(0.5, 1.0), b=0.05, n=500, seed=3,
            replications=10,
        )
        assert MomentCheckConfig.from_dict(cfg.to_dict()) == cfg

    def test_unknown_keys_rejected(self):
        good = small_config().to_dict()
        for cls in (ExperimentConfig, ConvergenceConfig, MomentCheckConfig):
            with pytest.raises(ConfigError):
                cls.from_dict({**good, "bandwith": 0.1})

    @pytest.mark.parametrize(
        "key,value", [("n", 200.7), ("n", "60"), ("seed", 1.5), ("replications", True)]
    )
    def test_integer_fields_are_not_cast(self, key, value):
        good = small_config().to_dict()
        with pytest.raises(ConfigError, match=key):
            ExperimentConfig.from_dict({**good, key: value})

    def test_integer_fields_are_not_cast_elsewhere(self):
        conv = ConvergenceConfig(
            distribution=MAXWELL, n_list=(100, 200, 400, 800), seed=9,
            replications=3,
        ).to_dict()
        with pytest.raises(ConfigError):
            ConvergenceConfig.from_dict({**conv, "n_list": [100, 200.5, 400, 800]})
        with pytest.raises(ConfigError):
            ConvergenceConfig.from_dict({**conv, "grid": {"points": 40.0}})
        with pytest.raises(ConfigError):
            BandwidthsConfig.from_dict(
                {"distribution": {"name": "chi_square", "m": 6.9}, "n": 200}
            )

    @pytest.mark.parametrize(
        "dist",
        [
            {"name": "maxwell", "sigm": 10},
            {"name": "chi_square", "m": 6, "sigma": 1.0},
            {"name": "maxwell", "sigma": "10"},
            {"name": "gamma"},
            {"sigma": 1.0},
        ],
    )
    def test_bad_distribution_rejected(self, dist):
        good = {
            ExperimentConfig: small_config().to_dict(),
            MomentCheckConfig: MomentCheckConfig(
                distribution=MAXWELL, x_list=(0.5,), b=0.05, n=500, seed=3,
                replications=10,
            ).to_dict(),
            BandwidthsConfig: {"n": 200},
        }
        for cls, obj in good.items():
            with pytest.raises(ConfigError):
                cls.from_dict({**obj, "distribution": dist})

    def test_output_dir_must_be_a_string(self):
        good = small_config().to_dict()
        assert ExperimentConfig.from_dict({**good, "output_dir": "out"}).output_dir == "out"
        with pytest.raises(ConfigError, match="output_dir"):
            ExperimentConfig.from_dict({**good, "output_dir": 5})
        with pytest.raises(ConfigError, match="output_dir"):
            BandwidthsConfig.from_dict(
                {"distribution": {"name": "maxwell"}, "n": 200, "output_dir": ["a"]}
            )

    def test_unknown_grid_key_rejected(self):
        good = small_config().to_dict()
        with pytest.raises(ConfigError, match="pts"):
            ExperimentConfig.from_dict({**good, "grid": {"pts": 40}})

    def test_bandwidths_config(self):
        cfg = BandwidthsConfig.from_dict(
            {"distribution": {"name": "maxwell"}, "n": 200, "output_dir": "bw"}
        )
        assert cfg == BandwidthsConfig(MAXWELL, 200, "bw")
        with pytest.raises(ConfigError, match="missing config key: 'n'"):
            BandwidthsConfig.from_dict({"distribution": {"name": "maxwell"}})

    def test_mode_parsing(self):
        d = small_config().to_dict()
        d["bandwidth_modes"] = ["plugin", {"fixed": 0.3}]
        cfg = ExperimentConfig.from_dict(d)
        assert cfg.bandwidth_modes[1] == FixedBandwidth(0.3)
        for bad in ("gaussian", {"fixed": -1.0}, {"fixed": 0.1, "extra": 1}, 7):
            with pytest.raises(ConfigError):
                ExperimentConfig.from_dict({**d, "bandwidth_modes": [bad]})

    def test_duplicate_modes_rejected(self):
        with pytest.raises(ConfigError):
            small_config(bandwidth_modes=("plugin", "plugin"))

    def test_unknown_mode_rejected_at_construction(self):
        with pytest.raises(ConfigError, match="gaussian"):
            small_config(bandwidth_modes=("gaussian",))

    def test_experiment_bounds(self):
        with pytest.raises(ConfigError):
            small_config(n=0)
        with pytest.raises(ConfigError):
            small_config(replications=501)
        with pytest.raises(ConfigError):
            small_config(seed=-1)

    def test_convergence_needs_distinct_sizes(self):
        with pytest.raises(ConfigError, match="degenerate"):
            ConvergenceConfig(
                distribution=MAXWELL, n_list=(100, 200, 200, 400), seed=1,
                replications=2, grid=SMALL_GRID,
            )
        with pytest.raises(ConfigError, match="at least 4"):
            ConvergenceConfig(
                distribution=MAXWELL, n_list=(100, 200, 400), seed=1,
                replications=2, grid=SMALL_GRID,
            )

    def test_moment_check_rejects_boundary_points(self):
        with pytest.raises(ConfigError, match="x >= 2 b"):
            MomentCheckConfig(
                distribution=MAXWELL, x_list=(0.05, 1.0), b=0.05, n=100, seed=1,
                replications=5,
            )


class TestWorkerPool:
    def test_workers_clamped_to_tasks_and_cpus(self, monkeypatch):
        # A recording stand-in: no process is ever started.
        seen = []

        class RecordingPool:
            def __init__(self, max_workers):
                seen.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks, chunksize):
                seen.append(chunksize)
                return map(fn, tasks)

        monkeypatch.setattr(harness, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(harness.os, "cpu_count", lambda: 4)
        tasks = list(range(-40, 0))
        assert list(harness._map_tasks(abs, tasks, 10_000)) == [abs(t) for t in tasks]
        assert seen == [4, 40 // (4 * 4)]
        seen.clear()
        assert list(harness._map_tasks(abs, [-1, -2, -3], 10_000)) == [1, 2, 3]
        assert seen == [3, 1]
        seen.clear()
        monkeypatch.setattr(harness.os, "cpu_count", lambda: None)
        assert list(harness._map_tasks(abs, [-1, -2], 8)) == [1, 2]
        assert seen == []  # no CPU count: one worker, so no pool


class TestRuns:
    def test_runs_cover_the_replications_in_order(self, monkeypatch):
        monkeypatch.setattr(harness.os, "cpu_count", lambda: 2)
        for count, n, jobs, size in [
            (100, 200, 1, 21),  # ceil(4096 / 200)
            (100, 200, 2, 12),  # 2 workers: capped at 100 // (4 * 2)
            (5, 200, 2, 1),
            (3, 100_000, 1, 1),
            (7, 60, 1, 69),
            (0, 60, 1, 69),
        ]:
            runs = harness._runs(count, n, jobs)
            assert [rep for run in runs for rep in run] == list(range(count))
            assert all(len(run) == size for run in runs[:-1])
            assert all(0 < len(run) <= size for run in runs)

    def test_run_size_does_not_change_results(self, monkeypatch):
        # Runs of one replication, the grouping before batching existed,
        # must give every study the same numbers as the default runs.
        experiment = small_config()
        convergence = ConvergenceConfig(seed=1000, **TestConvergence.CFG)
        moments = MomentCheckConfig(
            distribution=MAXWELL, x_list=(0.5, 1.0), b=0.1, n=100, seed=7, replications=6
        )

        def studies():
            report = run_experiment(experiment)
            return (
                report.per_replication_ise,
                [ev.derivative.tobytes() for ev in report.curves.values()],
                convergence_result_dict(convergence, convergence_study(convergence)),
                moment_check_dict(asymptotic_moment_check(moments)),
            )

        assert len(harness._runs(4, 60, 1)) == 1
        batched = studies()
        monkeypatch.setattr(harness, "_RUN_ENTRIES", 1)
        assert len(harness._runs(4, 60, 1)) == 4
        assert studies() == batched


class TestRunExperiment:
    def test_report_contents(self):
        cfg = small_config()
        rep = run_experiment(cfg)
        assert set(rep.bandwidths) == {"plugin", "refined", "chen"}
        assert not rep.bandwidth_errors
        assert len(rep.per_replication_ise) == 4 * 3
        assert set(rep.curves) == set(rep.bandwidths)
        assert ISE_DEFINITION in rep.notes
        # summary statistics recompute from the per-replication rows
        for mode, stats in rep.summary.items():
            vals = np.array(
                [r["ise"] for r in rep.per_replication_ise if r["mode"] == mode]
            )
            assert stats["mean"] == pytest.approx(vals.mean(), rel=1e-12)
            assert stats["median"] == pytest.approx(np.median(vals), rel=1e-12)
            assert stats["std"] == pytest.approx(vals.std(ddof=1), rel=1e-12)

    def test_single_replication_flags_undefined_spread(self):
        rep = run_experiment(small_config(replications=1, bandwidth_modes=("plugin",)))
        assert math.isnan(rep.summary["plugin"]["std"])
        assert any("single replication" in note for note in rep.notes)

    def test_curve_reduces_to_one_kernel_at_n_1(self):
        b = 0.5
        cfg = small_config(
            n=1, replications=1, bandwidth_modes=(FixedBandwidth(b),),
            grid=GridSpec(min=0.1, max=2.0, points=10),
        )
        rep = run_experiment(cfg)
        x1 = float(sample(MAXWELL, 1, derived_seed(cfg.seed, 0)).values[0])
        ev = rep.curves[f"fixed_{b:g}"]
        want = np.array([kernel_x_derivative(float(x), b, x1) for x in ev.grid])
        assert np.allclose(ev.derivative, want, rtol=1e-12, atol=1e-15)

    def test_deterministic_across_jobs(self, tmp_path):
        cfg = small_config()
        r1 = run_experiment(cfg, jobs=1)
        r2 = run_experiment(cfg, jobs=2)
        assert report_dict(r1) == report_dict(r2)
        write_report(r1, tmp_path / "j1")
        write_report(r2, tmp_path / "j2")
        for name in ["report.json"] + [f"curve_{m}.csv" for m in r1.bandwidths]:
            b1 = (tmp_path / "j1" / name).read_bytes()
            b2 = (tmp_path / "j2" / name).read_bytes()
            assert b1 == b2, name

    def test_write_report_files(self, tmp_path):
        cfg = small_config(bandwidth_modes=("plugin",))
        rep = run_experiment(cfg)
        out = write_report(rep, tmp_path)
        data = json.loads((out / "report.json").read_text())
        assert data["config"]["n"] == cfg.n
        assert data["curve_files"] == {"plugin": "curve_plugin.csv"}
        assert "bandwidth_constants" in data
        lines = (out / "curve_plugin.csv").read_text().splitlines()
        assert lines[0] == "x,true_derivative,estimate"
        assert len(lines) == 1 + cfg.grid.points

    def test_grid_refinement_insensitive(self):
        # halving the grid step moves the ISE summary by well under 1%
        kwargs = dict(n=2000, replications=1, bandwidth_modes=(FixedBandwidth(0.1),))
        coarse = run_experiment(
            small_config(grid=GridSpec(min=0.02, max=4.0, points=400), **kwargs)
        )
        fine = run_experiment(
            small_config(grid=GridSpec(min=0.02, max=4.0, points=800), **kwargs)
        )
        a = coarse.summary["fixed_0.1"]["mean"]
        b = fine.summary["fixed_0.1"]["mean"]
        assert abs(a - b) / b < 0.01

    def test_all_selectors_fail_for_heavy_origin_density(self, tmp_path):
        # chi-square with m = 3 has unbounded selector integrals
        cfg = ExperimentConfig(
            distribution=ChiSquareParams(m=3), n=50, seed=1, replications=2,
            grid=SMALL_GRID,
        )
        rep = run_experiment(cfg)
        assert set(rep.bandwidth_errors) == {"plugin", "refined", "chen"}
        assert rep.bandwidths == {}
        assert rep.per_replication_ise == []
        # partial results are written like any other report
        write_report(rep, tmp_path)
        data = json.loads((tmp_path / "report.json").read_text())
        assert set(data["bandwidth_errors"]) == {"plugin", "refined", "chen"}

    def test_fixed_mode_survives_selector_failures(self, tmp_path):
        cfg = ExperimentConfig(
            distribution=ChiSquareParams(m=3), n=50, seed=1, replications=2,
            grid=SMALL_GRID, bandwidth_modes=("plugin", FixedBandwidth(0.2)),
        )
        rep = run_experiment(cfg)
        assert set(rep.bandwidth_errors) == {"plugin"}
        assert list(rep.bandwidths) == ["fixed_0.2"]
        assert len(rep.per_replication_ise) == 2
        write_report(rep, tmp_path)
        assert (tmp_path / "curve_fixed_0.2.csv").exists()

    def test_fixed_only_run_succeeds_for_heavy_origin_density(self):
        cfg = ExperimentConfig(
            distribution=ChiSquareParams(m=3), n=50, seed=1, replications=2,
            grid=SMALL_GRID, bandwidth_modes=(FixedBandwidth(0.2),),
        )
        rep = run_experiment(cfg)
        assert not rep.bandwidth_errors
        assert rep.constants is None  # integrals are unavailable here

    def test_nearby_selectors_give_nearby_ise(self):
        # plugin and refined differ by < 2% in bandwidth at this size, so
        # their ISE summaries must track each other closely
        cfg = small_config(n=500, replications=5, bandwidth_modes=("plugin", "refined"))
        rep = run_experiment(cfg)
        a = rep.summary["plugin"]["mean"]
        b = rep.summary["refined"]["mean"]
        assert abs(a - b) / b < 0.05

    def test_n200_maxwell_reports_both_earlier_sets(self):
        cfg = small_config(n=200, replications=1)
        rep = run_experiment(cfg)
        joined = "\n".join(rep.notes)
        assert "contradict each other" in joined
        assert "earlier reported set A" in joined
        assert "earlier reported set B" in joined
        assert joined.count("reported 0.194") == 1
        assert joined.count("reported 0.203") == 1

    def test_other_configs_omit_comparison_notes(self):
        rep = run_experiment(small_config(n=201, replications=1))
        assert all("earlier reported" not in note for note in rep.notes)


def test_studies_write_no_file(tmp_path, monkeypatch):
    # output_dir tells the command line where to write; a study itself
    # returns its result and leaves the working directory as it found it.
    monkeypatch.chdir(tmp_path)
    run_experiment(small_config(replications=2, output_dir="experiment"))
    partial = ExperimentConfig(
        distribution=ChiSquareParams(m=3), n=50, seed=1, replications=2,
        grid=SMALL_GRID, bandwidth_modes=("plugin", FixedBandwidth(0.2)),
        output_dir="partial",
    )
    assert run_experiment(partial).bandwidth_errors
    convergence_study(ConvergenceConfig(seed=1, output_dir="converge", **TestConvergence.CFG))
    asymptotic_moment_check(
        MomentCheckConfig(
            distribution=MAXWELL, x_list=(1.0,), b=0.1, n=100, seed=1, replications=2
        )
    )
    assert list(tmp_path.iterdir()) == []


class TestConvergence:
    CFG = dict(
        distribution=MAXWELL,
        n_list=(50, 100, 200, 400),
        replications=2,
        grid=GridSpec(min=0.05, max=3.5, points=60),
    )

    def test_study_output(self):
        cfg = ConvergenceConfig(seed=1000, **self.CFG)
        res = convergence_study(cfg)
        assert res.slope < -0.1
        assert len(res.points) == 4
        assert set(res.bandwidths) == set(cfg.n_list)
        assert all(m > 0.0 for _, m in res.points)
        d = convergence_result_dict(cfg, res)
        assert d["slope"] == res.slope
        assert [p["n"] for p in d["points"]] == list(cfg.n_list)

    def test_deterministic_across_jobs(self):
        cfg = ConvergenceConfig(seed=1000, **self.CFG)
        r1 = convergence_study(cfg, jobs=1)
        r2 = convergence_study(cfg, jobs=2)
        assert convergence_result_dict(cfg, r1) == convergence_result_dict(cfg, r2)

    def test_replication_count_tightens_slope_spread(self):
        def spread(reps: int) -> float:
            slopes = [
                convergence_study(
                    ConvergenceConfig(seed=1000 + s, **{**self.CFG, "replications": reps})
                ).slope
                for s in range(5)
            ]
            return max(slopes) - min(slopes)

        assert spread(8) < spread(2)


class TestMomentCheck:
    def test_variance_tracks_prediction(self):
        cfg = MomentCheckConfig(
            distribution=MAXWELL, x_list=(0.5, 1.0), b=0.05, n=2000, seed=7,
            replications=100,
        )
        rep = asymptotic_moment_check(cfg)
        for row in rep.rows:
            assert 0.6 < row.variance_ratio < 1.5
            assert math.isfinite(row.bias_z)
            assert math.isfinite(row.mc_mean)

    def test_single_replication_is_flagged_not_fatal(self):
        cfg = MomentCheckConfig(
            distribution=MAXWELL, x_list=(1.0,), b=0.05, n=200, seed=7,
            replications=1,
        )
        rep = asymptotic_moment_check(cfg)
        row = rep.rows[0]
        assert math.isnan(row.mc_variance)
        assert math.isnan(row.bias_z)
        assert any("single replication" in note for note in rep.notes)
        d = round_floats(moment_check_dict(rep))
        assert d["rows"][0]["mc_variance"] is None  # NaN serializes as null

    def test_deterministic_across_jobs(self):
        cfg = MomentCheckConfig(
            distribution=MAXWELL, x_list=(0.5, 1.0), b=0.1, n=100, seed=7,
            replications=6,
        )
        r1 = asymptotic_moment_check(cfg, jobs=1)
        r2 = asymptotic_moment_check(cfg, jobs=2)
        assert moment_check_dict(r1) == moment_check_dict(r2)


class TestSerialization:
    def test_round_floats(self):
        assert round_floats(0.12345678901234567) == 0.123456789012
        assert round_floats(float("nan")) is None
        assert round_floats({"a": [1.0, float("nan")], "b": True}) == {
            "a": [1.0, None],
            "b": True,
        }
        assert round_floats(7) == 7
        with pytest.raises(ValueError):
            round_floats(float("inf"))

    def test_json_text_is_ascii_with_trailing_newline(self):
        text = json_text({"x": 1.0 / 3.0})
        assert text.endswith("\n")
        assert text == '{\n  "x": 0.333333333333\n}\n'
