"""Experiment harness: configs, reports, determinism, failure paths."""

import dataclasses
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gammakde import asymptotics, harness
from gammakde.asymptotics import SELECTORS
from gammakde.estimator import evaluate_batch
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
from gammakde.ioutil import json_text, round_floats, write_csv
from gammakde.kernels import kernel_x_derivative
from gammakde.numerics import DegenerateIntegralError, IntegrationError, NoRootError
from gammakde.refdens import (
    ChiSquareParams,
    MaxwellParams,
    derived_seed,
    reference_for,
    sample,
)

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


def _selector_failure(cfg: ExperimentConfig, mode: str) -> str:
    """The failure of one selector run alone, as bandwidth_errors words it."""
    ref = reference_for(cfg.distribution)
    with pytest.raises((IntegrationError, NoRootError, ValueError)) as exc_info:
        SELECTORS[mode](ref, cfg.n)
    return f"{type(exc_info.value).__name__}: {exc_info.value}"


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
            {"min": 1.0, "max": 1.0 + 1e-14},  # steps below the spacing of floats
            {"points": 10**12},  # 7.28 TiB of points
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

    @pytest.mark.parametrize(
        "cls, key, value",
        [
            (ExperimentConfig, "bandwidth_modes", {"plugin": 0, "chen": None}),
            (ExperimentConfig, "bandwidth_modes", "plugin"),
            (ConvergenceConfig, "n_list", {"500": 1, "1000": 2, "2000": 3, "4000": 4}),
            (ConvergenceConfig, "n_list", "5000"),
            (MomentCheckConfig, "x_list", {"0.5": 1.0}),
            (MomentCheckConfig, "x_list", "0.5"),
        ],
    )
    def test_list_keys_must_be_arrays(self, cls, key, value):
        good = {
            ExperimentConfig: small_config().to_dict(),
            ConvergenceConfig: ConvergenceConfig(
                distribution=MAXWELL, n_list=(100, 200, 400, 800), seed=9,
                replications=3,
            ).to_dict(),
            MomentCheckConfig: MomentCheckConfig(
                distribution=MAXWELL, x_list=(0.5,), b=0.05, n=500, seed=3,
                replications=10,
            ).to_dict(),
        }[cls]
        # to_dict writes tuples, and from_dict takes them as it takes lists.
        assert cls.from_dict({**good, key: list(good[key])}) == cls.from_dict(good)
        with pytest.raises(ConfigError, match=f"expected a JSON array, got {value!r}"):
            cls.from_dict({**good, key: value})

    def test_duplicate_modes_rejected(self):
        with pytest.raises(ConfigError):
            small_config(bandwidth_modes=("plugin", "plugin"))
        # Two different fixed bandwidths whose labels, and so curve files, collide.
        d = {**small_config().to_dict(), "bandwidth_modes": [{"fixed": 0.1}, {"fixed": 0.1000001}]}
        with pytest.raises(ConfigError, match=r"labels must be distinct, as each names a curve "
                           r"file .*\['fixed_0.1', 'fixed_0.1'\]"):
            ExperimentConfig.from_dict(d)

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
        with pytest.raises(ConfigError, match="at least one bandwidth mode"):
            small_config(bandwidth_modes=())

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
        for x_list, b, message in (
            ((0.05, 1.0), 0.05, "x >= 2 b"),
            ((), 0.05, "x_list must not be empty"),
            ((0.5, 1.0), 0.0, "bandwidth must be > 0"),
            ((1.0, 0.5), 0.05, "x_list must be strictly increasing"),
        ):
            with pytest.raises(ConfigError, match=message):
                MomentCheckConfig(
                    distribution=MAXWELL, x_list=x_list, b=b, n=100, seed=1,
                    replications=5,
                )


class RecordingPool:
    """A stand-in process pool that records its size and chunk size and maps in-process."""

    seen = []

    def __init__(self, max_workers):
        self.seen.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, tasks, chunksize):
        self.seen.append(chunksize)
        return map(fn, tasks)


def replications(count, n, jobs):
    """(batch index, run, seeds) per run of one batch with seed key (5,), drawing no sample."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(harness, "_replicate", lambda task: task[2])
        return list(harness._replications(MAXWELL, None, [(n, (5,), count, ())], jobs))


class TestWorkerPool:
    def test_workers_clamped_to_tasks_and_cpus(self, monkeypatch):
        # No process is ever started.
        seen = []
        monkeypatch.setattr(RecordingPool, "seen", seen)
        monkeypatch.setattr(harness, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(harness.os, "cpu_count", lambda: 4)
        # At n = _RUN_ENTRIES every run, and so every task, is one replication.
        n = harness._RUN_ENTRIES

        def task_seeds(count, jobs):
            return [seeds for _, _, seeds in replications(count, n, jobs)]

        assert task_seeds(40, 10_000) == [[derived_seed(5, r)] for r in range(40)]
        assert seen == [4, 40 // (4 * 4)]
        seen.clear()
        assert task_seeds(3, 10_000) == [[derived_seed(5, r)] for r in range(3)]
        assert seen == [3, 1]
        seen.clear()
        monkeypatch.setattr(harness.os, "cpu_count", lambda: None)
        assert task_seeds(2, 8) == [[derived_seed(5, r)] for r in range(2)]
        assert seen == []  # no CPU count: one worker, so no pool


class TestRuns:
    def test_runs_cover_the_replications_in_order(self, monkeypatch):
        monkeypatch.setattr(RecordingPool, "seen", [])
        monkeypatch.setattr(harness, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(harness.os, "cpu_count", lambda: 2)
        for count, n, jobs, size in [
            (100, 200, 1, 21),  # ceil(4096 / 200)
            (100, 200, 2, 12),  # 2 workers: capped at 100 // (4 * 2)
            (5, 200, 2, 1),
            (3, 100_000, 1, 1),
            (7, 60, 1, 69),
            (0, 60, 1, 69),
        ]:
            got = replications(count, n, jobs)
            runs = [run for _, run, _ in got]
            assert [rep for run in runs for rep in run] == list(range(count))
            assert all(len(run) == size for run in runs[:-1])
            assert all(0 < len(run) <= size for run in runs)
            assert [seeds for *_, seeds in got] == [
                [derived_seed(5, rep) for rep in run] for run in runs
            ]
        # The converge ladder: one batch per size, each with its own seed key.
        batches = [(n, (5, i), 30, ()) for i, n in enumerate((200, 2000))]
        monkeypatch.setattr(harness, "_replicate", lambda task: task[2])
        got = list(harness._replications(MAXWELL, None, batches, 1))
        assert [(i, len(run)) for i, run, _ in got] == [(0, 21), (0, 9)] + [(1, 3)] * 10
        assert [seed for _, _, seeds in got for seed in seeds] == [
            derived_seed(5, i, rep) for i in range(2) for rep in range(30)
        ]

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

        assert [len(run) for _, run, _ in replications(4, 60, 1)] == [4]
        batched = studies()
        monkeypatch.setattr(harness, "_RUN_ENTRIES", 1)
        assert [len(run) for _, run, _ in replications(4, 60, 1)] == [1] * 4
        assert studies() == batched


class TestRunReductions:
    """The reductions of a whole run equal the one-row computations bit for bit."""

    @pytest.mark.parametrize("count", [1, 2, 21])
    @pytest.mark.parametrize("m", [2, 3, 400])
    def test_ise_of_run_matches_the_one_row_trapezoid(self, count, m):
        rng = np.random.default_rng(1000 * count + m)
        grid = np.sort(rng.uniform(0.0, 4.0, size=m))
        truth = rng.normal(size=m)
        derivative = truth + rng.normal(scale=0.3, size=(count, m))
        got = harness._ise_of_run(derivative, truth, grid, "plugin", 200)
        assert all(type(v) is float for v in got)
        for row, ise in zip(derivative, got):
            diff = row - truth
            want = float(harness._trapezoid(diff * diff, grid))
            assert ise.hex() == want.hex()

    @pytest.mark.parametrize(
        "values",
        [
            [0.3],
            [0.3, 0.1],
            [0.1, 0.3, 0.2],
            [0.1, 0.2, 0.2, 0.1],
            [0.2, 0.2, 0.2],
            [1.0, 2.0 ** -1074, 1e300, 1e300],
        ],
    )
    def test_median_matches_numpy(self, values):
        rng = np.random.default_rng(len(values))
        for case in (values, list(rng.uniform(size=100)), list(rng.uniform(size=101))):
            want = float(np.median(np.asarray(case)))
            assert harness._median(case).hex() == want.hex()

    def test_ise_overflow_is_a_numerical_failure(self):
        truth = np.array([0.0, 1.0, 0.0])
        grid = np.array([0.0, 1.0, 2.0])
        for peak in (1e100, 1e200):  # an ISE above 1e150, and one that is inf
            derivative = np.array([[0.0, 1.0, 0.0], [0.0, peak, 0.0]])
            with pytest.raises(DegenerateIntegralError, match=r"mode 'chen' at n=7 overflows"):
                harness._ise_of_run(derivative, truth, grid, "chen", 7)


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
        # Each message is the one its selector raises when it runs alone.
        for mode, message in rep.bandwidth_errors.items():
            assert message == _selector_failure(cfg, mode)

    def test_refined_root_outside_the_window_is_reported_alone(self):
        cfg = small_config(
            distribution=MaxwellParams(sigma=1e-4), replications=1,
            bandwidth_modes=("plugin", "refined"),
        )
        rep = run_experiment(cfg)
        assert list(rep.bandwidths) == ["plugin"]
        assert rep.bandwidth_errors == {"refined": _selector_failure(cfg, "refined")}
        assert rep.bandwidth_errors["refined"].startswith(
            "NoRootError: stationarity residual has no sign change"
        )

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


def _fixed_run(k: int, c: float):
    """run_experiment at Maxwell sigma = 2^k, n = 200, on (0.02 sigma, 4 sigma] at b = c sigma."""
    sigma = math.ldexp(1.0, k)
    return run_experiment(ExperimentConfig(
        distribution=MaxwellParams(sigma), n=200, seed=7, replications=3,
        grid=GridSpec(min=0.02 * sigma, max=4.0 * sigma),
        bandwidth_modes=(FixedBandwidth(c * sigma),),
    ))


class TestScaleEquivariance:
    """A fixed-bandwidth run at Maxwell sigma = 2^k is the sigma = 1 run, rescaled bit for bit.

    The draws are sigma times the unit draws, the grid and the bandwidth
    scale exactly, and the estimator works in u = t / b and divides by b at
    the end, so each ISE is 2^(-3k) and each curve 2^(-2k) times its
    sigma = 1 value. The same ufuncs run on the same mantissas at every k,
    so this holds on any SIMD path. Past |k| = 100 the squared differences
    inside the ISE leave the normal float range.
    """

    @given(k=st.integers(min_value=-100, max_value=100),
           c=st.sampled_from([0.1, 0.03, 0.005]))
    @settings(max_examples=20, deadline=None)
    @example(k=100, c=0.005)
    @example(k=-100, c=0.1)
    def test_fixed_modes_rescale_exactly(self, k, c):
        base, run = _fixed_run(0, c), _fixed_run(k, c)
        assert [r["replication"] for r in run.per_replication_ise] == [0, 1, 2]
        got = np.array([r["ise"] for r in run.per_replication_ise])
        want = np.array([r["ise"] for r in base.per_replication_ise])
        assert np.array_equal(got, np.ldexp(want, -3 * k))
        [want_curve], [got_curve] = base.curves.values(), run.curves.values()
        assert got_curve.bandwidth == math.ldexp(want_curve.bandwidth, k)
        assert np.array_equal(got_curve.grid, np.ldexp(want_curve.grid, k))
        assert np.array_equal(got_curve.density, np.ldexp(want_curve.density, -k))
        assert np.array_equal(got_curve.derivative, np.ldexp(want_curve.derivative, -2 * k))
        assert np.array_equal(run.true_derivative, np.ldexp(base.true_derivative, -2 * k))


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


class TestRateFit:
    """The closed-form log-log line is the least-squares line of np.polyfit, without LAPACK.

    Tolerances are relative to the largest slope the data can carry,
    max|ln mise| / std(ln n), which bounds |slope| and keeps a flat ladder's
    near-zero slope from asking for bits no fit has.
    """

    LADDERS = st.lists(
        st.tuples(
            st.integers(1, 100_000),
            st.floats(1e-12, 1e3, allow_nan=False, allow_infinity=False),
        ),
        min_size=4,
        max_size=10,
        unique_by=lambda point: point[0],
    )

    @staticmethod
    def _fit(points):
        """(ln n, ln mise, closed-form slope and intercept, slope scale) of the points."""
        n_list = [n for n, _ in points]
        mise = np.array([m for _, m in points])
        x, y = np.log(np.array(n_list, dtype=float)), np.log(mise)
        return x, y, harness._log_log_fit(n_list, mise), np.abs(y).max() / x.std()

    @settings(max_examples=200, deadline=None)
    @given(LADDERS)
    # Sizes a few apart, where a fit from uncentred moments loses six digits.
    @example([(30317, 8.6e-09), (30325, 0.18), (30318, 1.6e-08), (30320, 1.9e-05)])
    def test_is_the_exact_least_squares_line(self, points):
        # The least-squares line of the rounded logs, in rational arithmetic.
        x, y, (slope, intercept), scale = self._fit(points)
        xs, ys = [Fraction(v) for v in x], [Fraction(v) for v in y]
        mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
        exact = sum((a - mx) * (b - my) for a, b in zip(xs, ys)) / sum((a - mx) ** 2 for a in xs)
        assert abs(Fraction(slope) - exact) <= Fraction(1e-12) * Fraction(scale)
        assert abs(Fraction(intercept) - (my - exact * mx)) <= Fraction(1e-12) * Fraction(
            scale * x.mean())

    @settings(max_examples=200, deadline=None)
    @given(LADDERS.filter(lambda points: max(points)[0] >= 2 * min(points)[0]))
    @example([(200, 0.05), (400, 0.05), (800, 0.05), (1600, 0.05)])  # a flat ladder
    def test_matches_polyfit(self, points):
        # polyfit solves the uncentred system, whose rounding error grows as
        # mean(ln n) / std(ln n): on a ladder of sizes within 10 of 30,000 it
        # moves the slope by up to 5e-11 of the scale, while the closed form
        # stays within 3e-16 of the exact line. The default, golden and
        # benchmark ladders span factors of 16, 8 and 16.
        x, y, (slope, intercept), scale = self._fit(points)
        want_slope, want_intercept = np.polyfit(x, y, 1)
        assert abs(slope - want_slope) <= 1e-12 * scale
        assert abs(intercept - want_intercept) <= 1e-12 * scale * x.mean()

    def test_study_makes_no_lapack_call(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("LAPACK least squares called")

        monkeypatch.setattr(np, "polyfit", refuse)
        monkeypatch.setattr(np.linalg, "lstsq", refuse)
        res = convergence_study(ConvergenceConfig(seed=1000, **TestConvergence.CFG))
        assert res.slope < -0.1


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

    @staticmethod
    def per_point_rows(cfg: MomentCheckConfig) -> list:
        """Each row's statistics, point by point, from the replications' own estimates."""
        ref = reference_for(cfg.distribution)
        xs = np.asarray(cfg.x_list)
        samples = [
            sample(cfg.distribution, cfg.n, derived_seed(cfg.seed, r))
            for r in range(cfg.replications)
        ]
        _, _, estimates = evaluate_batch(samples, cfg.b, xs)
        with np.errstate(all="ignore"):
            truth = np.asarray(ref.d1(xs), dtype=float)
        rows = []
        for j, x in enumerate(cfg.x_list):
            column = estimates[:, j]
            bias = asymptotics.bias_interior(ref, x, cfg.b)
            var_pred = asymptotics.variance_leading(ref, x, cfg.b, cfg.n)
            mean = column.mean()
            if cfg.replications > 1:
                var = column.var(ddof=1)
                se = math.sqrt(var / cfg.replications)
                bias_z = (mean - truth[j] - bias) / se if se > 0.0 else math.nan
                ratio = var / var_pred if var_pred != 0.0 else math.nan
            else:
                var = bias_z = ratio = math.nan
            rows.append((x, mean, var, truth[j], bias, var_pred, bias_z, ratio))
        return [[float(v).hex() for v in row] for row in rows]

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "replications, x_list",
        [
            (1, (0.3, 1.0, 2.5)),
            (2, (0.3, 1.0, 2.5)),
            (7, (0.3, 1.0, 2.5)),
            (3, (1.0, 1e300)),  # the predicted variance at 1e300 is 0
            (1, (1.0, 1e300)),
        ],
    )
    def test_rows_match_the_per_point_statistics_bit_for_bit(self, replications, x_list):
        # The golden file keeps 12 digits; this compares every bit of every field.
        cfg = MomentCheckConfig(
            distribution=MAXWELL, x_list=x_list, b=0.1, n=50, seed=5,
            replications=replications,
        )
        rows = asymptotic_moment_check(cfg).rows
        got = [[float(v).hex() for v in dataclasses.astuple(row)] for row in rows]
        assert got == self.per_point_rows(cfg)


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

    def test_csv_table_matches_the_per_value_format(self, tmp_path):
        special = [-0.0, 5e-324, -1e-300, 1e300, 2.0, 0.0, 1.0 / 3.0]
        rng = np.random.default_rng(5)
        columns = {
            "x": np.array(special + list(rng.uniform(0.0, 4.0, size=50))),
            "y": np.array(special[::-1] + list(rng.normal(size=50))),
            "z": np.array(special + list(rng.normal(scale=1e-200, size=50))),
        }
        write_csv(columns, tmp_path / "t.csv")
        lines = [",".join(columns)]
        lines += [",".join(format(v, ".12g") for v in row) for row in zip(*columns.values())]
        assert (tmp_path / "t.csv").read_text() == "\n".join(lines) + "\n"

    def test_json_text_is_ascii_with_trailing_newline(self):
        text = json_text({"x": 1.0 / 3.0})
        assert text.endswith("\n")
        assert text == '{\n  "x": 0.333333333333\n}\n'
