import concurrent.futures
import csv
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from etfilter import estimator, harness
from etfilter.harness import (
    CASE_BOUNDS,
    TABLE1_REFERENCE,
    ExperimentConfig,
    emit_csv,
    run_monte_carlo,
    table1,
)
from etfilter.estimator import EventTriggeredFilter, StepCache, _branch_silence
from etfilter.model import TRUE_INITIAL_STATE, LinearGaussianModel, simulate, tracking_preset
from etfilter.rate import RateState, _two_step_of_run, rate_one_step, rate_two_step
from etfilter.trigger import TriggerConfig, make_config

SMALL = dict(trials=40, steps=30, seed=77)


class TestConfigValidation:
    @pytest.mark.parametrize(
        "bad",
        [
            dict(steps=1),
            dict(trials=0),
            dict(seed=-1),
            dict(jobs=0),
            dict(alpha=2.0),
            dict(alpha=0.0),
            dict(trials=2.5),
            dict(steps=10.5),
            dict(seed=1.5),
            dict(jobs=1.5),
            dict(trials=True),
            dict(jobs=False),
            dict(alpha="0.05"),
            dict(alpha=True),
        ],
    )
    def test_rejects_bad_numbers(self, bad):
        with pytest.raises(ValueError):
            ExperimentConfig(**{**SMALL, **bad})

    def test_rejects_non_string_case(self):
        with pytest.raises(ValueError, match="case must be a string"):
            ExperimentConfig(case=["case1"], **SMALL)

    def test_rejects_unknown_case(self):
        with pytest.raises(ValueError, match="unknown case"):
            run_monte_carlo(ExperimentConfig(case="case9", **SMALL))

    def test_case_bounds_registered(self):
        assert sorted(CASE_BOUNDS) == ["case1", "case2", "case3"]
        assert np.array_equal(CASE_BOUNDS["case2"], 0.5 * CASE_BOUNDS["case1"])
        assert sorted(TABLE1_REFERENCE) == sorted(CASE_BOUNDS)

    def test_trigger_built_once_per_config(self, monkeypatch, tmp_path):
        calls = []

        def spy(*args):
            calls.append(args)
            return make_config(*args)

        cfg = ExperimentConfig(case="case2", trials=3, steps=5)
        monkeypatch.setattr(harness, "make_config", spy)
        run_monte_carlo(cfg)
        assert calls == []
        table1(cfg, tmp_path)
        assert len(calls) == len(CASE_BOUNDS)

    def test_trial_index_clamped(self):
        cfg = ExperimentConfig(case="case1", trials=3, steps=10, seed=1)
        summary = run_monte_carlo(cfg)
        assert np.isfinite(summary.rate_alg2).all()


def _public_monte_carlo(model, nbar, trials, steps, seed, x0=None):
    """Per-step send rate and RMS error of a stacked Monte Carlo on ``model``."""
    rngs = [np.random.default_rng(np.random.SeedSequence([seed, i])) for i in range(trials)]
    traj = simulate(model, steps - 1, rngs, x0=x0)
    run = EventTriggeredFilter(model, make_config(nbar)).run(traj.measurements)
    return run.gamma.mean(0), np.sqrt(((run.xhat - traj.states) ** 2).mean(0))


class TestNonFiniteTrials:
    def test_overflowing_trajectories_raise(self):
        # A true state of 1e308 doubles to inf at the first transition.
        model = LinearGaussianModel(
            A=np.array([[2.0]]),
            C=np.array([[1.0]]),
            Q=np.array([[1.0]]),
            R=np.array([[1.0]]),
            x0_mean=np.zeros(1),
            x0_cov=np.eye(1),
        )
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match="NaN or inf"):
                _public_monte_carlo(model, np.eye(1), trials=3, steps=6, seed=2, x0=[1e308])


class TestDeterminism:
    def test_repeat_runs_identical(self):
        cfg = ExperimentConfig(case="case1", **SMALL)
        a = run_monte_carlo(cfg)
        b = run_monte_carlo(cfg)
        assert np.array_equal(a.rms, b.rms)
        assert np.array_equal(a.rate_empirical, b.rate_empirical)
        assert np.array_equal(a.rate_alg1, b.rate_alg1)
        assert np.array_equal(a.rate_alg2, b.rate_alg2)

    def test_worker_count_does_not_change_results(self):
        base = dict(case="case1", trials=250, steps=25, seed=5)
        serial = run_monte_carlo(ExperimentConfig(jobs=1, **base))
        parallel = run_monte_carlo(ExperimentConfig(jobs=2, **base))
        assert np.array_equal(serial.rms, parallel.rms)
        assert np.array_equal(serial.rate_empirical, parallel.rate_empirical)
        assert np.array_equal(serial.rate_alg1, parallel.rate_alg1)
        assert np.array_equal(serial.rate_alg2, parallel.rate_alg2)

    @pytest.mark.parametrize("trials, workers", [(10, []), (250, [2])])
    def test_no_idle_workers(self, monkeypatch, trials, workers):
        """At most one worker per 200-trial chunk; a single chunk runs in process."""
        started = []

        class SpyPool(ThreadPoolExecutor):
            def __init__(self, max_workers):
                started.append(max_workers)
                super().__init__(max_workers)

        # run_monte_carlo imports the pool class from concurrent.futures at call time.
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SpyPool)
        run_monte_carlo(ExperimentConfig(trials=trials, steps=5, jobs=3))
        assert started == workers

    def test_seed_changes_results(self):
        a = run_monte_carlo(ExperimentConfig(case="case1", **{**SMALL, "seed": 1}))
        b = run_monte_carlo(ExperimentConfig(case="case1", **{**SMALL, "seed": 2}))
        assert not np.array_equal(a.rms, b.rms)


class TestStatisticalOutputs:
    def test_near_perfect_measurements_drive_rms_to_zero(self):
        model = LinearGaussianModel(
            A=np.array([[0.95]]),
            C=np.array([[1.0]]),
            Q=np.array([[0.01]]),
            R=np.array([[1e-12]]),
            x0_mean=np.zeros(1),
            x0_cov=np.eye(1),
        )
        # A microscopic bound forces every step to transmit.
        rate, rms = _public_monte_carlo(model, 1e-30 * np.eye(1), trials=30, steps=20, seed=3)
        assert np.all(rate == 1.0)
        assert np.all(rms[1:, 0] < 1e-4)

    def test_empirical_se_formula(self):
        summary = run_monte_carlo(ExperimentConfig(case="case1", **SMALL))
        want = np.sqrt(summary.rate_empirical * (1 - summary.rate_empirical) / summary.config.trials)
        assert np.allclose(summary.rate_se, want, rtol=1e-12)

    def test_average_rates_are_time_means(self):
        summary = run_monte_carlo(ExperimentConfig(case="case2", **SMALL))
        assert summary.avg_rates[0] == pytest.approx(summary.rate_empirical.mean(), rel=1e-12)
        assert summary.avg_rates[1] == pytest.approx(summary.rate_alg1.mean(), rel=1e-12)
        assert summary.avg_rates[2] == pytest.approx(summary.rate_alg2.mean(), rel=1e-12)

    def test_two_step_prediction_tracks_population_rate(self, benchmark_results):
        """Per-step two-step predictions from a single trial stay close to the
        population transmission frequency.  The bands combine the intrinsic
        tracking error measured at reference scale with the binomial noise of
        the empirical frequency at the configured trial count."""
        for case, summary in benchmark_results.items():
            diff = np.abs(summary.rate_empirical[2:] - summary.rate_alg2[2:])
            noise = float(summary.rate_se[2:].mean())
            assert diff.mean() < 0.02 + noise, case
            assert diff.max() < 0.08 + 4.0 * noise, case


class TestCsvOutput:
    @pytest.fixture()
    def summary(self):
        return run_monte_carlo(ExperimentConfig(case="case1", **SMALL))

    def test_headers_and_shape(self, summary, tmp_path):
        paths = emit_csv(summary, tmp_path)
        rms_rows = list(csv.reader(paths["rms"].open()))
        assert rms_rows[0] == ["k", "rms_position", "rms_velocity", "rms_acceleration"]
        assert len(rms_rows) == summary.config.steps + 1
        rates_rows = list(csv.reader(paths["rates"].open()))
        assert rates_rows[0] == ["k", "empirical", "alg1", "alg2", "empirical_se"]
        sum_rows = list(csv.reader(paths["summary"].open()))
        assert sum_rows[0] == ["case", "avg_empirical", "avg_alg1", "avg_alg2"]
        assert sum_rows[1][0] == "case1"

    def test_floats_round_trip(self, summary, tmp_path):
        paths = emit_csv(summary, tmp_path)
        rows = list(csv.reader(paths["rms"].open()))[1:]
        got = np.array([[float(v) for v in row[1:]] for row in rows])
        assert np.array_equal(got, summary.rms)
        rows = list(csv.reader(paths["rates"].open()))[1:]
        assert np.array_equal(np.array([float(r[1]) for r in rows]), summary.rate_empirical)
        assert np.array_equal(np.array([float(r[3]) for r in rows]), summary.rate_alg2)

    def test_line_endings_are_lf(self, summary, tmp_path):
        paths = emit_csv(summary, tmp_path)
        for path in paths.values():
            raw = path.read_bytes()
            assert b"\r" not in raw
            assert raw.endswith(b"\n")


class TestTable1:
    def test_runs_all_cases_and_writes_outputs(self, tmp_path, capsys):
        summaries = table1(ExperimentConfig(trials=20, seed=9), output_dir=tmp_path)
        assert sorted(summaries) == ["case1", "case2", "case3"]
        assert capsys.readouterr().out == ""  # the report is etfilter table1's to print
        for case in summaries:
            assert (Path(tmp_path) / case / "rms.csv").exists()
        combined = list(csv.reader((Path(tmp_path) / "summary.csv").open()))
        assert len(combined) == 4
        assert [row[0] for row in combined[1:]] == ["case1", "case2", "case3"]

    def test_simulates_each_chunk_once_for_all_cases(self, monkeypatch, tmp_path):
        """The trajectories do not depend on the trigger: each 200-trial chunk
        is simulated once for the three cases and filtered as one stack.  Each
        case's summary equals the one ``run_monte_carlo`` gives it alone, bit
        for bit, the short last chunk included."""
        config = ExperimentConfig(trials=250, steps=6, seed=11)
        calls = []

        def spy(*args, **kwargs):
            calls.append(len(args[2]))
            return simulate(*args, **kwargs)

        monkeypatch.setattr(harness, "simulate", spy)
        summaries = table1(config, tmp_path)
        assert calls == [200, 50]
        for case, got in summaries.items():
            want = run_monte_carlo(replace(config, case=case))
            assert got.config == want.config
            fields = ("rms", "rate_empirical", "rate_se", "rate_alg1", "rate_alg2", "avg_rates")
            for field in fields:
                assert np.array_equal(getattr(got, field), getattr(want, field)), (case, field)

    def test_rates_of_the_designated_trial_equal_the_online_loop(self, tmp_path):
        """Each case's rate_alg1 and rate_alg2 are those of trial 40 filtered
        alone by init and step, with rate_two_step called before each step,
        bit for bit, although table1 filters that trial in a 600-row stack."""
        config = ExperimentConfig(trials=250, steps=30, seed=5)
        model = tracking_preset()
        rng = np.random.default_rng(np.random.SeedSequence([config.seed, 40]))
        ys = simulate(model, config.steps - 1, rng, x0=TRUE_INITIAL_STATE).measurements
        for case, summary in table1(config, tmp_path).items():
            trig = summary.config.trigger
            filt = EventTriggeredFilter(model, trig)
            _, state = filt.init(ys[0])
            alg1 = [rate_one_step(state.cache).gamma_hat]
            alg2 = alg1[:]
            for y in ys[1:]:
                rate_state = RateState(state.cache.prob0, state.cache, model, trig)
                alg2.append(rate_two_step(rate_state).gamma_hat)
                _, state = filt.step(state, y)
                alg1.append(rate_one_step(state.cache).gamma_hat)
            assert np.array_equal(summary.rate_alg1, alg1), case
            assert np.array_equal(summary.rate_alg2, alg2), case


class TestTwoStepOfRun:
    """The harness's two-step prediction takes the branch each step took from
    the run and whitens only the untaken one."""

    def test_taken_branch_is_the_runs_silence_probability(self):
        """For every step of the designated trial, filtered in a stack under
        the three cases' whiteners as table1 filters it, the taken branch of
        the step's one-row two-branch evaluation is the run's ``prob0[k]``, bit
        for bit, so the K-row helper returns the per-step predictor's bits."""
        model, seed, steps = tracking_preset(), 5, 101
        rng = np.random.default_rng(np.random.SeedSequence([seed, 40]))
        ys = simulate(model, steps - 1, rng, x0=TRUE_INITIAL_STATE).measurements
        triggers = [make_config(CASE_BOUNDS[case]) for case in sorted(CASE_BOUNDS)]
        stacked = TriggerConfig(np.array([t.phi for t in triggers]), triggers[0].threshold)
        run = EventTriggeredFilter(model, stacked).run(np.repeat(ys[None], 3, axis=0))
        for i, trig in enumerate(triggers):
            gamma, cache = run.gamma[i], StepCache(*(f[i] for f in run.cache))
            rows = [StepCache(*(f[k] for f in cache)) for k in range(steps - 1)]
            p_sent, p_silent = np.array([_branch_silence(model, trig, c) for c in rows]).T
            taken = np.where(gamma[:-1] == 1, p_sent, p_silent)
            assert np.array_equal(taken, cache.prob0[1:]), i
            want = [rate_two_step(RateState(c.prob0, c, model, trig)).gamma_hat for c in rows]
            assert np.array_equal(_two_step_of_run(model, trig, gamma, cache), want), i

    def test_prediction_whitens_one_row_per_step_and_case(self, monkeypatch, tmp_path):
        """A table1 chunk's eigensolves: one per filter step over the whole
        stack, then one per case over the K untaken branches of its K + 1
        steps, not 2K."""
        config = ExperimentConfig(trials=50, steps=12, seed=3)
        rows = []

        def spy(a):
            rows.append(len(a))
            return eigh(a)

        eigh = estimator._eigh
        monkeypatch.setattr(estimator, "_eigh", spy)
        table1(config, tmp_path)
        assert rows == [3 * config.trials] * config.steps + [config.steps - 1] * 3
