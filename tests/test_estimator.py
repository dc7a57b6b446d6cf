import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from etfilter import _oracles as oracles
from etfilter._oracles import random_model, random_spd
from etfilter.estimator import EventTriggeredFilter, prior_cache
from etfilter.model import TRUE_INITIAL_STATE, LinearGaussianModel, simulate, tracking_preset
from etfilter.numerics import ball_moments
from etfilter.trigger import make_config

CASE1 = np.array([[50.0, 4.0], [4.0, 8.0]])


def _tracking_filter(alpha=0.05):
    model = tracking_preset()
    trig = make_config(CASE1, alpha)
    return model, trig, EventTriggeredFilter(model, trig)


class TestConstruction:
    def test_rejects_dimension_mismatch(self):
        model = tracking_preset()
        trig = make_config(np.array([[1.0]]), 0.05)
        with pytest.raises(ValueError):
            EventTriggeredFilter(model, trig)

    def test_rejects_singular_measurement_noise(self):
        model = LinearGaussianModel(
            A=np.eye(1),
            C=np.eye(1),
            Q=np.eye(1),
            R=np.zeros((1, 1)),
            x0_mean=np.zeros(1),
            x0_cov=np.eye(1),
        )
        with pytest.raises(ValueError):
            EventTriggeredFilter(model, make_config(np.eye(1)))


class TestAlwaysSendEquivalence:
    """With a zero threshold every step transmits and the recursion must
    collapse to the ordinary Kalman filter."""

    def test_matches_reference_kalman(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            n = int(rng.integers(1, 5))
            p = int(rng.integers(1, 4))
            model = random_model(rng, n, p)
            trig = replace(make_config(np.eye(p), 0.05), threshold=0.0)
            filt = EventTriggeredFilter(model, trig)
            ys = rng.normal(size=(30, p)) * 3.0
            run = filt.run(ys)
            want_x, want_p = oracles.kalman_filter(model, ys)
            assert run.gamma.all()
            assert np.allclose(run.xhat, want_x, rtol=1e-11, atol=1e-11)
            assert np.allclose(run.P, want_p, rtol=1e-11, atol=1e-11)


class TestNeverSend:
    def test_open_loop_propagation(self):
        rng = np.random.default_rng(33)
        model = random_model(rng, 3, 2)
        trig = replace(make_config(np.eye(2), 0.05), threshold=math.inf)
        filt = EventTriggeredFilter(model, trig)
        ys = rng.normal(size=(15, 2)) * 5.0
        run = filt.run(ys)
        assert not run.gamma.any()
        x = model.x0_mean.copy()
        cov = model.x0_cov.copy()
        for k in range(15):
            if k > 0:
                x = model.A @ x
                cov = model.A @ cov @ model.A.T + model.Q
            scale = max(np.abs(cov).max(), 1.0)
            assert np.allclose(run.xhat[k], x, rtol=1e-10, atol=1e-10)
            assert np.abs(run.P[k] - cov).max() < 1e-9 * scale, k
        assert np.all(run.prob0 == 1.0)


class TestSilenceCarriesInformation:
    def test_silent_covariance_between_send_and_open_loop(self):
        model, trig, filt = _tracking_filter()
        # Zero innovation forces the silent branch at time zero.
        g0, state = filt.init(model.C @ model.x0_mean)
        assert g0 == 0
        open_loop = np.trace(model.x0_cov)
        sent = np.trace(state.cache.P_z)
        silent = np.trace(state.P)
        assert sent < silent < open_loop

    def test_send_branch_uses_posted_covariance(self):
        model, trig, filt = _tracking_filter()
        y0 = model.C @ model.x0_mean + np.array([500.0, 40.0])
        g0, state = filt.init(y0)
        assert g0 == 1
        assert np.array_equal(state.P, state.cache.P_z)

    def test_silent_mean_is_prediction(self):
        model, trig, filt = _tracking_filter()
        _, state = filt.init(model.C @ model.x0_mean + np.array([400.0, 30.0]))
        xpred, _, ypred = filt.predict(state)
        out, nxt = filt.step(state, ypred)
        assert out.gamma == 0
        assert np.array_equal(out.xhat, xpred)
        assert np.array_equal(nxt.xhat, out.xhat)


class TestDegenerateTrigger:
    def test_tiny_threshold_raises_on_silent_step(self):
        model, trig, _ = _tracking_filter()
        tiny = replace(trig, threshold=1e-305)
        filt = EventTriggeredFilter(model, tiny)
        with pytest.raises(ValueError, match="degenerate"):
            filt.init(model.C @ model.x0_mean)

    def test_tiny_threshold_fine_while_sending(self):
        model, trig, _ = _tracking_filter()
        tiny = replace(trig, threshold=1e-305)
        filt = EventTriggeredFilter(model, tiny)
        g0, state = filt.init(model.C @ model.x0_mean + np.array([1.0, 1.0]))
        assert g0 == 1
        assert np.isfinite(state.xhat).all()


class TestNonFiniteMeasurements:
    """A NaN or inf measurement must raise, never pass as silence."""

    def test_init_rejects_nan(self):
        _, _, filt = _tracking_filter()
        with pytest.raises(ValueError, match="NaN or inf"):
            filt.init([math.nan, 0.0])

    def test_step_rejects_inf(self):
        model, _, filt = _tracking_filter()
        _, state = filt.init(model.C @ model.x0_mean)
        with pytest.raises(ValueError, match="NaN or inf"):
            filt.step(state, [math.inf, 1.0])

    def test_run_rejects_any_non_finite_entry(self):
        model, _, filt = _tracking_filter()
        ys = simulate(model, 10, np.random.default_rng(3)).measurements
        ys[7, 1] = -math.inf
        with pytest.raises(ValueError, match="NaN or inf"):
            filt.run(ys)


class TestHugeBound:
    def test_silence_guard_is_unit_free(self):
        """A bound of 1e170 * I is effectively never-send: silence has
        probability 1 although the raw silence mass is ~1e-166."""
        model = tracking_preset()
        filt = EventTriggeredFilter(model, make_config(1e170 * np.eye(2), 0.05))
        traj = simulate(model, 10, np.random.default_rng(12), x0=np.array(TRUE_INITIAL_STATE))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            gamma, state = filt.init(traj.measurements[0])
            for k in range(1, 11):
                out, state = filt.step(state, traj.measurements[k])
                gamma += out.gamma
        assert gamma == 0
        assert state.cache.prob0 == pytest.approx(1.0, abs=1e-12)
        assert np.isfinite(state.P).all()

    def test_underflowed_silence_mass_stays_finite(self, three_output_model):
        """With nbar = 1e250 * I3 the Gaussian normaliser of the silence mass
        overflows while prob0 is 1 in double precision; neither the step nor
        the ball moments at that scale may depend on it."""
        model = three_output_model
        filt = EventTriggeredFilter(model, make_config(1e250 * np.eye(3), 0.05))
        traj = simulate(model, 10, np.random.default_rng(13), x0=np.array(TRUE_INITIAL_STATE))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, state = filt.init(traj.measurements[0])
            for k in range(1, 11):
                out, state = filt.step(state, traj.measurements[k])
                assert np.isfinite(out.P).all(), k
            huge = ball_moments(np.diag([1e250] * 3), 1e250)
        assert 1.0 - state.cache.prob0 <= 1e-15
        unit = ball_moments(np.eye(3), 1.0)
        assert huge.prob == pytest.approx(unit.prob, rel=1e-12)
        want = 1e250 * unit.conditional
        assert np.abs(huge.conditional - want).max() <= 1e-12 * np.abs(want).max()


class TestBatchedRecursion:
    """The harness filters a chunk of trials as one batch; every row must be
    the run of that trial alone."""

    @pytest.mark.parametrize("p", [2, 3])
    def test_rows_equal_single_runs(self, p):
        if p == 2:
            model, trig, filt = _tracking_filter()
            x0 = np.array(TRUE_INITIAL_STATE)
        else:
            rng = np.random.default_rng(14)
            model = random_model(rng, 3, 3)
            trig = make_config(random_spd(rng, 3), 0.1)
            filt = EventTriggeredFilter(model, trig)
            x0 = None
        trajs = [
            simulate(model, 30, np.random.default_rng(np.random.SeedSequence([8, i])), x0=x0)
            for i in range(9)
        ]
        batch, caches = filt._run_batch(np.stack([t.measurements for t in trajs]))
        assert len(caches) == 31
        assert 0 < batch.gamma.mean() < 1
        for i, traj in enumerate(trajs):
            single = filt.run(traj.measurements)
            assert np.array_equal(batch.gamma[i], single.gamma)
            for got, want in ((batch.xhat[i], single.xhat), (batch.P[i], single.P)):
                assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
            assert np.allclose(batch.prob0[i], single.prob0, rtol=1e-12, atol=0.0)


class TestRunBookkeeping:
    def test_run_matches_manual_loop(self):
        model, trig, filt = _tracking_filter()
        rng = np.random.default_rng(40)
        traj = simulate(model, 30, rng)
        run = filt.run(traj.measurements)
        g, state = filt.init(traj.measurements[0])
        assert run.gamma[0] == g
        assert np.array_equal(run.xhat[0], state.xhat)
        for k in range(1, 31):
            out, state = filt.step(state, traj.measurements[k])
            assert run.gamma[k] == out.gamma
            assert np.array_equal(run.xhat[k], out.xhat)
            assert np.array_equal(run.P[k], out.P)
            assert run.prob0[k] == state.cache.prob0
            assert np.array_equal(out.P, state.cache.P_z if out.gamma else state.cache.P_silent)

    def test_covariances_stay_symmetric_psd(self):
        model, trig, filt = _tracking_filter()
        traj = simulate(model, 80, np.random.default_rng(42))
        run = filt.run(traj.measurements)
        for k in range(81):
            p = run.P[k]
            assert np.array_equal(p, p.T)
            assert np.linalg.eigvalsh(p)[0] > -1e-10


class TestPriorCache:
    def test_matches_init_cache(self):
        model, trig, filt = _tracking_filter()
        cache = prior_cache(model, trig)
        _, state = filt.init(np.zeros(2))
        assert np.array_equal(cache.P_z, state.cache.P_z)
        assert cache.prob0 == state.cache.prob0
        assert np.array_equal(cache.P_silent, state.cache.P_silent)

    def test_data_independent(self):
        model, trig, filt = _tracking_filter()
        _, a = filt.init(np.array([0.0, 0.0]))
        _, b = filt.init(np.array([900.0, -50.0]))
        assert a.cache.prob0 == b.cache.prob0
        assert np.array_equal(a.cache.P_silent, b.cache.P_silent)


class TestStatisticalConsistency:
    def test_normalized_errors_have_unit_scale(self):
        """Mean squared Mahalanobis error must match the state dimension when
        the truth is drawn from the filter's own prior."""
        model, trig, filt = _tracking_filter()
        trials, k_probe = 500, 30
        nees = np.empty(trials)
        for t in range(trials):
            rng = np.random.default_rng(np.random.SeedSequence([987, t]))
            traj = simulate(model, k_probe, rng)
            run = filt.run(traj.measurements)
            err = run.xhat[k_probe] - traj.states[k_probe]
            nees[t] = err @ np.linalg.solve(run.P[k_probe], err)
        assert nees.mean() == pytest.approx(model.n, rel=0.15)
