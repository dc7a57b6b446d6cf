import math
import warnings
from dataclasses import replace
from functools import lru_cache

import numpy as np
import pytest

from etfilter.estimator import (
    EventTriggeredFilter,
    FilterRun,
    StepCache,
    _cache,
    _checked,
    _constants,
)
from etfilter.harness import CASE_BOUNDS
from etfilter.model import TRUE_INITIAL_STATE, LinearGaussianModel, simulate, tracking_preset
from etfilter.numerics import ball_moments, symmetrize
from etfilter.trigger import TriggerConfig, make_config

import oracles
from oracles import random_model, random_spd

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


    @pytest.mark.parametrize("name", ["model", "trigger"])
    def test_model_and_trigger_are_read_only(self, name):
        """The filter derives its per-step constants from both once, so
        neither may be swapped afterwards."""
        _, _, filt = _tracking_filter()
        with pytest.raises(AttributeError):
            setattr(filt, name, getattr(filt, name))


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
            assert np.array_equal(run.cache.P_silent, run.cache.P_z)
            assert (run.cache.prob0 == 0).all()
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
        assert np.all(run.cache.prob0 == 1.0)


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
        xpred = state.xhat[None] @ model.A.T
        ypred = (xpred @ model.C.T)[0]
        out, nxt = filt.step(state, ypred)
        assert out.gamma == 0
        assert np.array_equal(nxt.xhat, xpred[0])


class TestDegenerateTrigger:
    def test_tiny_threshold_silent_step_stays_finite(self):
        """At threshold 1e-305 the silence probability underflows to ~5e-307,
        yet the silent branch is defined: the ball is so small that silence
        pins the innovation to zero, so P_silent is the send-branch P_z."""
        model, trig, _ = _tracking_filter()
        tiny = replace(trig, threshold=1e-305)
        filt = EventTriggeredFilter(model, tiny)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            g0, state = filt.init(model.C @ model.x0_mean)
            ys = simulate(model, 20, np.random.default_rng(14)).measurements
            ys[0] = model.C @ model.x0_mean
            run = filt.run(ys)
        assert g0 == 0
        assert 0.0 < state.cache.prob0 < 1e-300
        assert np.isfinite(state.P).all()
        assert np.allclose(state.cache.P_silent, state.cache.P_z, rtol=1e-12, atol=0.0)
        assert run.gamma[0] == 0 and run.gamma[1:].all()
        assert np.isfinite(run.xhat).all() and np.isfinite(run.P).all()

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


class TestRoundoffCheck:
    """Inputs are validated at construction; inside the recursion N_z is
    checked only for what roundoff can break, and either failure is a
    ValueError naming N_z."""

    def test_overflowing_covariance_raises(self):
        """An unstable model never sends: P grows fourfold a step until it
        overflows near step 512, where the p = 1 N_z has eigenvalue inf."""
        one = np.eye(1)
        model = LinearGaussianModel(A=2 * one, C=one, Q=one, R=one, x0_mean=[0.0], x0_cov=one)
        filt = EventTriggeredFilter(model, TriggerConfig(one, math.inf))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match="N_z"):
                filt.run(np.zeros((600, 1)))

    def test_indefinite_prior_raises(self):
        cov = -1e6 * np.eye(3)[None]
        with pytest.raises(ValueError, match="N_z"):
            _cache(_constants(tracking_preset(), make_config(CASE_BOUNDS["case1"])), cov)

    @pytest.mark.parametrize("column", [0, -1])
    def test_nan_eigenvalue_raises(self, column):
        """A NaN smallest or largest eigenvalue fails the check like a
        nonpositive or infinite one."""
        lam = np.array([[1.0, 2.0], [3.0, 4.0]])
        lam[1, column] = math.nan
        with pytest.raises(ValueError, match="N_z"):
            _checked(lam)


class TestChangeOfUnits:
    @pytest.fixture(scope="class")
    def case1_run(self):
        """200 case-1 trials: the model, the measurements and their run."""
        model = tracking_preset()
        rngs = [np.random.default_rng(np.random.SeedSequence([1234, i])) for i in range(200)]
        ys = simulate(model, 100, rngs, x0=TRUE_INITIAL_STATE).measurements
        return model, ys, EventTriggeredFilter(model, make_config(CASE_BOUNDS["case1"])).run(ys)

    @pytest.mark.parametrize("s", [1e-150, 1e-20, 1e20, 1e150])
    def test_whole_filter_is_unit_free(self, case1_run, s):
        """Scaling the states and measurements by s, and Q, R, x0_cov and the
        bound by s^2, leaves every decision equal, prob0 equal within 1e-14 and
        every P / s^2 equal within 2e-14 of its step's largest entry."""
        model, ys, base = case1_run
        s2 = s * s
        scaled = replace(
            model, Q=s2 * model.Q, R=s2 * model.R, x0_mean=s * model.x0_mean, x0_cov=s2 * model.x0_cov
        )
        trig = make_config(s2 * CASE_BOUNDS["case1"])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            run = EventTriggeredFilter(scaled, trig).run(s * ys)
        assert np.array_equal(run.gamma, base.gamma)
        assert np.abs(run.cache.prob0 - base.cache.prob0).max() <= 1e-14
        err = np.abs(run.P / s2 - base.P).max(axis=(-2, -1))
        assert (err <= 2e-14 * np.abs(base.P).max(axis=(-2, -1))).all()


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
                _, state = filt.step(state, traj.measurements[k])
                assert np.isfinite(state.P).all(), k
            huge = ball_moments(np.diag([1e250] * 3), 1e250)
        assert 1.0 - state.cache.prob0 <= 1e-15
        unit = ball_moments(np.eye(3), 1.0)
        assert huge.prob == pytest.approx(unit.prob, rel=1e-12)
        want = 1e250 * unit.conditional
        assert np.abs(huge.conditional - want).max() <= 1e-12 * np.abs(want).max()


def _fields(run):
    return run.gamma, run.xhat, run.P, run.cache.P_z, run.cache.P_silent, run.cache.prob0


def _assert_runs_equal(got, want):
    for a, b in zip(_fields(got), _fields(want)):
        assert np.array_equal(a, b)


def _stepped(filt, ys):
    """The FilterRun of one trial's measurements fed to ``init`` and ``step``."""
    steps = [filt.init(ys[0])]
    for y in ys[1:]:
        out, state = filt.step(steps[-1][1], y)
        steps.append((out.gamma, state))
    rows = (_fields(FilterRun(g, s.xhat, s.P, s.cache)) for g, s in steps)
    gamma, xhat, cov, *cache = map(np.array, zip(*rows))
    return FilterRun(gamma, xhat, cov, StepCache(*cache))


def _rows(run, index):
    """The trials ``index`` selects from a stacked FilterRun."""
    return FilterRun(*(f[index] for f in run[:-1]), StepCache(*(f[index] for f in run.cache)))


@lru_cache(maxsize=None)
def _trials_and_single_runs(name):
    """A filter, 203 trials of 7 time points and each trial's run alone, on a
    tracking case or on a random (n, p) model under a random bound."""
    if name.startswith("case"):
        model, trig, x0 = tracking_preset(), make_config(CASE_BOUNDS[name]), TRUE_INITIAL_STATE
    else:
        n, p = map(int, name.split("-")[1].split("x"))
        rng = np.random.default_rng(14)
        model, x0 = random_model(rng, n, p), None
        trig = make_config(random_spd(rng, p), 0.1)
    filt = EventTriggeredFilter(model, trig)
    rngs = [np.random.default_rng(np.random.SeedSequence([8, i])) for i in range(203)]
    ys = simulate(model, 6, rngs, x0=x0).measurements
    return filt, ys, [filt.run(y) for y in ys]


class TestBatchedRecursion:
    """``run`` filters a stack of trials together; every row must be the run
    of that trial alone, bit for bit, whatever the stack's size."""

    @pytest.mark.parametrize("trials", [1, 2, 9, 50, 150, 203])
    @pytest.mark.parametrize(
        "name", ["case1", "case2", "case3", "random-3x3", "random-4x2", "random-2x1", "random-5x4"]
    )
    def test_rows_equal_single_runs(self, name, trials):
        filt, ys, singles = _trials_and_single_runs(name)
        batch = filt.run(ys[:trials])
        assert batch.cache.P_silent.shape == (trials, 7, filt.model.n, filt.model.n)
        assert batch.gamma.shape == batch.cache.prob0.shape == (trials, 7)
        for i in range(trials):
            _assert_runs_equal(_rows(batch, i), singles[i])
        if trials == 203:
            assert 0 < batch.gamma.mean() < 1


def _stacked(triggers, trials):
    """One trigger that whitens ``trials`` rows by each of ``triggers`` in turn."""
    phi = np.repeat([t.phi for t in triggers], trials, axis=0)
    return TriggerConfig(phi, triggers[0].threshold)


class TestStackedTrigger:
    """A (B, p, p) stack of whiteners filters B trials, each under its own."""

    def test_rows_equal_each_case_run(self):
        filters, ys, _ = zip(*map(_trials_and_single_runs, sorted(CASE_BOUNDS)))
        trigger = _stacked([f.trigger for f in filters], 203)
        stacked = EventTriggeredFilter(tracking_preset(), trigger).run(np.concatenate(ys))
        for i, filt in enumerate(filters):
            _assert_runs_equal(_rows(stacked, slice(203 * i, 203 * (i + 1))), filt.run(ys[i]))
        # Over the same measurements, the halved bound (case 2) sends the most
        # and the widest (case 3) the least.
        case1, case2, case3 = stacked.gamma.reshape(3, -1).sum(axis=1)
        assert case2 > case1 > case3

    def test_stack_of_one_behaves_like_its_whitener(self):
        model, trig, filt = _tracking_filter()
        one = EventTriggeredFilter(model, replace(trig, phi=trig.phi[None]))
        ys = simulate(model, 20, np.random.default_rng(5)).measurements
        _assert_runs_equal(one.run(ys), filt.run(ys))
        _assert_runs_equal(one.run(ys[None]), filt.run(ys[None]))
        _assert_runs_equal(_stepped(one, ys), _stepped(filt, ys))

    def test_run_rejects_a_stack_of_another_length(self):
        model, trig, _ = _tracking_filter()
        filt = EventTriggeredFilter(model, _stacked([trig], 4))
        ys = simulate(model, 5, np.random.default_rng(6)).measurements
        for batch in (np.tile(ys, (3, 1, 1)), ys):
            with pytest.raises(ValueError, match=r"trigger stacks 4 whiteners: .* shape \(4, 2\)"):
                filt.run(batch)

    def test_init_and_step_reject_a_stack_of_several(self):
        """Without the check a (1, p) row would broadcast against every
        whitener of the stack and ``init`` would return row 0."""
        model, trig, filt = _tracking_filter()
        stacked = EventTriggeredFilter(model, _stacked([trig], 30))
        _, state = filt.init(np.zeros(2))
        for call in (lambda: stacked.init(np.zeros(2)), lambda: stacked.step(state, np.zeros(2))):
            with pytest.raises(ValueError, match="trigger stacks 30 whiteners"):
                call()


class TestRunBookkeeping:
    def test_run_matches_manual_loop(self):
        model, trig, filt = _tracking_filter()
        ys = simulate(model, 30, np.random.default_rng(40)).measurements
        run = filt.run(ys)
        _assert_runs_equal(run, _stepped(filt, ys))
        branch = np.where(run.gamma[:, None, None], run.cache.P_z, run.cache.P_silent)
        assert np.array_equal(run.P, branch)

    def test_one_row_states_hold_read_only_branch_covariances(self):
        """P is the taken branch's own posterior, and P, P_z and P_silent
        cannot be written: the two-step predictor's shared geometry is keyed
        on these arrays' identity."""
        model, trig, filt = _tracking_filter()
        ys = simulate(model, 3, np.random.default_rng(44)).measurements
        gamma, state = filt.init(ys[0])
        for y in ys[1:]:
            assert state.P is (state.cache.P_z if gamma else state.cache.P_silent)
            for cov in (state.P, state.cache.P_z, state.cache.P_silent):
                with pytest.raises(ValueError, match="read-only"):
                    cov[0, 0] = 1.0
            out, state = filt.step(state, y)
            gamma = out.gamma

    @pytest.mark.parametrize("shape", [(11,), (2, 3, 11, 2), (0, 2), (4, 11, 3)])
    def test_run_rejects_bad_shape(self, shape):
        _, _, filt = _tracking_filter()
        with pytest.raises(ValueError, match=r"shape \(K\+1, 2\) or \(B, K\+1, 2\)"):
            filt.run(np.zeros(shape))

    def test_covariances_stay_symmetric_psd(self):
        model, trig, filt = _tracking_filter()
        traj = simulate(model, 80, np.random.default_rng(42))
        run = filt.run(traj.measurements)
        for k in range(81):
            p = run.P[k]
            assert np.array_equal(p, p.T)
            assert np.linalg.eigvalsh(p)[0] > -1e-10


class TestPriorCache:
    def test_data_independent(self):
        """The time-0 cache depends on the model prior and the trigger alone,
        which lets ``bootstrap_rates`` take it from any measurement."""
        model, trig, filt = _tracking_filter()
        _, a = filt.init(np.array([0.0, 0.0]))
        _, b = filt.init(np.array([900.0, -50.0]))
        assert a.cache.prob0 == b.cache.prob0
        assert np.array_equal(a.cache.P_z, b.cache.P_z)
        assert np.array_equal(a.cache.P_silent, b.cache.P_silent)


def _geometry_case(name, request):
    """(model, nbar) for the geometry comparison."""
    if name.startswith("tracking"):
        return tracking_preset(), CASE_BOUNDS[name.split("-")[1]]
    if name == "random-p3":
        rng = np.random.default_rng(41)
        return random_model(rng, 4, 3), random_spd(rng, 3)
    # The benchmark's stiff 3-output stream: N_z eigenvalue ratio about 1e5.
    return request.getfixturevalue("three_output_model"), np.diag([1e4, 1e-2, 8.0])


class TestMeasurementGeometry:
    """``_cache`` takes the gain and both branch posteriors from one
    eigendecomposition of N_z; the textbook formulas, a solve against S for
    the gain and the ball moment mapped through gain @ inv(phi), must give
    the same matrices."""

    @pytest.mark.parametrize(
        "case", ["tracking-case1", "tracking-case2", "tracking-case3", "random-p3", "stiff-p3"]
    )
    def test_matches_solve_and_whitened_gain(self, case, request):
        model, nbar = _geometry_case(case, request)
        trig = make_config(nbar, 0.05)
        rng = np.random.default_rng(42)
        run = EventTriggeredFilter(model, trig).run(simulate(model, 30, rng).measurements)
        # The time-0 prior and the prior of every later step.
        priors = np.concatenate([model.x0_cov[None], model.A @ run.P[:-1] @ model.A.T + model.Q])
        gain, p_zs, p_silents, prob0 = _cache(_constants(model, trig), priors)
        for i, cov in enumerate(priors):
            s = model.C @ cov @ model.C.T + model.R
            want_gain = np.linalg.solve(s, model.C @ cov).T
            a = np.eye(model.n) - want_gain @ model.C
            p_z = a @ cov @ a.T + want_gain @ model.R @ want_gain.T
            n_z = trig.phi @ s @ trig.phi.T
            bm = ball_moments(0.5 * (n_z + n_z.T), trig.threshold)
            k_w = want_gain @ np.linalg.inv(trig.phi)
            p_silent = p_z + k_w @ bm.conditional @ k_w.T
            pairs = ((gain[i], want_gain), (p_zs[i], p_z), (p_silents[i], p_silent))
            for got, want in pairs:
                assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max(), (case, i)
            assert prob0[i] == pytest.approx(bm.prob, rel=1e-12), (case, i)

    @pytest.mark.parametrize(
        "case, tol",
        # The stiff model's N_z eigenvalue ratio of 1e5 amplifies the roundoff
        # of the prior itself: its gap reaches 1.45e-13 over simulate seeds
        # 43-1042, the random model's gain 1.6e-14 over seeds 43-242.
        [("tracking-case1", 1e-14), ("tracking-case3", 1e-14), ("random-p3", 2e-14),
         ("stiff-p3", 2e-13)],
    )
    def test_reads_only_the_lower_triangle_of_n_z(self, case, tol, request):
        """The filter symmetrizes neither its prior A P A' + Q nor N_z, since
        ``eigh`` reads the lower triangle of N_z alone: an unsymmetrized prior
        and its symmetric part give the same step within roundoff, and both
        branch posteriors stay exactly symmetric."""
        model, nbar = _geometry_case(case, request)
        const = _constants(model, make_config(nbar, 0.05))
        rng = np.random.default_rng(43)
        run = EventTriggeredFilter(model, const.trigger).run(simulate(model, 30, rng).measurements)
        priors = model.A @ run.P[:-1] @ model.A.T + model.Q
        assert not np.array_equal(priors, priors.swapaxes(1, 2))
        gain, p_z, p_silent, prob0 = _cache(const, priors)
        sym_gain, sym_p_z, sym_p_silent, sym_prob0 = _cache(const, symmetrize(priors))
        pairs = ((gain, sym_gain), (p_z, sym_p_z), (p_silent, sym_p_silent))
        for got, want in pairs:
            scale = np.abs(want).max(axis=(1, 2), keepdims=True)
            assert (np.abs(got - want) <= tol * scale).all()
        np.testing.assert_allclose(prob0, sym_prob0, rtol=tol, atol=0.0)
        for p in (p_z, p_silent):
            assert np.array_equal(p, p.swapaxes(1, 2))


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
