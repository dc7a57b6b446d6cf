import copy
import importlib
import math
import pickle
import pkgutil
import sys
import warnings
from dataclasses import replace

import numpy as np
import pytest

import etfilter
from etfilter import estimator
from etfilter.estimator import EventTriggeredFilter, StepCache
from etfilter.harness import CASE_BOUNDS, ExperimentConfig, table1
from etfilter.model import TRUE_INITIAL_STATE, LinearGaussianModel, simulate, tracking_preset
from etfilter.numerics import ball_moments
from etfilter.rate import RateState, bootstrap_rates, rate_one_step, rate_two_step
from etfilter.trigger import TriggerConfig, make_config

import oracles

CASE1 = np.array([[50.0, 4.0], [4.0, 8.0]])
CASE2 = 0.5 * CASE1


def _setup(nbar=CASE1):
    model = tracking_preset()
    trig = make_config(nbar, 0.05)
    return model, trig, EventTriggeredFilter(model, trig)


def _prior_cache(model, trig):
    """The filter's time-0 cache, which no measurement changes (``test_data_independent``)."""
    return EventTriggeredFilter(model, trig).init(np.zeros(model.p))[1].cache


def _state_after(filt, measurements, k):
    _, state = filt.init(measurements[0])
    for i in range(1, k + 1):
        _, state = filt.step(state, measurements[i])
    return state


class TestRateOneStep:
    def test_complements_silence_probability(self):
        model, trig, filt = _setup()
        cache = _prior_cache(model, trig)
        assert rate_one_step(cache).gamma_hat == 1.0 - cache.prob0

    def test_matches_sampled_frequency(self):
        model, trig, filt = _setup()
        rng = np.random.default_rng(50)
        traj = simulate(model, 10, rng, x0=np.array(TRUE_INITIAL_STATE))
        state = _state_after(filt, traj.measurements, 6)
        # The next step's cache only depends on the posterior covariance, so
        # stepping with any measurement exposes the predictor's input.
        _, probe = filt.step(state, traj.measurements[7])
        pred = rate_one_step(probe.cache).gamma_hat
        emp = oracles.one_step_empirical(
            model, CASE1, trig.threshold, state.xhat, state.P, 60_000, rng
        )
        assert pred == pytest.approx(emp, abs=0.012)

    def test_bounded(self):
        model, trig, filt = _setup()
        traj = simulate(model, 20, np.random.default_rng(51))
        run = filt.run(traj.measurements)
        assert np.all(run.cache.prob0 >= 0.0) and np.all(run.cache.prob0 <= 1.0)


class TestRateTwoStep:
    def test_label_and_bounds(self):
        model, trig, filt = _setup()
        cache = _prior_cache(model, trig)
        pred = rate_two_step(
            RateState(prob0_prev=cache.prob0, cache_prev=cache, model=model, trigger=trig)
        )
        assert 0.0 <= pred.gamma_hat <= 1.0

    def test_marginalizes_over_both_branches(self):
        """The prediction must sit between the send-branch and silent-branch
        conditional rates and reduce to them at the probability extremes."""
        model, trig, filt = _setup()
        cache = _prior_cache(model, trig)
        base = RateState(prob0_prev=cache.prob0, cache_prev=cache, model=model, trigger=trig)
        mid = rate_two_step(base).gamma_hat
        all_sent = rate_two_step(base._replace(prob0_prev=0.0)).gamma_hat
        all_silent = rate_two_step(base._replace(prob0_prev=1.0)).gamma_hat
        lo, hi = sorted((all_sent, all_silent))
        assert lo <= mid <= hi
        want = all_sent + cache.prob0 * (all_silent - all_sent)
        assert mid == pytest.approx(want, rel=1e-12)

    def test_matches_sampled_two_step_frequency(self):
        model, trig, filt = _setup()
        rng = np.random.default_rng(52)
        traj = simulate(model, 12, rng, x0=np.array(TRUE_INITIAL_STATE))
        state = _state_after(filt, traj.measurements, 5)
        _, probe = filt.step(state, traj.measurements[6])
        pred = rate_two_step(
            RateState(
                prob0_prev=probe.cache.prob0,
                cache_prev=probe.cache,
                model=model,
                trigger=trig,
            )
        ).gamma_hat
        emp = oracles.two_step_empirical(
            model, CASE1, trig.threshold, state.xhat, state.P, 60_000, rng
        )
        assert pred == pytest.approx(emp, abs=0.02)

    def test_rejects_a_cache_of_other_than_one_step(self):
        """The predictor reads one step's cache: a stack of caches, even an
        empty one or one of a single step, raises a ValueError naming
        ``cache_prev``, as does a stack of covariances beside a scalar prob0."""
        model, trig, filt = _setup()
        run = filt.run(simulate(model, 20, np.random.default_rng(63)).measurements).cache
        stacks = [StepCache(*(f[k] for f in run)) for k in (slice(0, 0), slice(0, 1), slice(None))]
        assert [len(c.prob0) for c in stacks] == [0, 1, 21]
        mixed = StepCache(P_z=run.P_z[:2], P_silent=run.P_silent[0], prob0=float(run.prob0[0]))
        bad_silent = StepCache(P_z=run.P_z[0], P_silent=run.P_silent[:1], prob0=run.prob0[0])
        for cache in (*stacks, mixed, bad_silent):
            with pytest.raises(ValueError, match="cache_prev"):
                rate_two_step(RateState(0.5, cache, model, trig))

    def test_rejects_a_stacked_trigger(self):
        """The predictor follows one trial: a stack of whiteners, even of one,
        raises instead of broadcasting the cache against it."""
        model, trig, filt = _setup()
        _, state = filt.init(np.zeros(2))
        stacked = replace(trig, phi=np.stack([trig.phi] * 3))
        for t in (stacked, replace(trig, phi=trig.phi[None])):
            with pytest.raises(ValueError, match="one whitener, not a stack"):
                rate_two_step(
                    RateState(prob0_prev=0.5, cache_prev=state.cache, model=model, trigger=t)
                )
            with pytest.raises(ValueError, match="one whitener, not a stack"):
                bootstrap_rates(model, t)

    def test_rejects_a_trigger_of_another_dimension(self):
        """A trigger whose p differs from the model's raises the filter's
        named ValueError from any cache, as ``bootstrap_rates`` does."""
        model, trig, filt = _setup()
        _, state = filt.init(np.zeros(2))
        three = make_config(np.eye(3))
        named = "trigger dimension 3 does not match measurement dimension 2"
        for cache in (state.cache, StepCache(*state.cache)):
            with pytest.raises(ValueError, match=named):
                rate_two_step(RateState(cache.prob0, cache, model, three))
        with pytest.raises(ValueError, match=named):
            bootstrap_rates(model, three)

    @pytest.mark.parametrize(
        "bad", [1.5, -0.1, math.nan, math.inf, np.array([0.5]), np.array([0.5, 0.5])]
    )
    def test_rejects_a_prob0_prev_outside_the_unit_interval(self, bad):
        """``prob0_prev`` is one probability: a value outside [0, 1], NaN
        included, raises instead of extrapolating the branch mixture, and so
        does an array of probabilities."""
        model, trig, _ = _setup()
        cache = _prior_cache(model, trig)
        with pytest.raises(ValueError, match="prob0_prev"):
            rate_two_step(RateState(prob0_prev=bad, cache_prev=cache, model=model, trigger=trig))
        for edge in (0.0, 1.0):
            rate_two_step(RateState(prob0_prev=edge, cache_prev=cache, model=model, trigger=trig))

    def test_underflowed_silence_probability_gives_finite_rates(self):
        """At threshold 1e-305 the silence probability underflows to ~5e-307;
        the two-step mixture is still defined and every step all but surely sends."""
        model, trig, _ = _setup()
        tiny = replace(trig, threshold=1e-305)
        cache = _prior_cache(model, tiny)
        assert 0.0 < cache.prob0 < 1e-300
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            two = rate_two_step(
                RateState(prob0_prev=cache.prob0, cache_prev=cache, model=model, trigger=tiny)
            ).gamma_hat
            rates = (*bootstrap_rates(model, tiny), two)
        assert all(math.isfinite(r) and 0.0 <= r <= 1.0 for r in rates)
        assert rates == (1.0, 1.0, 1.0)


class TestTwoStepReference:
    @pytest.mark.parametrize("case", ["case1", "case3"])
    def test_matches_explicit_branch_covariances(self, case):
        """Every step's prediction equals the mixture of public ``ball_moments``
        probabilities of N_z = Phi (C (A P A' + Q) C' + R) Phi', formed
        explicitly from each branch posterior P of the step before."""
        model, trig, filt = _setup(CASE_BOUNDS[case])
        traj = simulate(model, 40, np.random.default_rng(54), x0=np.array(TRUE_INITIAL_STATE))
        c = filt.run(traj.measurements).cache

        def prob(cov):
            s = model.C @ (model.A @ cov @ model.A.T + model.Q) @ model.C.T + model.R
            return ball_moments(trig.phi @ s @ trig.phi.T, trig.threshold).prob

        for k in range(len(c.prob0) - 1):
            prev = StepCache(*(f[k] for f in c))
            got = rate_two_step(RateState(prev.prob0, prev, model, trig)).gamma_hat
            p_sent, p_silent = prob(prev.P_z), prob(prev.P_silent)
            want = 1.0 - (p_sent + prev.prob0 * (p_silent - p_sent))
            assert got == pytest.approx(want, rel=1e-14, abs=0.0), k


class TestTwoStepRoundoffCheck:
    """The rate path checks its branch N_z only for what roundoff can break,
    as the filter does, and either failure is a ValueError naming N_z."""

    def test_overflowing_branch_covariance_raises(self):
        one = np.eye(1)
        model = LinearGaussianModel(A=2 * one, C=one, Q=one, R=one, x0_mean=[0.0], x0_cov=one)
        trig = TriggerConfig(one, 3.0)
        cache = StepCache(P_z=one, P_silent=1e308 * one, prob0=0.5)
        state = RateState(prob0_prev=0.5, cache_prev=cache, model=model, trigger=trig)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match="N_z"):
                rate_two_step(state)

    def test_indefinite_branch_covariance_raises(self):
        model, trig, _ = _setup()
        cache = StepCache(P_z=np.eye(3), P_silent=-1e6 * np.eye(3), prob0=0.5)
        state = RateState(prob0_prev=0.5, cache_prev=cache, model=model, trigger=trig)
        with pytest.raises(ValueError, match="N_z"):
            rate_two_step(state)


class TestHotPathSkipsValidator:
    def test_filter_and_rates_never_reach_the_boundary_validator(self, monkeypatch):
        """Inputs are validated where they enter: the model checks Q, R and
        x0_cov, ``make_config`` its bound and ``ball_moments`` its kernel, so
        only those modules bind ``validated_eigh``; after construction neither
        the filter nor the rate predictors may call it."""
        model, trig, filt = _setup()
        bootstrap_rates(model, trig)
        rngs = [np.random.default_rng(55), np.random.default_rng(56)]
        ys = simulate(model, 20, rngs, x0=np.array(TRUE_INITIAL_STATE)).measurements

        def refuse(*_args, **_kwargs):
            raise AssertionError("validated_eigh reached after construction")

        bound = [
            name
            for name, module in list(sys.modules.items())
            if name.split(".")[0] == "etfilter" and hasattr(module, "validated_eigh")
        ]
        assert set(bound) == {"etfilter.numerics", "etfilter.model", "etfilter.trigger"}
        for name in bound:
            monkeypatch.setattr(sys.modules[name], "validated_eigh", refuse)

        _, state = filt.init(ys[0, 0])
        for k in range(1, 21):
            _, state = filt.step(state, ys[0, k])
            cache = state.cache
            rate_two_step(
                RateState(prob0_prev=cache.prob0, cache_prev=cache, model=model, trigger=trig)
            )
            rate_one_step(cache)
        run = filt.run(ys)
        trial = StepCache(*(f[1] for f in run.cache))
        assert filt._two_step_of_run(run.gamma[1], trial).shape == (20,)


class TestTwoStepReadsCachedConstants:
    def test_branch_n_z_come_from_one_product_of_cached_constants(self, monkeypatch):
        """An online loop predicts under the products its filter derived when
        built and builds no filter.  A row of a run's cache holds no filter, so
        each prediction from one builds its own, by design, and runs no
        filter recursion; a new trigger object's predictions use its own."""
        model, trig, filt = _setup()
        ys = simulate(model, 20, np.random.default_rng(57), x0=np.array(TRUE_INITIAL_STATE))
        stack = filt.run(ys.measurements).cache
        caches = [StepCache(*(f[k] for f in stack)) for k in range(21)]
        derived, init = [], EventTriggeredFilter.__init__

        def counted(self, m, t):
            derived.append(t)
            init(self, m, t)

        monkeypatch.setattr(EventTriggeredFilter, "__init__", counted)
        online, _ = _predicted_steps(filt, ys.measurements, predict=True)
        assert derived == [] and len(online) == 21

        def refuse(*_args, **_kwargs):
            raise AssertionError("the two-step predictor ran the filter recursion")

        monkeypatch.setattr(estimator.EventTriggeredFilter, "_advance", refuse)

        def predict(trigger=trig):
            return np.array(
                [rate_two_step(RateState(c.prob0, c, model, trigger)).gamma_hat for c in caches]
            )

        want = predict()
        assert derived == [trig] * 21
        derived.clear()
        doubled = replace(trig, threshold=2.0 * trig.threshold)
        assert not np.any(predict(doubled) == want)
        # Phi and the threshold scaled together leave every ball probability
        # as it was, which stale constants of the old Phi would not.
        scaled = replace(trig, phi=2.0 * trig.phi, threshold=4.0 * trig.threshold)
        np.testing.assert_allclose(predict(scaled), want, rtol=1e-13, atol=0.0)
        assert derived == [doubled] * 21 + [scaled] * 21


class TestPerStepCallStructure:
    def test_one_eigensolve_and_one_ball_call_per_step_and_per_prediction(self, monkeypatch):
        """The per-step dispatch floor.  A filter step runs one ``_eigh`` and
        one ``_ball_full``, wraps one online cache and selects with one
        ``np.where`` (the mean), and calls neither ``np.linalg.eigh`` nor
        ``np.stack``; so does a two-step prediction followed by the step it
        predicts, which shares the prediction's geometry.  A whole run wraps
        one StepCache, none per step, and no online cache."""
        model, trig, filt = _setup()
        ys = simulate(model, 20, np.random.default_rng(58), x0=np.array(TRUE_INITIAL_STATE))
        ys = ys.measurements
        _, state = filt.init(ys[0])
        calls = {}

        def spy(module, name):
            original = getattr(module, name)

            def counted(*args, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                return original(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)

        spy(estimator, "_eigh")
        spy(np.linalg, "eigh")
        spy(np, "stack")
        spy(np, "where")
        spy(estimator, "_ball_full")
        spy(estimator, "StepCache")
        spy(estimator, "_OnlineCache")

        def predict(cache):
            rate_two_step(
                RateState(prob0_prev=cache.prob0, cache_prev=cache, model=model, trigger=trig)
            )

        def geometry():
            return {name: calls.get(name, 0) for name in ("_eigh", "eigh", "_ball_full")}

        floor = {"_eigh": 1, "_ball_full": 1, "_OnlineCache": 1, "where": 1}
        for k in range(1, 11):
            calls.clear()
            _, state = filt.step(state, ys[k])
            assert calls == floor, k
        for k in range(11, 21):
            calls.clear()
            predict(state.cache)
            _, state = filt.step(state, ys[k])
            assert calls == floor, k
        calls.clear()
        filt.run(ys[:11])
        assert geometry() == {"_eigh": 11, "eigh": 0, "_ball_full": 11}
        assert calls["StepCache"] == 1 and "_OnlineCache" not in calls


def _predicted_steps(filt, ys, predict):
    """Step one trial through ``ys``; with ``predict``, make the two-step
    prediction from each state before stepping it.  Returns the per-step
    (gamma, xhat, P, P_z, P_silent, prob0) and the predictions."""
    gamma, state = filt.init(ys[0])
    rows, preds = [(gamma, *state[:2], *state.cache)], []
    for y in ys[1:]:
        if predict:
            preds.append(_predict(filt, state))
        out, state = filt.step(state, y)
        rows.append((out.gamma, *state[:2], *state.cache))
    return rows, preds


def _cache_calls(monkeypatch) -> list:
    """A list that gains one entry per ``EventTriggeredFilter._cache`` call."""
    calls, original = [], EventTriggeredFilter._cache
    monkeypatch.setattr(EventTriggeredFilter, "_cache", lambda *a: calls.append(1) or original(*a))
    return calls


def _predict(filt, state, trigger=None):
    cache = state.cache
    return rate_two_step(
        RateState(cache.prob0, cache, filt.model, filt.trigger if trigger is None else trigger)
    ).gamma_hat


def _assert_steps_equal(got, want):
    assert len(got) == len(want)
    for k, (a, b) in enumerate(zip(got, want)):
        assert all(np.array_equal(x, y) for x, y in zip(a, b, strict=True)), k


class TestSharedBranchGeometry:
    """A two-step prediction from a one-row cache computes the next step's
    geometry for both branches, and the step that follows takes the row of
    the branch it took; the filter's output must be the step's own, bit for
    bit, and a state the prediction was not made from must never take it."""

    @pytest.mark.parametrize("case", ["case1", "stiff-p3"])
    def test_predicting_before_each_step_leaves_the_filter_bitwise_unchanged(
        self, case, request, monkeypatch
    ):
        if case == "stiff-p3":
            model, nbar = request.getfixturevalue("three_output_model"), np.diag([1e4, 1e-2, 8.0])
        else:
            model, nbar = tracking_preset(), CASE_BOUNDS[case]
        filt = EventTriggeredFilter(model, make_config(nbar, 0.05))
        ys = simulate(model, 100, np.random.default_rng(60), x0=np.array(TRUE_INITIAL_STATE))
        alone, _ = _predicted_steps(filt, ys.measurements, predict=False)
        calls = _cache_calls(monkeypatch)
        primed, preds = _predicted_steps(filt, ys.measurements, predict=True)
        # init, then one 2-row call per prediction and none in the steps.
        assert len(calls) == 101
        _assert_steps_equal(primed, alone)
        assert 0 < sum(row[0] for row in alone) < 100
        assert all(0.0 <= p <= 1.0 for p in preds)

    def test_a_state_the_prediction_was_not_made_from_recomputes(self, monkeypatch):
        model, trig, filt = _setup()
        ys = simulate(model, 30, np.random.default_rng(61), x0=np.array(TRUE_INITIAL_STATE))
        ys = ys.measurements
        states = [filt.init(ys[0])[1]]
        for y in ys[1:]:
            states.append(filt.step(states[-1], y)[1])
        silent = next(s for s in states[1:] if s.P is s.cache.P_silent)
        other = next(s for s in states[1:] if s is not silent).cache.P_silent
        y = ys[-1]
        calls = _cache_calls(monkeypatch)

        def stepped(state, f=filt):
            """The step's output and how many ``_cache`` calls it made."""
            calls.clear()
            out, new = f.step(state, y)
            return (out.gamma, *new[:2], *new.cache), len(calls)

        def check(state, computed, f=filt):
            got, count = stepped(state, f)
            assert count == (1 if computed else 0)
            # A plain StepCache shares no geometry: the step's own output.
            plain = state._replace(cache=StepCache(*state.cache))
            _assert_steps_equal([got], [stepped(plain, f)[0]])

        # A cache whose silent branch was replaced holds no filter: neither
        # the state that took the original silent branch nor one that took
        # the replacement reuses a prediction from it.
        replaced = silent.cache._replace(P_silent=other)
        _predict(filt, silent._replace(cache=replaced))
        check(silent, computed=True)
        check(silent._replace(P=other, cache=replaced), computed=True)

        # A prediction under another trigger object, even one of equal values,
        # computes no geometry for this filter; nor does another filter on
        # this filter's own pair reuse its cache.
        for twin in (replace(trig), replace(trig, threshold=2.0 * trig.threshold)):
            _predict(filt, silent, twin)
            check(silent, computed=True)
        _predict(filt, silent)
        check(silent, computed=True, f=EventTriggeredFilter(model, trig))

        # A state whose P is a copy of the branch array recomputes.
        check(silent._replace(P=silent.P.copy()), computed=True)
        check(silent, computed=False)

        # A writable cache can change after the prediction, so it primes nothing.
        mine = StepCache(silent.cache.P_z.copy(), silent.cache.P_silent.copy(), silent.cache.prob0)
        state = silent._replace(P=mine.P_silent, cache=mine)
        _predict(filt, state)
        mine.P_silent[...] = other
        check(state, computed=True)

    def test_a_prediction_no_step_reads_whitens_without_the_gain(self, monkeypatch):
        """From an online cache, a filter on a twin trigger takes one 2-row
        ``_silence`` call and no ``_cache`` call, and gives the bits of the
        cache's own ``ahead``, which the cache's filter fills."""
        model, trig, filt = _setup()
        _, state = filt.init(np.zeros(model.p))
        twin = EventTriggeredFilter(model, replace(trig))
        calls = []
        for name in ("_cache", "_silence"):
            original = getattr(EventTriggeredFilter, name)
            spy = lambda *a, name=name, original=original: calls.append(name) or original(*a)
            monkeypatch.setattr(EventTriggeredFilter, name, spy)
        got = twin._branch_silence(state.cache)
        assert calls == ["_silence"] and state.cache.ahead is None
        assert np.array_equal(got, filt._branch_silence(state.cache))
        assert np.array_equal(got, state.cache.ahead[3])

    def test_predicting_twice_from_one_state_eigensolves_once(self, monkeypatch):
        model, trig, filt = _setup()
        ys = simulate(model, 5, np.random.default_rng(66), x0=np.array(TRUE_INITIAL_STATE))
        state = _state_after(filt, ys.measurements, 3)
        shapes = []
        eigh = estimator._eigh
        monkeypatch.setattr(estimator, "_eigh", lambda a: shapes.append(a.shape) or eigh(a))
        first, second = _predict(filt, state), _predict(filt, state)
        assert first == second and shapes == [(2, model.p, model.p)]
        shapes.clear()
        filt.step(state, ys.measurements[4])
        assert shapes == []

    def test_a_pickled_or_copied_state_steps_afresh(self, monkeypatch):
        """A copy's branch arrays are writable, so it must share no geometry,
        even with a filter copied along with it; it steps to the original's bits."""
        model, trig, filt = _setup()
        ys = simulate(model, 5, np.random.default_rng(67), x0=np.array(TRUE_INITIAL_STATE))
        state = _state_after(filt, ys.measurements, 3)
        want = _predict(filt, state)
        out, new = filt.step(state, ys.measurements[4])
        want_rows = [(want, out.gamma, *new[:2], *new.cache)]
        copies = [
            (filt, pickle.loads(pickle.dumps(state))),
            (filt, copy.deepcopy(state)),
            copy.deepcopy((filt, state)),
        ]
        calls = _cache_calls(monkeypatch)
        for f, twin in copies:
            pred = _predict(f, twin)
            calls.clear()
            out, new = f.step(twin, ys.measurements[4])
            assert len(calls) == 1
            _assert_steps_equal([(pred, out.gamma, *new[:2], *new.cache)], want_rows)

    def test_interleaved_filters_equal_each_filter_alone(self):
        """Case 1 and case 3 predicted and stepped in varying interleavings
        give each filter's own outputs and predictions."""
        model = tracking_preset()
        filters = [
            EventTriggeredFilter(model, make_config(CASE_BOUNDS[c])) for c in ("case1", "case3")
        ]
        ys = simulate(model, 40, np.random.default_rng(62), x0=np.array(TRUE_INITIAL_STATE))
        ys = ys.measurements
        alone = [_predicted_steps(f, ys, predict=True) for f in filters]
        orders = [("p0", "p1", "s0", "s1"), ("p0", "s0", "p1", "s1"),
                  ("p1", "p0", "s0", "s1"), ("p0", "p1", "s1", "s0")]
        states, rows, preds = [], [[], []], [[], []]
        for i, f in enumerate(filters):
            gamma, state = f.init(ys[0])
            states.append(state)
            rows[i].append((gamma, *state[:2], *state.cache))
        for k in range(1, len(ys)):
            for op in orders[k % len(orders)]:
                i = int(op[1])
                if op[0] == "p":
                    preds[i].append(_predict(filters[i], states[i]))
                else:
                    out, states[i] = filters[i].step(states[i], ys[k])
                    rows[i].append((out.gamma, *states[i][:2], *states[i].cache))
        for i in range(2):
            _assert_steps_equal(rows[i], alone[i][0])
            assert preds[i] == alone[i][1]


def _interfere(model, tmp_path, k):
    """Predictions under other pairs, ``bootstrap_rates`` and, at ``k`` < 3,
    a ``table1`` run: nothing that may touch another filter's geometry."""
    other = make_config(CASE_BOUNDS["case2"], 0.05)
    filt = EventTriggeredFilter(model, other)
    _predict(filt, filt.init(np.zeros(model.p))[1], make_config(CASE_BOUNDS["case3"]))
    bootstrap_rates(model, other)
    if k < 3:
        table1(ExperimentConfig(trials=10, seed=k), tmp_path / str(k))


class TestNoModuleState:
    """The online predictor keeps its shared geometry on the cache it was
    computed from, so nothing else in the process can evict it."""

    def test_nothing_between_predict_and_step_evicts_the_shared_geometry(
        self, monkeypatch, tmp_path
    ):
        """Two filters predicted and stepped in turn, with other traffic
        between each prediction and its step: each predicted step runs one
        ``_eigh``, in the prediction, and the step runs none."""
        model = tracking_preset()
        filters = [
            EventTriggeredFilter(model, make_config(CASE_BOUNDS[c])) for c in ("case1", "case3")
        ]
        ys = simulate(model, 8, np.random.default_rng(65), x0=np.array(TRUE_INITIAL_STATE))
        states = [f.init(ys.measurements[0])[1] for f in filters]
        calls = []
        eigh = estimator._eigh
        monkeypatch.setattr(estimator, "_eigh", lambda a: calls.append(1) or eigh(a))
        for k, y in enumerate(ys.measurements[1:]):
            for f, state in zip(filters, states):
                calls.clear()
                _predict(f, state)
                assert len(calls) == 1, k
            _interfere(model, tmp_path, k)
            for i, f in enumerate(filters):
                calls.clear()
                states[i] = f.step(states[i], y)[1]
                assert calls == [], k

    def test_no_module_global_is_rebound(self, tmp_path):
        """Every global of every ``etfilter`` module stays bound to the same
        object through online predict+step loops, ``bootstrap_rates``,
        ``table1`` runs and predictions under other pairs."""
        names = [m.name for m in pkgutil.iter_modules(etfilter.__path__) if m.name != "__main__"]
        modules = [etfilter, *(importlib.import_module(f"etfilter.{n}") for n in names)]
        before = [dict(vars(m)) for m in modules]  # held, so no id can be reused
        model, trig, filt = _setup()
        ys = simulate(model, 10, np.random.default_rng(68), x0=np.array(TRUE_INITIAL_STATE))
        for k in range(4):
            _predicted_steps(filt, ys.measurements, predict=True)
            _interfere(model, tmp_path, k)
        for m, was in zip(modules, before):
            assert {n: id(v) for n, v in vars(m).items()} == {n: id(v) for n, v in was.items()}, m


class TestNeverSend:
    def test_all_predictors_give_exactly_zero(self):
        model, trig, _ = _setup()
        never = replace(trig, threshold=math.inf)
        assert bootstrap_rates(model, never) == (0.0, 0.0)
        cache = _prior_cache(model, never)
        assert rate_one_step(cache).gamma_hat == 0.0
        pred = rate_two_step(
            RateState(prob0_prev=cache.prob0, cache_prev=cache, model=model, trigger=never)
        )
        assert pred.gamma_hat == 0.0


class TestAlwaysSend:
    def test_all_predictors_give_exactly_one(self):
        """A zero threshold has no silence ball: every predictor reads 1, for
        a single cache and along a whole run."""
        model, trig, _ = _setup()
        always = replace(trig, threshold=0.0)
        assert bootstrap_rates(model, always) == (1.0, 1.0)
        cache = _prior_cache(model, always)
        assert rate_one_step(cache).gamma_hat == 1.0
        pred = rate_two_step(
            RateState(prob0_prev=cache.prob0, cache_prev=cache, model=model, trigger=always)
        )
        assert pred.gamma_hat == 1.0
        filt = EventTriggeredFilter(model, always)
        run = filt.run(simulate(model, 5, np.random.default_rng(64)).measurements)
        two = filt._two_step_of_run(run.gamma, run.cache)
        assert np.all(run.gamma == 1) and two.shape == (5,)
        assert np.all(two == 1.0)


class TestHugeBound:
    def test_underflowed_silence_mass_gives_finite_rates(self, three_output_model):
        """nbar = 1e250 * I3: the raw silence mass underflows to 0 while the
        true rates are 0 in double precision, so neither predictor may divide
        by the raw mass."""
        model = three_output_model
        trig = make_config(1e250 * np.eye(3), 0.05)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            e0, e1 = bootstrap_rates(model, trig)
            cache = _prior_cache(model, trig)
            two = rate_two_step(
                RateState(prob0_prev=cache.prob0, cache_prev=cache, model=model, trigger=trig)
            ).gamma_hat
        for rate in (e0, e1, two):
            assert 0.0 <= rate <= 1e-15


class TestBootstrap:
    def test_first_value_complements_prior_silence(self):
        model, trig, _ = _setup()
        e0, e1 = bootstrap_rates(model, trig)
        cache = _prior_cache(model, trig)
        assert e0 == 1.0 - cache.prob0
        assert 0.0 <= e1 <= 1.0

    def test_second_value_is_two_step_from_prior(self):
        model, trig, _ = _setup()
        _, e1 = bootstrap_rates(model, trig)
        cache = _prior_cache(model, trig)
        want = rate_two_step(
            RateState(prob0_prev=cache.prob0, cache_prev=cache, model=model, trigger=trig)
        ).gamma_hat
        assert e1 == want

    def test_first_two_rates_match_sampling(self):
        """Joint simulation of the first two decisions: x0 from the prior,
        time-0 update applied when the first measurement is sent."""
        model, trig, _ = _setup()
        rng = np.random.default_rng(53)
        e0, e1 = bootstrap_rates(model, trig)
        samples = 60_000
        mean = np.asarray(model.x0_mean)
        x0 = mean + rng.standard_normal((samples, model.n)) @ oracles.sym_sqrt(model.x0_cov).T
        y0 = x0 @ model.C.T + rng.standard_normal((samples, model.p)) @ oracles.sym_sqrt(model.R).T
        innov0 = y0 - model.C @ mean
        stat0 = np.einsum("ij,ij->i", innov0, np.linalg.solve(CASE1, innov0.T).T)
        sent0 = stat0 > trig.threshold
        assert e0 == pytest.approx(float(sent0.mean()), abs=0.012)

        s0 = model.C @ np.asarray(model.x0_cov) @ model.C.T + model.R
        gain0 = np.asarray(model.x0_cov) @ model.C.T @ np.linalg.inv(s0)
        est = mean + np.where(sent0[:, None], innov0 @ gain0.T, 0.0)
        x1 = x0 @ model.A.T + rng.standard_normal((samples, model.n)) @ oracles.sym_sqrt(model.Q).T
        y1 = x1 @ model.C.T + rng.standard_normal((samples, model.p)) @ oracles.sym_sqrt(model.R).T
        innov1 = y1 - (est @ model.A.T) @ model.C.T
        stat1 = np.einsum("ij,ij->i", innov1, np.linalg.solve(CASE1, innov1.T).T)
        assert e1 == pytest.approx(float((stat1 > trig.threshold).mean()), abs=0.02)


class TestTighterBoundSendsMore:
    def test_halved_bound_raises_predictions(self):
        model, trig1, _ = _setup(CASE1)
        trig2 = make_config(CASE2, 0.05)
        e0_loose, e1_loose = bootstrap_rates(model, trig1)
        e0_tight, e1_tight = bootstrap_rates(model, trig2)
        assert e0_tight > e0_loose
        assert e1_tight > e1_loose
