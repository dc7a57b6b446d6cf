import math
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest

from etfilter import _oracles as oracles
from etfilter.estimator import EventTriggeredFilter, StepCache, prior_cache
from etfilter.model import TRUE_INITIAL_STATE, simulate, tracking_preset
from etfilter.rate import RateState, bootstrap_rates, rate_one_step, rate_two_step
from etfilter.trigger import make_config

CASE1 = np.array([[50.0, 4.0], [4.0, 8.0]])
CASE2 = 0.5 * CASE1


def _setup(nbar=CASE1):
    model = tracking_preset()
    trig = make_config(nbar, 0.05)
    return model, trig, EventTriggeredFilter(model, trig)


def _state_after(filt, measurements, k):
    _, state = filt.init(measurements[0])
    for i in range(1, k + 1):
        _, state = filt.step(state, measurements[i])
    return state


class TestRateOneStep:
    def test_complements_silence_probability(self):
        model, trig, filt = _setup()
        cache = prior_cache(model, trig)
        pred = rate_one_step(cache)
        assert pred.gamma_hat == 1.0 - cache.prob0
        assert pred.prob0 == cache.prob0
        assert pred.which == "one-step"

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
            model, trig.nbar, trig.threshold, state.xhat, state.P, 60_000, rng
        )
        assert pred == pytest.approx(emp, abs=0.012)

    def test_bounded(self):
        model, trig, filt = _setup()
        traj = simulate(model, 20, np.random.default_rng(51))
        run = filt.run(traj.measurements)
        assert np.all(run.prob0 >= 0.0) and np.all(run.prob0 <= 1.0)


class TestRateTwoStep:
    def test_label_and_bounds(self):
        model, trig, filt = _setup()
        cache = prior_cache(model, trig)
        pred = rate_two_step(
            RateState(prob0_prev=cache.prob0, cache_prev=cache, model=model, trigger=trig)
        )
        assert pred.which == "two-step"
        assert 0.0 <= pred.gamma_hat <= 1.0
        assert pred.prob0 == pytest.approx(1.0 - pred.gamma_hat, abs=1e-15)

    def test_marginalizes_over_both_branches(self):
        """The prediction must sit between the send-branch and silent-branch
        conditional rates and reduce to them at the probability extremes."""
        model, trig, filt = _setup()
        cache = prior_cache(model, trig)
        base = RateState(prob0_prev=cache.prob0, cache_prev=cache, model=model, trigger=trig)
        mid = rate_two_step(base).gamma_hat
        all_sent = rate_two_step(replace(base, prob0_prev=0.0)).gamma_hat
        all_silent = rate_two_step(replace(base, prob0_prev=1.0)).gamma_hat
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
            model, trig.nbar, trig.threshold, state.xhat, state.P, 60_000, rng
        )
        assert pred == pytest.approx(emp, abs=0.02)

    def test_rejects_underflowed_cache(self):
        model, trig, _ = _setup()
        tiny = replace(trig, threshold=1e-305)
        cache = prior_cache(model, tiny)
        with pytest.raises(ValueError):
            rate_two_step(
                RateState(prob0_prev=cache.prob0, cache_prev=cache, model=model, trigger=tiny)
            )


class TestNeverSend:
    def test_all_predictors_give_exactly_zero(self):
        model, trig, _ = _setup()
        never = replace(trig, threshold=math.inf)
        assert bootstrap_rates(model, never) == (0.0, 0.0)
        cache = prior_cache(model, never)
        assert rate_one_step(cache).gamma_hat == 0.0
        pred = rate_two_step(
            RateState(prob0_prev=cache.prob0, cache_prev=cache, model=model, trigger=never)
        )
        assert pred.gamma_hat == 0.0


class TestAlwaysSend:
    def test_all_predictors_give_exactly_one(self):
        """A zero threshold has no silence ball: every predictor reads 1, for
        a single cache and for a stack of steps."""
        model, trig, _ = _setup()
        always = replace(trig, threshold=0.0)
        assert bootstrap_rates(model, always) == (1.0, 1.0)
        cache = prior_cache(model, always)
        assert rate_one_step(cache).gamma_hat == 1.0
        pred = rate_two_step(
            RateState(prob0_prev=cache.prob0, cache_prev=cache, model=model, trigger=always)
        )
        assert pred.gamma_hat == 1.0
        stacked = StepCache(
            **{f.name: np.stack([getattr(cache, f.name)] * 3) for f in fields(StepCache)}
        )
        pred = rate_two_step(
            RateState(prob0_prev=stacked.prob0, cache_prev=stacked, model=model, trigger=always)
        )
        assert pred.gamma_hat.shape == (3,)
        assert np.all(pred.gamma_hat == 1.0)


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
            cache = prior_cache(model, trig)
            two = rate_two_step(
                RateState(prob0_prev=cache.prob0, cache_prev=cache, model=model, trigger=trig)
            ).gamma_hat
        for rate in (e0, e1, two):
            assert 0.0 <= rate <= 1e-15


class TestBootstrap:
    def test_first_value_complements_prior_silence(self):
        model, trig, _ = _setup()
        e0, e1 = bootstrap_rates(model, trig)
        cache = prior_cache(model, trig)
        assert e0 == 1.0 - cache.prob0
        assert 0.0 <= e1 <= 1.0

    def test_second_value_is_two_step_from_prior(self):
        model, trig, _ = _setup()
        _, e1 = bootstrap_rates(model, trig)
        cache = prior_cache(model, trig)
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
        stat0 = np.einsum("ij,ij->i", innov0, np.linalg.solve(trig.nbar, innov0.T).T)
        sent0 = stat0 > trig.threshold
        assert e0 == pytest.approx(float(sent0.mean()), abs=0.012)

        s0 = model.C @ np.asarray(model.x0_cov) @ model.C.T + model.R
        gain0 = np.asarray(model.x0_cov) @ model.C.T @ np.linalg.inv(s0)
        est = mean + np.where(sent0[:, None], innov0 @ gain0.T, 0.0)
        x1 = x0 @ model.A.T + rng.standard_normal((samples, model.n)) @ oracles.sym_sqrt(model.Q).T
        y1 = x1 @ model.C.T + rng.standard_normal((samples, model.p)) @ oracles.sym_sqrt(model.R).T
        innov1 = y1 - (est @ model.A.T) @ model.C.T
        stat1 = np.einsum("ij,ij->i", innov1, np.linalg.solve(trig.nbar, innov1.T).T)
        assert e1 == pytest.approx(float((stat1 > trig.threshold).mean()), abs=0.02)


class TestTighterBoundSendsMore:
    def test_halved_bound_raises_predictions(self):
        model, trig1, _ = _setup(CASE1)
        trig2 = make_config(CASE2, 0.05)
        e0_loose, e1_loose = bootstrap_rates(model, trig1)
        e0_tight, e1_tight = bootstrap_rates(model, trig2)
        assert e0_tight > e0_loose
        assert e1_tight > e1_loose
