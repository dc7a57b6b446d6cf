"""Communication-rate prediction from the filter's per-step cache.

Two predictors for the probability that step k stays silent:

* one-step: conditions on everything up to k-1; the silence probability is
  already in the cache (``prob0``), so prediction is just its complement.
* two-step: conditions on everything up to k-2 by marginalizing over whether
  step k-1 transmitted.  The k-1 cache holds both branch posteriors P; the
  N_z of the step after each is one product lead P lead' + floor of the
  cached (model, trigger) constants, and the branch probabilities mix through
  the cached one-step silence probability of step k-1.  Each probability
  needs only the eigenvalues of its branch N_z, checked as the filter checks
  its own.

A bootstrap provides the expected rates at the first two steps, where no
filtering history exists yet; it is built purely from the model prior.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from . import estimator
from .estimator import StepCache
from .model import LinearGaussianModel
from .trigger import TriggerConfig

__all__ = ["RatePrediction", "RateState", "bootstrap_rates", "rate_one_step", "rate_two_step"]


class RatePrediction(NamedTuple):
    """Expected transmission indicator: a float, or an array for a batched cache."""

    gamma_hat: float


class RateState(NamedTuple):
    """Inputs for the two-step predictor of step k.

    ``cache_prev`` is the filter cache produced at step k-1 and ``prob0_prev``
    its one-step silence probability -- both are measurable with respect to the
    information available at k-2, which is the point of the predictor.  Both
    may also carry a leading axis of several steps (a batched cache), which
    are then predicted together.
    """

    prob0_prev: float
    cache_prev: StepCache
    model: LinearGaussianModel
    trigger: TriggerConfig


def _check_unstacked(trigger: TriggerConfig) -> None:
    """Raise for a stack of whiteners where one trial's trigger must be given."""
    if trigger.phi.ndim != 2:
        raise ValueError(
            f"trigger stacks {len(trigger.phi)} whiteners; one whitener, not a stack, must be given"
        )


def rate_one_step(cache: StepCache) -> RatePrediction:
    """Expected transmission indicator for step k given information to k-1."""
    return RatePrediction(gamma_hat=1.0 - cache.prob0)


def rate_two_step(state: RateState) -> RatePrediction:
    """Expected transmission indicator for step k given information to k-2.

    The send- and silent-branch N_z of every step are formed in one product
    and evaluated as one batch of ball probabilities, from their eigenvalues
    alone.  The predictor follows one trial, so the trigger holds one
    whitener.
    """
    _check_unstacked(state.trigger)
    cache = state.cache_prev
    const = estimator._constants(state.model, state.trigger)
    p = state.trigger.p
    branches = np.array((cache.P_z, cache.P_silent))
    n_z = const.lead @ branches @ const.lead_t + const.floor  # eigvalsh reads its lower triangle
    lam = estimator._checked(np.linalg.eigvalsh(n_z.reshape(-1, p, p)))
    probs = estimator._ball_full(lam, state.trigger.threshold)[0]
    p_sent, p_silent = probs.reshape(2, -1)
    prob0 = p_sent + state.prob0_prev * (p_silent - p_sent)
    if np.ndim(cache.prob0) == 0:
        prob0 = float(prob0[0])
    return RatePrediction(gamma_hat=1.0 - prob0)


def bootstrap_rates(model: LinearGaussianModel, trigger: TriggerConfig) -> tuple[float, float]:
    """Expected transmission rates at steps 0 and 1, before any data arrives.

    Step 0 uses the prior innovation covariance directly; step 1 is the
    two-step predictor seeded with the prior cache (there is nothing to
    condition on yet, so the prediction is unconditional).  The prior cache
    is the filter's time-0 cache, which no measurement changes.  The trigger
    holds one whitener.
    """
    _check_unstacked(trigger)
    _, state = estimator.EventTriggeredFilter(model, trigger).init(model.C @ model.x0_mean)
    cache0 = state.cache
    e0 = 1.0 - cache0.prob0
    e1 = rate_two_step(
        RateState(prob0_prev=cache0.prob0, cache_prev=cache0, model=model, trigger=trigger)
    ).gamma_hat
    return e0, e1
