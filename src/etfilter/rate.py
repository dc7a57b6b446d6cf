"""Communication-rate prediction from the filter's per-step cache.

Two predictors for the probability that step k stays silent:

* one-step: conditions on everything up to k-1; the silence probability is
  already in the cache (``prob0``), so prediction is just its complement.
* two-step: conditions on everything up to k-2 by marginalizing over whether
  step k-1 transmitted.  The k-1 cache holds both branch posteriors P; the
  step after each has the prior A P A' + Q, and the branch silence
  probabilities mix through the cached one-step silence probability of step
  k-1.  Both priors go through the filter's own geometry in one 2-row call,
  which the filter's next step reuses for the branch it takes, so an online
  loop that predicts before each step eigendecomposes once per step.
  Along a trial that ``run`` already filtered, the branch each step took is
  in the run's cache, so the filter's ``_two_step_of_run`` whitens only the
  untaken branch.

A bootstrap provides the expected rates at the first two steps, where no
filtering history exists yet; it is built purely from the model prior.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .estimator import EventTriggeredFilter, StepCache
from .model import LinearGaussianModel
from .trigger import TriggerConfig

__all__ = ["RatePrediction", "RateState", "bootstrap_rates", "rate_one_step", "rate_two_step"]


class RatePrediction(NamedTuple):
    """Expected transmission indicator of one step, a float."""

    gamma_hat: float


class RateState(NamedTuple):
    """Inputs for the two-step predictor of step k.

    ``cache_prev`` is the one-step filter cache produced at step k-1 (a
    scalar ``prob0`` and (n, n) ``P_z`` and ``P_silent``) and ``prob0_prev``
    its one-step silence probability -- both are measurable with respect to the
    information available at k-2, which is the point of the predictor.
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

    The send- and silent-branch priors are evaluated as one 2-row batch of
    ball probabilities by the filter that made ``cache_prev`` if it was built
    on this very model and trigger, else by a new filter, which checks them.
    The predictor follows one trial, so the trigger holds one whitener and
    ``cache_prev`` one step, else ValueError; ``prob0_prev`` is one
    probability: an array, or a value outside [0, 1], NaN included, raises
    ValueError.
    """
    _check_unstacked(state.trigger)
    cache, q, n = state.cache_prev, state.prob0_prev, state.model.n
    if np.ndim(cache.prob0) or np.shape(cache.P_z) != (n, n) or np.shape(cache.P_silent) != (n, n):
        raise ValueError(
            f"cache_prev must hold one step: a scalar prob0 and ({n}, {n}) P_z and P_silent, "
            f"got shapes {np.shape(cache.prob0)}, {np.shape(cache.P_z)}, {np.shape(cache.P_silent)}"
        )
    if np.ndim(q) or not 0.0 <= q <= 1.0:  # NaN fails every comparison
        raise ValueError(f"prob0_prev must be a scalar in [0, 1], got {q!r}")
    filt = getattr(cache, "filter", None)
    if filt is None or filt.model is not state.model or filt.trigger is not state.trigger:
        filt = EventTriggeredFilter(state.model, state.trigger)
    p_sent, p_silent = filt._branch_silence(cache)
    return RatePrediction(gamma_hat=1.0 - float(p_sent + q * (p_silent - p_sent)))


def bootstrap_rates(model: LinearGaussianModel, trigger: TriggerConfig) -> tuple[float, float]:
    """Expected transmission rates at steps 0 and 1, before any data arrives.

    Step 0 uses the prior innovation covariance directly; step 1 is the
    two-step predictor seeded with the prior cache (there is nothing to
    condition on yet, so the prediction is unconditional).  The prior cache
    is the filter's time-0 cache, which no measurement changes.  The trigger
    holds one whitener.
    """
    _check_unstacked(trigger)
    _, state = EventTriggeredFilter(model, trigger).init(model.C @ model.x0_mean)
    cache0 = state.cache
    e0 = 1.0 - cache0.prob0
    e1 = rate_two_step(
        RateState(prob0_prev=cache0.prob0, cache_prev=cache0, model=model, trigger=trigger)
    ).gamma_hat
    return e0, e1
