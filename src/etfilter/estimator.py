"""Recursive MMSE state estimator under the confidence-level trigger.

The sensor and the remote estimator run co-located: every step forms the
innovation against the estimator's own prediction, the trigger decides
whether the measurement would have been transmitted, and the update branches
on that decision.  Received steps perform the standard Kalman update; silent
steps keep the predicted mean but add a covariance correction equal to the
conditional second moment of the whitened innovation restricted to the
silence ball, mapped back through the whitened gain.

Every step also records both branch posteriors and the silence probability
(``StepCache``), which the communication-rate predictors need; those are
functions of the previous information set only, never of the current
measurement.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np
from numpy.typing import NDArray

from .model import LinearGaussianModel
from .numerics import _ball_full, require_spd, symmetrize
from .trigger import TriggerConfig, decide

__all__ = [
    "EstimatorState",
    "EventTriggeredFilter",
    "FilterRun",
    "StepCache",
    "StepOutput",
    "prior_cache",
]

# Smallest silence probability the silent branch conditions on.  The
# probability is dimensionless, so the guard does not depend on the units of
# the data.
_PROB_FLOOR = 1e-300


@dataclass(frozen=True)
class StepCache:
    """Step-k byproducts consumed by the rate predictors: both branch
    posteriors and the silence probability.

    P_z      : posterior covariance of the send branch (measurement received)
    P_silent : posterior covariance of the silent branch
    prob0    : probability of silence at this step given the previous info set

    Inside the batched recursion every field carries a leading trial axis.
    """

    P_z: NDArray
    P_silent: NDArray
    prob0: float


def _take(batched, index):
    """The trials ``index`` selects from a batched StepCache or FilterRun
    (an int drops the trial axis)."""
    return type(batched)(**{f.name: getattr(batched, f.name)[index] for f in fields(batched)})


@dataclass(frozen=True)
class EstimatorState:
    k: int
    xhat: NDArray
    P: NDArray
    cache: StepCache


@dataclass(frozen=True)
class StepOutput:
    """Per-step result: decision, posterior, and innovation."""

    gamma: int
    xhat: NDArray
    P: NDArray
    innovation: NDArray


@dataclass(frozen=True)
class FilterRun:
    """Per-step results of a whole run."""

    gamma: NDArray
    xhat: NDArray
    P: NDArray
    innovation: NDArray
    prob0: NDArray


def _finite(y, what: str) -> NDArray:
    y = np.asarray(y, dtype=float)
    if not np.isfinite(y).all():
        raise ValueError(f"{what} contain NaN or inf; a non-finite measurement cannot be filtered")
    return y


def _check_inputs(model: LinearGaussianModel, trigger: TriggerConfig) -> None:
    if trigger.p != model.p:
        raise ValueError(
            f"trigger dimension {trigger.p} does not match measurement dimension {model.p}"
        )
    require_spd(model.R, "R")


def _cache(model: LinearGaussianModel, trigger: TriggerConfig, cov: NDArray):
    """Measurement geometry and silence-ball step from (B, n, n) prior covariances.

    Returns (gain, cache); neither depends on the measurements.  The send branch
    takes the Joseph-stabilized update; the silent branch adds the ball's
    conditional second moment mapped through the whitened gain.
    """
    cross = cov @ model.C.T
    s = symmetrize(model.C @ cross + model.R)
    gain = np.linalg.solve(s, cross.swapaxes(1, 2)).swapaxes(1, 2)
    a = np.eye(model.n) - gain @ model.C
    p_z = symmetrize(a @ cov @ a.swapaxes(1, 2) + gain @ model.R @ gain.swapaxes(1, 2))
    if trigger.threshold <= 0.0:
        # Always send: there is no silence ball and no silent branch.
        return gain, StepCache(P_z=p_z, P_silent=p_z, prob0=np.zeros(cov.shape[0]))
    n_z = symmetrize(trigger.phi @ s @ trigger.phi.T)
    bm = _ball_full(n_z, trigger.threshold)
    k_w = gain @ trigger.phi_inv
    p_silent = symmetrize(p_z + k_w @ bm.conditional @ k_w.swapaxes(1, 2))
    return gain, StepCache(P_z=p_z, P_silent=p_silent, prob0=bm.prob)


class EventTriggeredFilter:
    """Filter a measurement stream under a fixed model and trigger.

    One recursion (``_advance``) moves a stack of B independent trials one
    step forward; ``init``, ``step`` and ``run`` drive it as a batch of one
    and the Monte Carlo harness as a batch of many.  The covariance recursion
    depends on the data only through the send decisions, so the trials share
    every operation but their own small matrices.

    Parameters
    ----------
    model : LinearGaussianModel
        System matrices; R must be strictly positive definite here because
        the innovation covariance is inverted every step.
    trigger : TriggerConfig
        Whitener, threshold, and dimension (must match the model's p).
    """

    def __init__(self, model: LinearGaussianModel, trigger: TriggerConfig):
        _check_inputs(model, trigger)
        self.model = model
        self.trigger = trigger

    # -- the batched recursion -------------------------------------------------

    def _predict(self, xhat: NDArray, cov: NDArray):
        m = self.model
        return xhat @ m.A.T, symmetrize(m.A @ cov @ m.A.T + m.Q)

    def _advance(self, xhat: NDArray, cov: NDArray, ys: NDArray, predict: bool = True):
        """Move B trials one step: posterior (B, n), (B, n, n) and measurements (B, p).

        With ``predict`` off, ``xhat``/``cov`` already are the prior of this
        step (time 0).  Received steps take the Kalman update; silent steps
        keep the predicted mean and take the silent-branch covariance.
        Returns (gamma, xhat, P, innovation, cache), each with a leading
        trial axis.
        """
        if predict:
            xhat, cov = self._predict(xhat, cov)
        innovation = ys - xhat @ self.model.C.T
        gamma = decide(self.trigger, innovation).gamma
        gain, cache = _cache(self.model, self.trigger, cov)
        sent = gamma.astype(bool)
        if not (sent | (cache.prob0 >= _PROB_FLOOR)).all():
            raise ValueError(
                f"silence probability underflowed (below {_PROB_FLOOR:g}) on a silent step: "
                "the trigger bound is degenerate (too tight) for this model"
            )
        xhat = np.where(sent[:, None], xhat + (gain @ innovation[:, :, None])[:, :, 0], xhat)
        cov = np.where(sent[:, None, None], cache.P_z, cache.P_silent)
        return gamma, xhat, cov, innovation, cache

    def _run_batch(self, measurements) -> tuple[FilterRun, list[StepCache]]:
        """Filter B trials of shape (B, K+1, p) together, one step per pass.

        Returns a FilterRun whose fields gain a leading trial axis and the
        batched cache of every step.
        """
        ys = _finite(measurements, "measurements")
        m = self.model
        rows, total, p = ys.shape
        if p != m.p:
            raise ValueError(f"measurements must have {m.p} columns, got {p}")
        gamma = np.zeros((rows, total), dtype=np.int64)
        xhat = np.zeros((rows, total, m.n))
        cov = np.zeros((rows, total, m.n, m.n))
        innovation = np.zeros((rows, total, p))
        prob0 = np.zeros((rows, total))
        caches = []
        x = np.broadcast_to(m.x0_mean, (rows, m.n))
        c = np.broadcast_to(m.x0_cov, (rows, m.n, m.n))
        for k in range(total):
            g, x, c, innov, cache = self._advance(x, c, ys[:, k], predict=k > 0)
            gamma[:, k], xhat[:, k], cov[:, k], innovation[:, k] = g, x, c, innov
            prob0[:, k] = cache.prob0
            caches.append(cache)
        run = FilterRun(gamma=gamma, xhat=xhat, P=cov, innovation=innovation, prob0=prob0)
        return run, caches

    # -- public recursion: batches of one ----------------------------------------

    def _one(self, y) -> NDArray:
        y = _finite(y, "measurements")
        if y.shape != (self.model.p,):
            raise ValueError(f"measurement must have shape ({self.model.p},), got {y.shape}")
        return y[None]

    def init(self, y0) -> tuple[int, EstimatorState]:
        """Consume the time-0 measurement against the model prior."""
        m = self.model
        gamma, xhat, cov, _, cache = self._advance(
            m.x0_mean[None], m.x0_cov[None], self._one(y0), predict=False
        )
        return int(gamma[0]), EstimatorState(k=0, xhat=xhat[0], P=cov[0], cache=_take(cache, 0))

    def predict(self, state: EstimatorState):
        """One-step-ahead state mean, state covariance, and measurement mean."""
        xpred, cov_pred = self._predict(state.xhat[None], state.P[None])
        return xpred[0], cov_pred[0], (xpred @ self.model.C.T)[0]

    def step(self, state: EstimatorState, y) -> tuple[StepOutput, EstimatorState]:
        """Advance one step with measurement ``y`` taken at time state.k + 1."""
        gamma, xhat, cov, innovation, cache = self._advance(
            state.xhat[None], state.P[None], self._one(y)
        )
        out = StepOutput(gamma=int(gamma[0]), xhat=xhat[0], P=cov[0], innovation=innovation[0])
        return out, EstimatorState(k=state.k + 1, xhat=xhat[0], P=cov[0], cache=_take(cache, 0))

    def run(self, measurements) -> FilterRun:
        """Filter a whole measurement array of shape (K+1, p)."""
        ys = np.atleast_2d(np.asarray(measurements, dtype=float))
        run, _ = self._run_batch(ys[None])
        return _take(run, 0)


def prior_cache(model: LinearGaussianModel, trigger: TriggerConfig) -> StepCache:
    """Time-0 cache: both branch posteriors and the silence probability.

    Entirely data independent: it depends on the model prior and the trigger
    only, which is what lets the rate bootstrap run before any measurement.
    """
    _check_inputs(model, trigger)
    return _take(_cache(model, trigger, model.x0_cov[None])[1], 0)
