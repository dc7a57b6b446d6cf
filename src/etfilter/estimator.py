"""Recursive MMSE state estimator under the confidence-level trigger.

The sensor and the remote estimator run co-located: every step forms the
innovation against the estimator's own prediction, the trigger decides
whether the measurement would have been transmitted, and the update branches
on that decision.  Received steps perform the standard Kalman update; silent
steps keep the predicted mean and add the silence ball's conditional second
moment of the whitened innovation, mapped back through the whitened gain.

Every step also records both branch posteriors and the silence probability
(``StepCache``), which the communication-rate predictors need; those are
functions of the previous information set only, never of the current
measurement.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import NamedTuple

import numpy as np
from numpy.typing import NDArray

from .model import LinearGaussianModel
from .numerics import _ball_full, _eigh, symmetrize, validated_eigh
from .trigger import TriggerConfig, decide

__all__ = ["EstimatorState", "EventTriggeredFilter", "FilterRun", "StepCache", "StepOutput"]


class StepCache(NamedTuple):
    """Step-k byproducts consumed by the rate predictors: both branch
    posteriors and the silence probability.

    P_z      : posterior covariance of the send branch (measurement received)
    P_silent : posterior covariance of the silent branch
    prob0    : probability of silence at this step given the previous info set
    """

    P_z: NDArray
    P_silent: NDArray
    prob0: float


class EstimatorState(NamedTuple):
    xhat: NDArray
    P: NDArray
    cache: StepCache


class StepOutput(NamedTuple):
    """Per-step result beside the new state: the send decision."""

    gamma: int


class FilterRun(NamedTuple):
    """Per-step results of a whole run: one entry per time step, and a leading
    trial axis when a stack of trials was filtered.  ``cache`` holds every
    step's StepCache, its fields stacked the same way."""

    gamma: NDArray
    xhat: NDArray
    P: NDArray
    cache: StepCache


def _check_inputs(model: LinearGaussianModel, trigger: TriggerConfig) -> None:
    if trigger.p != model.p:
        raise ValueError(
            f"trigger dimension {trigger.p} does not match measurement dimension {model.p}"
        )
    validated_eigh(model.R, "R", definite=True)


class _Constants(NamedTuple):
    """A (model, trigger) pair and the products of it that every step reads."""

    model: LinearGaussianModel
    trigger: TriggerConfig
    phi_c: NDArray  # Phi C
    phi_c_t: NDArray  # (Phi C)'
    phi_r_phi: NDArray  # Phi R Phi'
    eye: NDArray  # I_n


def _constants(model: LinearGaussianModel, trigger: TriggerConfig) -> _Constants:
    """The constants of a (model, trigger) pair.

    The filter step and the two-step rate predictor both whiten a prior cov
    into N_z = Phi C cov C' Phi' + Phi R Phi' from these products.  A filter
    derives them once, when it is built, and its one-step caches keep them; a
    prediction from any other cache derives them afresh.  A stacked trigger
    gives every product of Phi the same leading axis.
    """
    phi = trigger.phi
    phi_c = phi @ model.C
    phi_r_phi = phi @ model.R @ phi.swapaxes(-1, -2)
    return _Constants(model, trigger, phi_c, phi_c.swapaxes(-1, -2), phi_r_phi, np.eye(model.n))


_N_Z_BROKEN = "N_z lost definiteness or overflowed: eigenvalues must be > 0 and finite"


def _checked(lam: NDArray) -> NDArray:
    """The (..., p) eigenvalues of N_z, checked for what roundoff can break."""
    # NaN propagates and fails both comparisons; ``initial`` lets an empty stack pass.
    low = np.minimum.reduce(lam[..., 0], axis=None, initial=math.inf)
    high = np.maximum.reduce(lam[..., -1], axis=None, initial=0.0)
    if not (low > 0.0 and high < math.inf):
        raise ValueError(_N_Z_BROKEN)
    return lam


def _prior(model: LinearGaussianModel, cov: NDArray) -> NDArray:
    """The time update A P A' + Q of (B, n, n) posterior covariances."""
    return model.A @ cov @ model.A.T + model.Q


def _silence(const: _Constants, cov: NDArray):
    """Whiten (B, n, n) prior covariances and take their silence balls.

    Returns (cross, lam, vec, prob0, d): cross = cov (Phi C)', the eigenvalues
    and eigenvectors of N_z = Phi C cov C' Phi' + Phi R Phi', and the ball's
    probability and eigenframe second moments (``_ball_full``).  N_z is checked
    only for what roundoff can break (``_checked``); a non-finite entry that
    keeps LAPACK from converging (as some do at p >= 3) raises the same
    ValueError, chained from the LinAlgError.  The eigensolve is
    ``numerics._eigh``, which skips checks that N_z, a float64 square stack
    by construction, does not need.
    """
    cross = cov @ const.phi_c_t
    try:
        lam, vec = _eigh(const.phi_c @ cross + const.phi_r_phi)
    except np.linalg.LinAlgError as err:
        raise ValueError(_N_Z_BROKEN) from err
    prob, d = _ball_full(_checked(lam), const.trigger.threshold)
    return cross, lam, vec, prob, d


def _cache(const: _Constants, cov: NDArray):
    """Measurement geometry and silence-ball step from (B, n, n) prior covariances.

    Returns (gain, P_z, P_silent, prob0), plain arrays with a leading trial
    axis, the last three a StepCache's fields; none depends on the
    measurements.  Everything comes from one eigendecomposition
    N_z = V diag(lam) V' (``_silence``): with U = cov (Phi C)' V diag(1 / lam),
    the whitened gain in the eigenframe, the gain is U V' Phi, the send branch
    takes the Joseph-stabilized update, and the silent branch adds U diag(d) U'
    for the ball's eigenframe second moments d.  Each factor divides by lam
    once, so no lam^2 can underflow.

    Neither cov nor N_z is symmetrized: ``eigh`` reads only the lower
    triangle of N_z, and cov enters only through cross and the Joseph
    product, which is symmetrized itself.
    """
    cross, lam, vec, prob, d = _silence(const, cov)
    u = cross @ vec / lam[:, None, :]
    gain = u @ (vec.swapaxes(1, 2) @ const.trigger.phi)
    a = const.eye - gain @ const.model.C
    p_z = symmetrize(a @ cov @ a.swapaxes(1, 2) + gain @ const.model.R @ gain.swapaxes(1, 2))
    p_silent = symmetrize(p_z + (u * d[:, None, :]) @ u.swapaxes(1, 2))
    return gain, p_z, p_silent, prob


class _OnlineCache(StepCache):
    """The one-step cache ``init`` and ``step`` return, holding the constants of
    the filter that made it (``const``, absent from a ``_replace``d copy).  Its
    branch arrays are read-only, so its identity pins its values; a pickled or
    copied cache is a plain StepCache, and never shares this one's ``ahead``.
    """

    @cached_property
    def ahead(self) -> list:
        """The 2-row ``_cache`` of the next step's priors A P A' + Q for P in
        (P_z, P_silent), computed once; a row has the bits of its one-row call.
        ``np.array`` stacks the branches with the copy ``np.stack`` makes,
        without its Python-level checks."""
        return _cache(self.const, _prior(self.const.model, np.array((self.P_z, self.P_silent))))

    def __reduce__(self):
        return StepCache, tuple(self)


def _branch_silence(
    model: LinearGaussianModel, trigger: TriggerConfig, cache: StepCache
) -> NDArray:
    """Silence probabilities (after a send, after a silence) of the step after
    the one-step ``cache``, from the priors A P A' + Q for P in (P_z, P_silent).

    A cache that a filter on this very (model, trigger) pair made gives its
    ``ahead``, whose rows that filter's next step reuses.  Any other cache (a
    run's row, a hand-built one) or pair takes one 2-row ``_silence`` call
    under constants derived afresh, with the same bits.
    """
    const = getattr(cache, "const", None)
    if const is not None and const.model is model and const.trigger is trigger:
        return cache.ahead[3]
    prior = _prior(model, np.array((cache.P_z, cache.P_silent)))
    return _silence(_constants(model, trigger), prior)[3]


def _state(const: _Constants, advanced) -> tuple[int, EstimatorState]:
    """The decision and state of a one-row ``_advance`` under ``const``, wrapped
    once.  P is the taken branch's own read-only posterior array, so ``step``
    can match its row of ``ahead`` by identity."""
    gamma, xhat, p_z, p_silent, prob = advanced
    gamma, p_z, p_silent = int(gamma[0]), p_z[0], p_silent[0]
    p_z.setflags(write=False)
    p_silent.setflags(write=False)
    cache = _OnlineCache(p_z, p_silent, prob[0])
    cache.const = const
    return gamma, EstimatorState(xhat[0], p_z if gamma else p_silent, cache)


class EventTriggeredFilter:
    """Filter a measurement stream under a fixed model and trigger.

    One recursion (``_advance``) moves a stack of B independent trials one
    step forward; ``init`` and ``step`` drive it as a batch of one, and
    ``run`` as a batch of one or of many.  The covariance recursion
    depends on the data only through the send decisions, so the trials share
    every operation but their own small matrices.

    Parameters
    ----------
    model : LinearGaussianModel
        System matrices; R must be strictly positive definite, so that the
        whitened innovation covariance N_z is positive definite at every step.
    trigger : TriggerConfig
        Whitener and threshold; the whitener's order must match the model's p.
        A (B, p, p) stack of whiteners filters a stack of B trials, each under
        its own whitener, in ``run``; ``init`` and ``step`` take a stack of
        one at most.  ``decide`` checks the stack's length at every step,
        before any matrix work.
    """

    def __init__(self, model: LinearGaussianModel, trigger: TriggerConfig):
        _check_inputs(model, trigger)
        self._const = _constants(model, trigger)

    model = property(lambda self: self._const.model)  # read-only: _const derives from it
    trigger = property(lambda self: self._const.trigger)  # read-only: _const derives from it

    # -- the batched recursion -------------------------------------------------

    def _advance(
        self, xhat: NDArray, cov: NDArray, ys: NDArray, predict: bool = True, geometry=None
    ):
        """Update B trials with this step's measurements (B, p), from the
        previous step's posterior (B, n), (B, n, n), or, without ``predict``,
        from this step's prior.  ``geometry``, when given, is the ``_cache``
        output of this step's prior, and ``cov`` is not read.

        The time update is A xhat and A P A' + Q.  Received steps take the
        Kalman update; silent steps keep the predicted mean.  Returns (gamma,
        xhat, P_z, P_silent, prob0), plain arrays with a leading trial axis,
        for the callers to wrap; each trial's posterior covariance is the
        branch its gamma took, which only ``run`` needs as a stack.
        """
        const, m = self._const, self._const.model
        if predict:
            xhat = np.matvec(m.A, xhat)
        innovation = ys - np.matvec(m.C, xhat)
        gamma = decide(const.trigger, innovation)
        if geometry is None:
            geometry = _cache(const, _prior(m, cov) if predict else cov)
        gain, p_z, p_silent, prob = geometry
        xhat = np.where(gamma[:, None], xhat + np.matvec(gain, innovation), xhat)
        return gamma, xhat, p_z, p_silent, prob

    # -- public recursion ------------------------------------------------------

    def _one(self, y) -> NDArray:
        y = np.asarray(y, dtype=float)
        p = self._const.trigger.p
        if y.shape != (p,):
            raise ValueError(f"measurement must have shape ({p},), got {y.shape}")
        return y[None]

    def init(self, y0) -> tuple[int, EstimatorState]:
        """Consume the time-0 measurement against the model prior."""
        m = self._const.model
        advanced = self._advance(m.x0_mean[None], m.x0_cov[None], self._one(y0), predict=False)
        return _state(self._const, advanced)

    def step(self, state: EstimatorState, y) -> tuple[StepOutput, EstimatorState]:
        """Advance one step with ``y``, the measurement of the step after ``state``.

        When ``state.cache`` is this filter's own and a ``rate_two_step`` from it
        has computed its ``ahead``, this step's geometry for both branches, the
        step takes the row of the branch ``state`` took; it never computes it.
        """
        cache, geometry = state.cache, None
        if getattr(cache, "const", None) is self._const and "ahead" in vars(cache):
            for row, branch in enumerate(cache[:2]):
                if state.P is branch:
                    geometry = [f[row : row + 1] for f in cache.ahead]
        advanced = self._advance(state.xhat[None], state.P[None], self._one(y), True, geometry)
        gamma, state = _state(self._const, advanced)
        return StepOutput(gamma), state

    def run(self, measurements) -> FilterRun:
        """Filter a measurement array of shape (K+1, p), or a (B, K+1, p) stack
        of independent trials advanced together, one step per pass.  A stacked
        trigger must hold one whitener per trial."""
        ys = np.asarray(measurements, dtype=float)
        m = self._const.model
        if ys.ndim not in (2, 3) or ys.shape[-1] != m.p or ys.size == 0:
            raise ValueError(
                f"measurements must have shape (K+1, {m.p}) or (B, K+1, {m.p}), got {ys.shape}"
            )
        batch = ys if ys.ndim == 3 else ys[None]
        x = np.broadcast_to(m.x0_mean, (len(batch), m.n))
        c = np.broadcast_to(m.x0_cov, (len(batch), m.n, m.n))
        steps = []
        for k in range(batch.shape[1]):
            gamma, x, p_z, p_silent, prob = self._advance(x, c, batch[:, k], predict=k > 0)
            c = np.where(gamma[:, None, None], p_z, p_silent)
            steps.append((gamma, x, c, p_z, p_silent, prob))
        out = [np.stack(field, axis=1) for field in zip(*steps)]
        if ys.ndim == 2:
            out = [field[0] for field in out]
        gamma, xhat, cov, *cache = out
        return FilterRun(gamma=gamma, xhat=xhat, P=cov, cache=StepCache(*cache))

