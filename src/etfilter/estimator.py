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
from typing import NamedTuple

import numpy as np
from numpy.typing import NDArray

from .model import LinearGaussianModel
from .numerics import _ball_full, _eigh, symmetrize
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


_N_Z_BROKEN = "N_z lost definiteness or overflowed: eigenvalues must be > 0 and finite"


def _checked(lam: NDArray) -> NDArray:
    """The (..., p) eigenvalues of N_z, checked for what roundoff can break."""
    # NaN propagates and fails both comparisons; ``initial`` lets an empty stack pass.
    low = np.minimum.reduce(lam[..., 0], axis=None, initial=math.inf)
    high = np.maximum.reduce(lam[..., -1], axis=None, initial=0.0)
    if not (low > 0.0 and high < math.inf):
        raise ValueError(_N_Z_BROKEN)
    return lam


class _OnlineCache(StepCache):
    """The one-step cache ``init`` and ``step`` return, holding the filter that
    made it (``filter``, absent from a ``_replace``d copy) and, once a
    prediction fills it, the 2-row ``_cache`` of the next step's priors
    (``ahead``).  Its branch arrays are read-only, so its identity pins its
    values; a pickled or copied cache is a plain StepCache, and never shares
    this one's ``ahead``.
    """

    ahead = None

    def __reduce__(self):
        return StepCache, tuple(self)


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
        if trigger.p != model.p:
            raise ValueError(
                f"trigger dimension {trigger.p} does not match measurement dimension {model.p}"
            )
        # The model has checked R as PSD; N_z needs it definite.
        low = _eigh(model.R)[0][0]
        if not low > 0.0:
            raise ValueError(f"R is not positive definite (min eigenvalue {low:.3e})")
        # The products that whiten a prior cov into N_z = Phi C cov C' Phi' + Phi R Phi';
        # a stacked trigger gives each product of Phi the same leading axis.
        phi = trigger.phi
        self._model, self._trigger = model, trigger
        self._phi_c = phi @ model.C
        self._phi_c_t = self._phi_c.swapaxes(-1, -2)
        self._phi_r_phi = phi @ model.R @ phi.swapaxes(-1, -2)
        self._eye = np.eye(model.n)

    model = property(lambda self: self._model)  # read-only: the products derive from it
    trigger = property(lambda self: self._trigger)  # read-only: the products derive from it

    # -- step geometry ---------------------------------------------------------

    def _prior(self, cov: NDArray) -> NDArray:
        """The time update A P A' + Q of (B, n, n) posterior covariances."""
        return self._model.A @ cov @ self._model.A.T + self._model.Q

    def _silence(self, cov: NDArray):
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
        cross = cov @ self._phi_c_t
        try:
            lam, vec = _eigh(self._phi_c @ cross + self._phi_r_phi)
        except np.linalg.LinAlgError as err:
            raise ValueError(_N_Z_BROKEN) from err
        prob, d = _ball_full(_checked(lam), self._trigger.threshold)
        return cross, lam, vec, prob, d

    def _cache(self, cov: NDArray):
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
        cross, lam, vec, prob, d = self._silence(cov)
        u = cross @ vec / lam[:, None, :]
        gain = u @ (vec.swapaxes(1, 2) @ self._trigger.phi)
        a = self._eye - gain @ self._model.C
        p_z = symmetrize(a @ cov @ a.swapaxes(1, 2) + gain @ self._model.R @ gain.swapaxes(1, 2))
        p_silent = symmetrize(p_z + (u * d[:, None, :]) @ u.swapaxes(1, 2))
        return gain, p_z, p_silent, prob

    def _branch_silence(self, cache: StepCache) -> NDArray:
        """Silence probabilities (after a send, after a silence) of the step after
        the one-step ``cache``, from the priors A P A' + Q for P in (P_z, P_silent).

        A cache this filter made fills its ``ahead`` once (a concurrent fill
        computes the same bits), and this filter's next step reuses its rows,
        each with the bits of its one-row call.  Any other cache takes one
        2-row ``_silence`` call, with the same bits.
        ``np.array`` stacks the branches with the copy ``np.stack`` makes,
        without its Python-level checks.
        """
        if getattr(cache, "filter", None) is not self:
            return self._silence(self._prior(np.array(cache[:2])))[3]
        if cache.ahead is None:
            cache.ahead = self._cache(self._prior(np.array(cache[:2])))
        return cache.ahead[3]

    def _two_step_of_run(self, gamma: NDArray, cache: StepCache) -> NDArray:
        """The one stacked two-step predictor: ``rate_two_step`` of steps 1..K of
        one trial that ``run`` filtered under this filter's trigger, from the
        trial's K + 1 decisions and caches, bit for bit.

        The branch step k-1 took has the prior that ``run`` whitened at step k, so
        its silence probability is ``cache.prob0[k]`` with the same bits; only the
        untaken branch (P_silent after a send, P_z after a silence) goes through
        ``_prior`` and ``_silence``, K rows instead of 2K.
        """
        sent = gamma[:-1] == 1
        untaken = np.where(sent[:, None, None], cache.P_silent[:-1], cache.P_z[:-1])
        other = self._silence(self._prior(untaken))[3]
        taken, q = cache.prob0[1:], cache.prob0[:-1]
        p_sent, p_silent = np.where(sent, taken, other), np.where(sent, other, taken)
        return 1.0 - (p_sent + q * (p_silent - p_sent))

    def _state(self, advanced) -> tuple[int, EstimatorState]:
        """The decision and state of a one-row ``_advance``, wrapped once.  P is
        the taken branch's own read-only posterior array, so ``step`` can match
        its row of ``ahead`` by identity."""
        gamma, xhat, p_z, p_silent, prob = advanced
        gamma, p_z, p_silent = int(gamma[0]), p_z[0], p_silent[0]
        p_z.setflags(write=False)
        p_silent.setflags(write=False)
        cache = _OnlineCache(p_z, p_silent, prob[0])
        cache.filter = self
        return gamma, EstimatorState(xhat[0], p_z if gamma else p_silent, cache)

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
        m = self._model
        if predict:
            xhat = np.matvec(m.A, xhat)
        innovation = ys - np.matvec(m.C, xhat)
        gamma = decide(self._trigger, innovation)
        if geometry is None:
            geometry = self._cache(self._prior(cov) if predict else cov)
        gain, p_z, p_silent, prob = geometry
        xhat = np.where(gamma[:, None], xhat + np.matvec(gain, innovation), xhat)
        return gamma, xhat, p_z, p_silent, prob

    # -- public recursion ------------------------------------------------------

    def _one(self, y) -> NDArray:
        y = np.asarray(y, dtype=float)
        p = self._trigger.p
        if y.shape != (p,):
            raise ValueError(f"measurement must have shape ({p},), got {y.shape}")
        return y[None]

    def init(self, y0) -> tuple[int, EstimatorState]:
        """Consume the time-0 measurement against the model prior."""
        m = self._model
        advanced = self._advance(m.x0_mean[None], m.x0_cov[None], self._one(y0), predict=False)
        return self._state(advanced)

    def step(self, state: EstimatorState, y) -> tuple[StepOutput, EstimatorState]:
        """Advance one step with ``y``, the measurement of the step after ``state``.

        When ``state.cache`` is this filter's own and a ``rate_two_step`` from it
        has filled its ``ahead``, this step's geometry for both branches, the
        step takes the row of the branch ``state`` took; it never fills it.
        """
        cache, geometry = state.cache, None
        if getattr(cache, "filter", None) is self and cache.ahead is not None:
            for row, branch in enumerate(cache[:2]):
                if state.P is branch:
                    geometry = [f[row : row + 1] for f in cache.ahead]
        advanced = self._advance(state.xhat[None], state.P[None], self._one(y), True, geometry)
        gamma, state = self._state(advanced)
        return StepOutput(gamma), state

    def run(self, measurements) -> FilterRun:
        """Filter a measurement array of shape (K+1, p), or a (B, K+1, p) stack
        of independent trials advanced together, one step per pass.  A stacked
        trigger must hold one whitener per trial."""
        ys = np.asarray(measurements, dtype=float)
        m = self._model
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

