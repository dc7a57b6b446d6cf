"""Discrete-time linear Gaussian state-space model and the tracking benchmark preset."""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from numpy.typing import NDArray

from .numerics import validated_eigh

__all__ = [
    "LinearGaussianModel",
    "TRUE_INITIAL_STATE",
    "Trajectory",
    "simulate",
    "tracking_preset",
]


@dataclass(frozen=True, eq=False)
class LinearGaussianModel:
    """x_{k+1} = A x_k + w_k,  y_k = C x_k + v_k with w ~ N(0, Q), v ~ N(0, R).

    The initial state carries the prior N(x0_mean, x0_cov); x0_cov may be a
    singular PSD matrix (deterministic components are then pinned exactly).
    R only needs to be PSD here -- noise-free simulation is well defined -- but
    the filter additionally requires it to be strictly positive definite.
    Every field is stored as a read-only float copy, and a model compares and
    hashes by identity, so whatever is derived from one model stays valid.
    Each covariance is checked once, here, and the square-root factor of that
    check's eigendecomposition, clamped at zero, is kept for ``simulate``.
    """

    A: NDArray
    C: NDArray
    Q: NDArray
    R: NDArray
    x0_mean: NDArray
    x0_cov: NDArray

    def __post_init__(self):
        a = np.atleast_2d(np.asarray(self.A, dtype=float))
        c = np.atleast_2d(np.asarray(self.C, dtype=float))
        mean = np.atleast_1d(np.asarray(self.x0_mean, dtype=float))
        fields = {"A": a, "C": c, "x0_mean": mean}
        for name, value in fields.items():
            if not np.isfinite(value).all():
                raise ValueError(f"{name} has non-finite entries")
        n = a.shape[0]
        if a.shape != (n, n):
            raise ValueError(f"A must be square, got {a.shape}")
        if c.ndim != 2 or c.shape[1] != n:
            raise ValueError(f"C must have shape (p, {n}), got {c.shape}")
        if mean.shape != (n,):
            raise ValueError(f"x0_mean must have shape ({n},), got {mean.shape}")
        for name, dim in (("Q", n), ("R", c.shape[0]), ("x0_cov", n)):
            cov, lam, vec = validated_eigh(getattr(self, name), name, definite=False)
            if cov.shape != (dim, dim):
                raise ValueError(f"{name} must have shape ({dim}, {dim}), got {cov.shape}")
            fields[name] = cov
            fields[f"_{name}_root"] = vec * np.sqrt(np.clip(lam, 0.0, None))
        for name, value in fields.items():
            value = np.array(value, dtype=float)
            value.setflags(write=False)
            object.__setattr__(self, name, value)

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def p(self) -> int:
        return self.C.shape[0]


class Trajectory(NamedTuple):
    """States x_0..x_K (shape (K+1, n)) and measurements y_0..y_K (shape (K+1, p)),
    both with a leading trial axis for a stack of trials."""

    states: NDArray
    measurements: NDArray


def simulate(
    model: LinearGaussianModel,
    steps: int,
    rng: np.random.Generator | Sequence[np.random.Generator],
    x0: NDArray | None = None,
) -> Trajectory:
    """Sample one trajectory with K = ``steps`` transitions (K+1 time points),
    or one per generator when ``rng`` is a sequence of them.

    The initial state is drawn from the model prior through the model's
    eigendecomposition square root (so singular x0_cov is exact), unless
    ``x0`` pins it.  Each generator draws all of its trial's measurement noise
    first, then all process noise, then the initial state, so a trial depends
    only on its own generator; the trials of a stack then propagate together.
    """
    if steps < 0:
        raise ValueError(f"steps must be nonnegative, got {steps}")
    n, p = model.n, model.p
    rngs = [rng] if isinstance(rng, np.random.Generator) else list(rng)
    if x0 is not None:
        x0 = np.asarray(x0, dtype=float)
        if x0.shape != (n,):
            raise ValueError(f"x0 must have shape ({n},), got {x0.shape}")
        if not np.isfinite(x0).all():
            raise ValueError("x0 has non-finite entries")
    r_half, q_half, cov_half = model._R_root, model._Q_root, model._x0_cov_root
    meas_noise = np.empty((len(rngs), steps + 1, p))
    proc_noise = np.empty((len(rngs), steps, n))
    states = np.empty((len(rngs), steps + 1, n))
    for b, g in enumerate(rngs):
        meas_noise[b] = g.standard_normal((steps + 1, p)) @ r_half.T
        proc_noise[b] = g.standard_normal((steps, n)) @ q_half.T
        states[b, 0] = model.x0_mean + cov_half @ g.standard_normal(n) if x0 is None else x0
    for k in range(steps):
        states[:, k + 1] = np.matvec(model.A, states[:, k]) + proc_noise[:, k]
    measurements = states @ model.C.T + meas_noise
    pick = 0 if isinstance(rng, np.random.Generator) else slice(None)
    return Trajectory(states=states[pick], measurements=measurements[pick])


# True initial target state used by the tracking benchmark: the simulated
# target always starts here while the filter prior stays at x0_mean.
TRUE_INITIAL_STATE = np.array([3410.0, 30.0, 0.0])
TRUE_INITIAL_STATE.setflags(write=False)


def tracking_preset() -> LinearGaussianModel:
    """Maneuvering-target benchmark: position/velocity/acceleration state,
    position+acceleration measurements.

    The model is fixed at the published values: sampling period T = 1 s,
    maneuver time-constant parameter a = 2 and maneuver acceleration variance
    sigma_m2 = 0.5.  The (0, 2) entry of the transition matrix is T**2 (not
    T**2/2): the benchmark is reproduced exactly as published, and the
    reference communication rates in ``harness.TABLE1_REFERENCE`` correspond
    to this transition matrix.
    """
    T, a, sigma_m2 = 1.0, 2.0, 0.5
    A = np.array(
        [
            [1.0, T, T * T],
            [0.0, 1.0, T],
            [0.0, 0.0, 1.0],
        ]
    )
    scale = 2.0 * a * sigma_m2
    Q = scale * np.array(
        [
            [T**5 / 20.0, T**4 / 8.0, T**3 / 6.0],
            [T**4 / 8.0, T**3 / 3.0, T**2 / 2.0],
            [T**3 / 6.0, T**2 / 2.0, T],
        ]
    )
    C = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    R = np.array([[60.0, 0.0], [0.0, 10.0]])
    x0_mean = np.array([3500.0, 40.0, 0.0])
    x0_cov = np.array(
        [
            [3600.0, 3600.0 / T, 0.0],
            [3600.0 / T, 7200.0 / T**2, 0.0],
            [0.0, 0.0, 0.0],
        ]
    )
    return LinearGaussianModel(A=A, C=C, Q=Q, R=R, x0_mean=x0_mean, x0_cov=x0_cov)
