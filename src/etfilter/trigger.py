"""Confidence-level send/no-send trigger on the whitened innovation norm.

The sensor transmits a measurement only when the squared whitened innovation
``||Phi @ innovation||^2`` exceeds the upper-alpha chi-square quantile, i.e.
when the innovation falls outside the confidence region defined by the
tolerable bound ``nbar``.  Any whitener with ``Phi' Phi = inv(nbar)`` defines
the same region, so the trigger keeps only ``Phi``.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .numerics import chi_square_quantile, symmetrize, validated_eigh

__all__ = ["TriggerConfig", "decide", "make_config"]


@dataclass(frozen=True, eq=False)
class TriggerConfig:
    """Frozen trigger parameters.

    ``phi`` is the whitener of the bound, phi.T @ phi = inv(nbar) (upper
    triangular from ``make_config``), or a (B, p, p) stack of whiteners that
    judges a (B, p) stack of innovations row by row, stored as a read-only
    float copy.  ``threshold`` is the squared radius of the silence ball,
    shared by every whitener of a stack, set by ``make_config`` to the
    upper-alpha chi-square quantile with ``p`` degrees of freedom, stored as a
    float.  0 sends always and ``inf`` never.  A whitener that is not a
    finite, full-rank square matrix (for a stack: every member of a non-empty
    stack), or a bool, non-real, NaN or negative threshold, raises ValueError,
    on ``replace`` too.  A config compares and hashes by identity.
    """

    phi: NDArray
    threshold: float

    def __post_init__(self):
        phi = np.array(self.phi, dtype=float)
        if phi.ndim not in (2, 3) or phi.shape[-1] != phi.shape[-2] or phi.size == 0:
            raise ValueError(
                f"phi must be a square matrix or a non-empty stack of them, got shape {phi.shape}"
            )
        if not np.isfinite(phi).all():
            raise ValueError("phi has non-finite entries")
        if (np.linalg.matrix_rank(phi) < phi.shape[-1]).any():
            raise ValueError("phi is singular; a whitener must have full rank")
        t = self.threshold
        if isinstance(t, bool) or not isinstance(t, numbers.Real) or not t >= 0.0:
            raise ValueError(f"threshold must be a real number >= 0 (inf never sends), got {t!r}")
        phi.setflags(write=False)
        object.__setattr__(self, "phi", phi)
        object.__setattr__(self, "threshold", float(t))

    @property
    def p(self) -> int:
        """Measurement dimension: the order of the whitener."""
        return self.phi.shape[-1]


def make_config(nbar, alpha: float = 0.05) -> TriggerConfig:
    """Build a trigger from the tolerable innovation bound ``nbar``.

    Raises if ``nbar`` is not SPD, alpha is outside (0, 1), or the whitener
    fails to reproduce the precision matrix to 1e-9 (ill-conditioned bound).
    """
    nb = validated_eigh(nbar, "nbar", definite=True)[0]
    if nb.ndim != 2:
        raise ValueError(f"nbar must be a square matrix, got shape {nb.shape}")
    p = nb.shape[0]
    # The transposed lower Cholesky factor of the precision inv(nbar): upper triangular.
    phi = np.linalg.cholesky(symmetrize(np.linalg.inv(nb))).T
    sigma = symmetrize(phi.T @ phi)
    residual = float(np.abs(sigma @ nb - np.eye(p)).max())
    if residual > 1e-9:
        raise ValueError(
            f"nbar is too ill-conditioned to whiten reliably (|sigma@nbar - I| = {residual:.3e})"
        )
    return TriggerConfig(phi=phi, threshold=chi_square_quantile(alpha, p))


def decide(config: TriggerConfig, innovation) -> int | NDArray:
    """Evaluate the trigger for one innovation vector, or for a (B, p) stack of them.

    The statistic is computed as the squared norm of the whitened innovation,
    which equals innovation.T @ inv(nbar) @ innovation but stays nonnegative in
    floats.  A stacked trigger takes a stack of as many innovations and
    whitens each row by its own whitener.  Returns the send decision gamma:
    an int for one innovation, an int array with one entry per row for a
    stack.  Ties on the boundary stay silent (gamma = 0); a NaN or inf entry
    raises ValueError instead of reading as silence.
    """
    y = np.asarray(innovation, dtype=float)
    phi, p = config.phi, config.p
    if phi.ndim == 3 and y.shape != phi.shape[:2]:
        raise ValueError(
            f"trigger stacks {len(phi)} whiteners: innovation must have shape "
            f"({len(phi)}, {p}), got {y.shape}"
        )
    if y.ndim not in (1, 2) or y.shape[-1] != p:
        raise ValueError(f"innovation must have shape ({p},) or (B, {p}), got {y.shape}")
    if not np.isfinite(y).all():
        raise ValueError("innovation contains NaN or inf; it cannot be judged silent")
    z = np.matvec(phi, y)
    stat = np.add.reduce(z * z, axis=-1)
    gamma = (stat > config.threshold).astype(np.int64)
    return int(gamma) if y.ndim == 1 else gamma
