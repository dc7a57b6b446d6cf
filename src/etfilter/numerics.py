"""Numerical kernels shared by the trigger, the filter, and the rate predictors.

The central object is a zero-mean Gaussian kernel ``exp(-0.5 * z.T inv(n) z)``
restricted to the centered ball ``z.T z <= radius2``: the probability that a
draw from ``N(0, n)`` lands inside the ball, and the second moment of the
draws that do.  Both come from one Laplace inversion on a fixed Talbot
contour in the eigenframe of ``n``; the ball is rotation invariant, so the
second moment is diagonal there and the first moment vanishes by symmetry.

Every moment routine takes a stack of kernels and evaluates it in one
vectorised pass, so a single matrix is a batch of one.  All functions are
pure; the contour nodes are computed once at import.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray
from scipy.special import gammainc, ndtri

__all__ = [
    "BallMoments",
    "SpdMatrix",
    "ball_moments",
    "chi_square_quantile",
    "factor_precision",
    "psd_sqrt",
    "symmetrize",
]

# Validated dense symmetric positive (semi)definite matrix.
SpdMatrix = NDArray[np.float64]


def symmetrize(a: NDArray) -> NDArray:
    """Symmetric part of a matrix, or of every matrix in a stack."""
    return 0.5 * (a + a.swapaxes(-1, -2))


def _as_square(a, name: str) -> NDArray:
    m = np.asarray(a, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"{name} must be a square matrix, got shape {m.shape}")
    return m


def _require_symmetric(m: NDArray, name: str) -> NDArray:
    scale = max(float(np.abs(m).max(initial=0.0)), 1.0)
    if float(np.abs(m - m.T).max(initial=0.0)) > 1e-12 * scale:
        raise ValueError(f"{name} is not symmetric within 1e-12 relative")
    return symmetrize(m)


def require_spd(a, name: str = "matrix") -> SpdMatrix:
    """Validate and return a strictly positive definite symmetric matrix."""
    m = _require_symmetric(_as_square(a, name), name)
    eigs = np.linalg.eigvalsh(m)
    if eigs[0] <= 0.0:
        raise ValueError(f"{name} is not positive definite (min eigenvalue {eigs[0]:.3e})")
    return m


def require_psd(a, name: str = "matrix") -> SpdMatrix:
    """Validate and return a positive semidefinite symmetric matrix.

    Eigenvalues down to -1e-10 * max|eig| are treated as roundoff and accepted.
    """
    m = _require_symmetric(_as_square(a, name), name)
    eigs = np.linalg.eigvalsh(m)
    tol = 1e-10 * max(float(np.abs(eigs).max(initial=0.0)), 1.0)
    if eigs[0] < -tol:
        raise ValueError(f"{name} is not positive semidefinite (min eigenvalue {eigs[0]:.3e})")
    return m


def psd_sqrt(a, name: str = "covariance") -> NDArray:
    """Square-root factor S with S @ S.T = a for a PSD matrix.

    Built from the eigendecomposition with negative roundoff eigenvalues
    clamped to zero, so genuinely singular covariances are handled exactly.
    """
    m = require_psd(a, name)
    lam, vec = np.linalg.eigh(m)
    return vec * np.sqrt(np.clip(lam, 0.0, None))


def chi_square_quantile(alpha: float, dof: int) -> float:
    """Upper-tail chi-square quantile: the c with P(X > c) = alpha, X ~ chi2(dof).

    Newton iteration on the regularized incomplete gamma CDF, seeded by the
    Wilson-Hilferty cube approximation and safeguarded by a bracketing bisection
    step whenever Newton would leave the current bracket.
    """
    alpha = float(alpha)
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie strictly inside (0, 1), got {alpha}")
    if int(dof) != dof or dof < 1:
        raise ValueError(f"dof must be a positive integer, got {dof}")
    dof = int(dof)

    target = 1.0 - alpha
    half = 0.5 * dof
    z = float(ndtri(target))
    seed = dof * (1.0 - 2.0 / (9.0 * dof) + z * math.sqrt(2.0 / (9.0 * dof))) ** 3
    c = seed if seed > 0.0 else 0.5 * alpha * dof
    c = max(c, 1e-300)

    lo, hi = 0.0, max(c, float(dof))
    while gammainc(half, 0.5 * hi) < target:
        hi *= 2.0
    log_norm = half * math.log(2.0) + math.lgamma(half)
    for _ in range(200):
        f = float(gammainc(half, 0.5 * c)) - target
        if f >= 0.0:
            hi = min(hi, c)
        else:
            lo = max(lo, c)
        with np.errstate(over="ignore"):
            pdf = math.exp((half - 1.0) * math.log(c) - 0.5 * c - log_norm)
        if pdf > 0.0 and math.isfinite(pdf):
            nxt = c - f / pdf
            if not lo < nxt < hi:
                nxt = 0.5 * (lo + hi)
        else:
            nxt = 0.5 * (lo + hi)
        if abs(nxt - c) <= 1e-14 * max(nxt, 1.0):
            return nxt
        c = nxt
    return c


def factor_precision(nbar) -> NDArray:
    """Whitening factor Phi with Phi.T @ Phi = inv(nbar), for SPD nbar.

    Phi is the transpose of the lower Cholesky factor of the precision matrix
    inv(nbar), i.e. upper triangular.
    """
    n = require_spd(nbar, "nbar")
    sigma = symmetrize(np.linalg.inv(n))
    return np.linalg.cholesky(sigma).T


@dataclass(frozen=True)
class BallMoments:
    """Moments of z ~ N(0, n) over the ball z'z <= radius2.

    prob        : P(z'z <= radius2)
    conditional : E[z z' | z'z <= radius2]

    The first moment vanishes by symmetry, so it is not computed.  Both
    fields are normalised, so neither depends on the Gaussian normaliser.
    """

    prob: float
    conditional: NDArray


# -- Talbot-contour kernel ----------------------------------------------------
#
# In the eigenframe of n the ball statistic is Q = sum_j lam_j chi2_1, with
# Laplace transform Phi(s) = prod_j (1 + 2 lam_j s)^(-1/2).  The ball
# probability is the inverse transform of Phi(s) / s at radius2, and the
# second moment along eigendirection i is lam_i times that of
# Phi(s) / ((1 + 2 lam_i s) s) (one chi2_1 becomes a chi2_3).  Every
# singularity lies on the negative real axis, so the optimised Talbot contour
# (Weideman & Trefethen, Math. Comp. 76 (2007) 1341) converges geometrically
# for every p, and a fixed node count makes the cost the same on every input.

_NODES = 32


def _contour(count: int) -> tuple[NDArray, NDArray]:
    """Nodes z_k and weights w_k of the optimised Talbot contour, midpoint rule.

    The contour is s = z / t with z = count (-0.6122 + 0.5017 th cot(0.6407 th)
    + 0.2645 i th), th in (-pi, pi); then the inverse transform of G(s) / s at
    t is Im sum_k w_k G(z_k / t).  Conjugate symmetry leaves the count / 2
    nodes with th > 0.
    """
    theta = (np.arange(count // 2) + 0.5) * (2.0 * math.pi / count)
    cot = 1.0 / np.tan(0.6407 * theta)
    z = count * (-0.6122 + 0.5017 * theta * cot + 0.2645j * theta)
    dz = count * (0.5017 * (cot - 0.6407 * theta * (1.0 + cot * cot)) + 0.2645j)
    return z, (2.0 / count) * np.exp(z) * dz / z


_Z, _W = _contour(_NODES)


def _im_sum(terms: NDArray) -> NDArray:
    """Im sum_k w_k terms_k over the last axis, in the same order for every row."""
    return (terms.real * _W.imag + terms.imag * _W.real).sum(axis=-1)


# What the weights make of 1 / s: dividing by it gives prob = 1 where Phi rounds to 1.
_W_NORM = float(_im_sum(np.ones(_Z.size, dtype=complex)))

# Accuracy contract of the kernel: the roundoff floor exp(0.171 N) eps of the
# contour sum, about 5e-14 at N = 32.
_TOL = 1e-13

def _contour_moments(lam: NDArray, radius2: float) -> tuple[NDArray, NDArray]:
    """Ball probability and eigenframe conditional second moments for the
    (B, p) eigenvalues ``lam`` and a finite ``radius2``.

    Each factor 1 + 2 lam z / radius2 is written as v / a with v = a + b z and
    (a, b) = (1, 2 lam / radius2) when 2 lam <= radius2, else
    (radius2 / (2 lam), 1): |v| stays between about 0.5 and 50, and the real
    factors a enter in log space, so no product over- or underflows.  The
    second moments are divided by the probability inside the sum, so they
    stay finite when the probability underflows.
    """
    log_ratio = np.log(lam) + (math.log(2.0) - math.log(radius2))  # log(2 lam / radius2)
    log_a = np.minimum(-log_ratio, 0.0)
    v = np.exp(log_a)[:, :, None] + np.exp(np.minimum(log_ratio, 0.0))[:, :, None] * _Z
    terms = np.exp(-0.5 * np.log(v).sum(axis=1))
    scaled = _im_sum(terms)
    prob = scaled / _W_NORM * np.exp(0.5 * log_a.sum(axis=1))
    # lam_i / (1 + 2 lam_i z / radius2) = min(lam_i, radius2 / 2) / v_i
    ratio = _im_sum(terms[:, None, :] / v) / scaled[:, None]
    return prob, np.minimum(lam, 0.5 * radius2) * ratio


def _as_stack(n) -> tuple[NDArray, bool]:
    """(B, p, p) view of a matrix or a stack of matrices, and whether it was one matrix."""
    m = np.asarray(n, dtype=float)
    return (m[None], True) if m.ndim == 2 else (m, False)


def ball_moments(n, radius2: float) -> BallMoments:
    """Probability and conditional second moment of ``N(0, n)`` over a centered ball.

    Parameters
    ----------
    n : SPD matrix (p, p), or a stack (B, p, p) of them
        Kernel covariance (the kernel runs in its eigenframe).  A stack is
        evaluated in one vectorised pass, and both fields of the result
        gain a leading axis of length B.
    radius2 : float
        Squared ball radius, > 0.  ``inf`` is allowed and recovers the whole
        space in closed form: prob is exactly 1 and the conditional second
        moment is ``n`` itself.

    Returns
    -------
    BallMoments
        ``prob`` and ``conditional``.  Every p runs the same 32-node contour
        sum; its roundoff floor is about exp(0.171 * 32) eps ~ 5e-14, so both
        are accurate to about 1e-13 relative (a few 1e-12 for the second
        moments at p = 6).  The conditional moment stays exact where the
        probability underflows to 0.
    """
    stack, single = _as_stack(n)
    bm = _ball_full(stack, radius2)
    return BallMoments(float(bm.prob[0]), bm.conditional[0]) if single else bm


def _ball_full(n: NDArray, radius2: float) -> BallMoments:
    """Ball moments of a (B, p, p) stack; both fields have a leading axis of length B.

    Raises RuntimeError if a row's conditional second moment exceeds its
    untruncated trace, which only an inconsistent contour sum can produce.
    """
    if n.ndim != 3 or n.shape[1] != n.shape[2]:
        raise ValueError(f"n must be a square matrix or a stack of them, got shape {n.shape}")
    rows = n.shape[0]
    scale = np.abs(n).reshape(rows, -1).max(axis=1, initial=0.0)
    if not np.isfinite(scale).all():
        raise ValueError("n has non-finite entries")
    asym = np.abs(n - n.swapaxes(1, 2)).reshape(rows, -1).max(axis=1, initial=0.0)
    if (asym > 1e-12 * np.maximum(scale, 1.0)).any():
        raise ValueError("n is not symmetric within 1e-12 relative")
    radius2 = float(radius2)
    if not radius2 > 0.0:
        raise ValueError(f"radius2 must be positive, got {radius2}")

    lam, vec = np.linalg.eigh(n)
    if not (lam[:, 0] > 0.0).all():
        raise ValueError(f"n is not positive definite (min eigenvalue {lam[:, 0].min():.3e})")
    if radius2 == math.inf:
        # The whole space in closed form: the contour would rebuild n from its
        # eigenframe and round.
        return BallMoments(prob=np.ones(rows), conditional=symmetrize(n))
    prob, d = _contour_moments(lam, radius2)
    if (d.sum(axis=1) > (1.0 + _TOL) * lam.sum(axis=1)).any():
        raise RuntimeError(
            "truncated second moment exceeded the untruncated trace; contour sum is inconsistent"
        )
    conditional = symmetrize((vec * d[:, None, :]) @ vec.swapaxes(1, 2))
    return BallMoments(prob=np.minimum(prob, 1.0), conditional=conditional)
