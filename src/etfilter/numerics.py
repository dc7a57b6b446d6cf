"""Numerical kernels shared by the trigger, the filter, and the rate predictors.

The central object is a zero-mean Gaussian kernel ``exp(-0.5 * z.T inv(n) z)``
restricted to the centered ball ``z.T z <= radius2``: the probability that a
draw from ``N(0, n)`` lands inside the ball, and the second moment of the
draws that do.  Both come from one Laplace inversion on a fixed Talbot
contour in the eigenframe of ``n``; the ball is rotation invariant, so the
second moment is diagonal there and the first moment vanishes by symmetry.
At p = 2 the contour sum takes one complex square root per node for the
pair of eigendirections, with the exact phases this leaves folded into the
weights; every other p takes one per direction.

Every moment routine takes a stack of kernels and evaluates it in one
vectorised pass, so a single matrix is a batch of one.  All functions are
pure; the contour nodes are computed once at import.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple

import numpy as np
from numpy.typing import NDArray

__all__ = ["BallMoments", "ball_moments", "chi_square_quantile"]


def symmetrize(a: NDArray) -> NDArray:
    """Symmetric part of a matrix, or of every matrix in a stack."""
    return 0.5 * (a + a.swapaxes(-1, -2))


def _eigh_nonconvergence(err, flag):
    raise np.linalg.LinAlgError("Eigenvalues did not converge")


def _eigh(a: NDArray) -> tuple[NDArray, NDArray]:
    """``np.linalg.eigh`` of a float64 (..., p, p) stack, without its wrapper.

    Calls the LAPACK gufunc that ``np.linalg.eigh`` wraps, on the lower
    triangle, under the same ``errstate``, so the eigenvalues and
    eigenvectors keep their bits and non-convergence raises the same
    LinAlgError.  The wrapper's shape and type checks are left to the callers,
    which pass float64 stacks of square matrices; they cost about 5 us of a
    roughly 100 us online filter step (numpy 2.4 on a 2-core Xeon).
    """
    with np.errstate(
        call=_eigh_nonconvergence, invalid="call", over="ignore", divide="ignore", under="ignore"
    ):
        return np.linalg._umath_linalg.eigh_lo(a, signature="d->dd")


def validated_eigh(a, name: str, definite: bool) -> tuple[NDArray, NDArray, NDArray]:
    """Check a symmetric positive (semi)definite matrix, or a (B, p, p) stack of
    them, and return its symmetric part with the eigenvalues and eigenvectors.

    Every matrix must be at least 1 x 1 with finite entries, symmetric within
    1e-12 times its own largest entry, and have eigenvalues > 0 (``definite``)
    or >= -1e-10 times its largest eigenvalue magnitude (roundoff in a PSD
    matrix).  Both bounds are relative, so a matrix and any positive multiple
    of it get the same verdict.
    """
    m = np.asarray(a, dtype=float)
    if m.ndim not in (2, 3) or m.shape[-1] != m.shape[-2] or m.shape[-1] == 0:
        raise ValueError(
            f"{name} must be a non-empty square matrix or a stack of them, got shape {m.shape}"
        )
    scale = np.abs(m).max(axis=(-2, -1))
    if not np.isfinite(scale).all():
        raise ValueError(f"{name} has non-finite entries")
    asym = np.abs(m - m.swapaxes(-1, -2)).max(axis=(-2, -1))
    if (asym > 1e-12 * scale).any():
        raise ValueError(f"{name} is not symmetric within 1e-12 relative")
    if asym.any():  # an exactly symmetric m is its own symmetric part, even near overflow
        m = symmetrize(m)
    lam, vec = _eigh(m)
    low = lam[..., 0]
    if definite and not (low > 0.0).all():
        raise ValueError(f"{name} is not positive definite (min eigenvalue {low.min():.3e})")
    if not definite and (low < -1e-10 * np.abs(lam).max(axis=-1)).any():
        raise ValueError(f"{name} is not positive semidefinite (min eigenvalue {low.min():.3e})")
    return m, lam, vec


@lru_cache(maxsize=64, typed=True)
def chi_square_quantile(alpha: float, dof: int) -> float:
    """Upper-tail chi-square quantile: the c with P(X > c) = alpha, X ~ chi2(dof).

    Bisection down to adjacent doubles solves log(P(c) / Q(c)) = target, the
    lower over the upper tail, with target = log1p(-alpha) - log(alpha).
    With y = c / 2 and integer dof, the smaller tail is summed in log space
    from all-positive terms: below the mean c = dof the lower-tail series

        P = y^{dof/2} e^{-y} sum_{n >= 0} y^n / Gamma(dof/2 + n + 1),

    at and above it the closed forms (Abramowitz & Stegun 26.4.4, 26.4.5)

        even dof: Q = e^{-y} sum_{j < dof/2} y^j / j!
        odd dof:  Q = erfc(sqrt(y)) + e^{-y} sum_{j < (dof-1)/2} y^{j+1/2} / Gamma(j+3/2)

    and the larger tail follows as log1p(-exp(.)) of the smaller.  The target
    keeps both alpha and 1 - alpha exact, so alpha down to the smallest
    subnormal and up to 1 - 1e-16 keeps full relative accuracy.

    Results are cached on (alpha, dof) and their types, so repeated configs
    skip the bisection and a bool dof never hits the entry of 1; invalid
    arguments are never cached and raise on every call.
    """
    alpha = float(alpha)
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie strictly inside (0, 1), got {alpha}")
    if isinstance(dof, (bool, np.bool_)) or int(dof) != dof or dof < 1:
        raise ValueError(f"dof must be a positive integer, got {dof}")
    dof = int(dof)
    target = math.log1p(-alpha) - math.log(alpha)
    lo, hi = 0.0, float(dof)
    while _log_odds(dof, hi) < target:
        lo, hi = hi, 2.0 * hi
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        if _log_odds(dof, mid) < target:
            lo = mid
        else:
            hi = mid
    return hi


def _log_odds(dof: int, c: float) -> float:
    """log(P(c) / Q(c)) for X ~ chi2(dof), P = P(X <= c) and Q = P(X > c);
    increasing in c."""
    a, y = 0.5 * dof, 0.5 * c
    log_y = math.log(y)
    if c < dof:
        # Below the mean y < a, so the series terms fall from the first on.
        series, term, n = 1.0, 1.0, 1
        while term > 1e-17 * series:
            term *= y / (a + n)
            series += term
            n += 1
        log_p = a * log_y - y - math.lgamma(a + 1.0) + math.log(series)
        return log_p - math.log1p(-math.exp(log_p))
    if dof % 2 == 0:
        log_sum = _log_sum_exp([j * log_y - math.lgamma(j + 1.0) for j in range(dof // 2)])
    else:
        terms = [(j + 0.5) * log_y - math.lgamma(j + 1.5) for j in range((dof - 1) // 2)]
        log_sum = _log_sum_exp([_log_erfc_scaled(y), *terms])
    log_q = log_sum - y
    return math.log1p(-math.exp(log_q)) - log_q


def _log_sum_exp(terms: list[float]) -> float:
    top = max(terms)
    return top + math.log(math.fsum(math.exp(t - top) for t in terms))


def _log_erfc_scaled(y: float) -> float:
    """log(e^y erfc(sqrt(y))).  Past sqrt(y) = 26, where erfc nears the bottom
    of the normal range, the asymptotic series
    erfc(z) = e^{-z^2} / (z sqrt(pi)) * sum_n (-1)^n (2n-1)!! / (2 z^2)^n
    is summed instead; there each term is (2n-1)/(2y) <= (2n-1)/1352 times the
    one before, so eight terms reach 1e-17."""
    z = math.sqrt(y)
    if z <= 26.0:
        return math.log(math.erfc(z)) + y
    series, term, n = 1.0, 1.0, 1
    while abs(term) > 1e-17:
        term *= -(2 * n - 1) / (2.0 * y)
        series += term
        n += 1
    return math.log(series / (z * math.sqrt(math.pi)))


class BallMoments(NamedTuple):
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


def _interleaved(w: NDArray) -> NDArray:
    """(Im w, Re w) pairs: Im sum_k w_k t_k over the last axis of a complex t
    is np.vecdot(t.view(float), _interleaved(w)), one dot product per row."""
    return np.column_stack([w.imag, w.real]).ravel()


_W_RI = _interleaved(_W)

# The weights turned by the exact phases -1j (probability) and -1 (moments)
# of the paired roots at p = 2; these turns only swap and negate parts.
_W_PAIR = (_interleaved(-1j * _W), _interleaved(-_W))

# What the weights make of 1 / s, by that same per-row dot product: dividing
# by it gives prob = 1 exactly where Phi rounds to 1.
_W_NORM = float(np.vecdot(np.ones(_Z.size, dtype=complex).view(float), _W_RI))

# Accuracy contract of the kernel: the roundoff floor exp(0.171 N) eps of the
# contour sum, about 5e-14 at N = 32.
_TOL = 1e-13


def _contour_moments(lam: NDArray, radius2: float) -> tuple[NDArray, NDArray]:
    """Ball probability and eigenframe conditional second moments for the
    (..., p) eigenvalues ``lam`` and a finite ``radius2``.

    Each factor 1 + 2 lam z / radius2 is written as v / a with v = a + b z and
    (a, b) = (1, 2 lam / radius2) when 2 lam <= radius2, else
    (radius2 / (2 lam), 1): |v| stays between about 0.5 and 50, and the real
    factors a enter in log space, so no product over- or underflows.  With
    inv = 1 / v, prod v^(-1/2) is the product of the sqrt(inv) (Im z > 0 keeps
    v off the branch cut), and the chi2_3 factor of direction i is inv_i
    itself.  The second moments are divided by the probability inside the
    sum, so they stay finite when it underflows.

    p = 2 takes one complex square root per node for its two directions.
    Im v > 0 puts inv in the open lower half-plane and rot = 1j / v in the
    open right half-plane, where principal roots multiply:
    sqrt(x) sqrt(y) = sqrt(x y).  Since sqrt(inv) = e^{-i pi/4} sqrt(rot),
    sqrt(inv_0) sqrt(inv_1) = -1j sqrt(rot_0 rot_1), and the chi2_3 factor
    inv_i = -1j rot_i turns it once more; both phases are exact and live in
    the weights (``_W_PAIR``).  Every other p keeps one root per direction.
    Odd p cannot pair all its directions without the phase e^{-i pi/4},
    which no double holds exactly; larger even p would pair (i, i + p/2)
    with the phases (-1j) ** (p/2) and (-1j) ** (p/2 + 1), but no workload
    runs p >= 4, so those keep their per-direction bits.
    """
    log_ratio = np.log(lam) + (math.log(2.0) - math.log(radius2))  # log(2 lam / radius2)
    log_b = np.minimum(log_ratio, 0.0)
    log_a = log_b - log_ratio  # min(-log_ratio, 0), exactly
    paired = lam.shape[-1] == 2
    # rot = 1j / v at p = 2, inv = 1 / v otherwise
    factor = (1j if paired else 1.0) / (np.exp(log_a)[..., None] + np.exp(log_b)[..., None] * _Z)
    if paired:
        terms = np.sqrt(factor[..., 0, :] * factor[..., 1, :])
        w_prob, w_moment = _W_PAIR
    else:
        terms = np.multiply.reduce(np.sqrt(factor), axis=-2)
        w_prob = w_moment = _W_RI
    scaled = np.vecdot(terms.view(float), w_prob)
    prob = scaled / _W_NORM * np.exp(0.5 * np.add.reduce(log_a, axis=-1))
    # lam_i / (1 + 2 lam_i z / radius2) = min(lam_i, radius2 / 2) / v_i
    ratio = np.vecdot((terms[..., None, :] * factor).view(float), w_moment) / scaled[..., None]
    return prob, np.minimum(lam, 0.5 * radius2) * ratio


def ball_moments(n, radius2: float) -> BallMoments:
    """Probability and conditional second moment of ``N(0, n)`` over the
    centered ball z'z <= radius2, for an SPD ``n`` (p, p) or a stack (B, p, p)
    of them; a stack runs in one vectorised pass and gives both fields of the
    result a leading axis of length B.

    ``radius2`` is any value in [0, inf] (a negative or NaN one raises
    ValueError), with closed forms at both ends: 0 gives prob 0 and a zero
    conditional moment (its limit), ``inf`` prob 1 and ``n`` itself.  Every
    other radius runs the same 32-node contour sum in the eigenframe of ``n``;
    its roundoff floor is about exp(0.171 * 32) eps ~ 5e-14, so both fields are
    accurate to about 1e-13 relative (a few 1e-12 for the second moments at
    p = 6).  The conditional moment stays exact where the probability
    underflows to 0.
    """
    radius2 = float(radius2)
    if not radius2 >= 0.0:
        raise ValueError(f"radius2 must be >= 0, got {radius2}")
    m, lam, vec = validated_eigh(n, "n", definite=True)
    prob, d = _ball_full(lam, radius2)
    if radius2 == math.inf:  # the eigenframe would only round n itself
        conditional = m
    else:
        conditional = symmetrize((vec * d[..., None, :]) @ vec.swapaxes(-1, -2))
    return BallMoments(prob if prob.ndim else float(prob), conditional)


def _ball_full(lam: NDArray, radius2: float) -> tuple[NDArray, NDArray]:
    """(prob, d) for kernels n = vec diag(lam) vec' with (..., p) eigenvalues
    ``lam`` > 0 and a float ``radius2`` in [0, inf], both checked by the caller:
    prob = P(z'z <= radius2) and d_i = E[(vec' z)_i^2 | ball], the conditional
    second moment in that eigenframe.  0 is the empty ball (prob 0, d = 0), inf
    the whole space (prob 1, d = lam).  Raises RuntimeError if d sums past the
    untruncated trace, which only an inconsistent contour sum can do.
    """
    if radius2 == 0.0:
        return np.zeros(lam.shape[:-1]), np.zeros_like(lam)
    if radius2 == math.inf:
        return np.ones(lam.shape[:-1]), lam
    prob, d = _contour_moments(lam, radius2)
    if (np.add.reduce(d, axis=-1) > (1.0 + _TOL) * np.add.reduce(lam, axis=-1)).any():
        raise RuntimeError(
            "truncated second moment exceeded the untruncated trace; contour sum is inconsistent"
        )
    return np.minimum(prob, 1.0), d
