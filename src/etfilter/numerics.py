"""Numerical kernels shared by the trigger, the filter, and the rate predictors.

The central object is the moment triple of a zero-mean Gaussian kernel
``exp(-0.5 * z.T inv(n) z)`` restricted to the centered ball ``z.T z <= radius2``:
its raw mass, its raw first and second moments, and the normalized probability
that a draw from ``N(0, n)`` lands inside the ball.  Everything is computed in
the eigenframe of ``n``; the ball is rotation invariant, so the second moment
is diagonal there and the first moment vanishes by symmetry.

Every moment routine takes a stack of kernels and evaluates it in one
vectorised pass, so a single matrix is a batch of one.  All functions are
pure.  The only module state is a cache of Gauss-Legendre node sets.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray
from scipy.special import erf, gammainc, ndtri

__all__ = [
    "BallMoments",
    "QuadratureError",
    "SpdMatrix",
    "ball_moments",
    "chi_square_quantile",
    "factor_precision",
    "psd_sqrt",
    "symmetrize",
    "truncated_second_moment",
]

# Validated dense symmetric positive (semi)definite matrix.
SpdMatrix = NDArray[np.float64]

# Relative accuracy of the ball probability and second moments (p <= 3): a
# kernel is accepted once two successive quadrature orders agree to it.
_TOL = 1e-8

# Per-eigendirection Gaussian tail clip, in standard deviations.  The discarded
# tail mass is below 8e-24 relative, far under _TOL.  The clip keeps the
# finite-radius kernels from forming inf - inf on wide balls; it does not make
# radius2 = inf exact, which _ball_full handles in closed form.
_TAIL_CLIP = 10.0

_MAX_ORDER = {1: 4096, 2: 4096, 3: 1024}


class QuadratureError(RuntimeError):
    """Raised when the moment quadrature cannot reach its accuracy ``_TOL``."""

    def __init__(self, message: str, achieved: float = math.nan):
        super().__init__(message)
        self.achieved = achieved


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
    """Raw moments of exp(-0.5 z' inv(n) z) over the ball z'z <= radius2.

    mass : raw zeroth moment (integral of the unnormalized kernel)
    prob : mass / ((2 pi)^(p/2) |n|^(1/2)), the N(0, n) ball probability
    m1   : raw first moment, zero by symmetry up to quadrature roundoff
    m2   : raw second moment matrix
    """

    mass: float
    prob: float
    m1: NDArray
    m2: NDArray


# -- Gauss-Legendre machinery -------------------------------------------------

_GL_CACHE: dict[int, tuple[NDArray, NDArray]] = {}


def _gl_nodes(order: int) -> tuple[NDArray, NDArray]:
    cached = _GL_CACHE.get(order)
    if cached is None:
        cached = np.polynomial.legendre.leggauss(order)
        _GL_CACHE[order] = cached
    return cached


_RULE_CACHE: dict[tuple[int, int], tuple[NDArray, NDArray, NDArray]] = {}


def _rule(order: int, levels: int) -> tuple[NDArray, NDArray, NDArray]:
    """Unit nodes and weights of x = b sin(phi) for the Gauss-Legendre orders
    ``order >> (levels - 1)``, ..., ``order``, laid end to end, plus the index
    where each order's nodes start.

    The substitution removes the sqrt-type endpoint behaviour the ball
    boundary induces, so Gauss-Legendre applied in phi converges
    geometrically.
    """
    cached = _RULE_CACHE.get((order, levels))
    if cached is None:
        orders = [order >> i for i in reversed(range(levels))]
        phis = [(0.5 * math.pi) * _gl_nodes(o)[0] for o in orders]
        weights = [np.cos(phi) * (0.5 * math.pi) * _gl_nodes(o)[1] for o, phi in zip(orders, phis)]
        cached = np.sin(np.concatenate(phis)), np.concatenate(weights), np.cumsum([0, *orders[:-1]])
        _RULE_CACHE[(order, levels)] = cached
    return cached


def _gauss_1d(x: NDArray, lam: NDArray) -> NDArray:
    return np.exp(x * x / (-2.0 * lam)) / np.sqrt(2.0 * math.pi * lam)


def _inner_closed(c_sq: NDArray, lam: NDArray) -> tuple[NDArray, NDArray]:
    """Innermost-dimension integrals in closed form.

    For half-width c = sqrt(c_sq) (entries may be inf) and variances ``lam``
    broadcast against it, returns E0 = integral of the unit-normalized
    N(0, lam) density over [-c, c] and E2 = the matching second-moment
    integral.
    """
    c = np.minimum(np.sqrt(np.maximum(c_sq, 0.0)), _TAIL_CLIP * np.sqrt(lam))
    scaled = c / np.sqrt(2.0 * lam)
    e0 = erf(scaled)
    # e2 = lam * e0 - c * sqrt(2 lam / pi) * exp(-scaled^2), in place: on a
    # p = 3 grid every temporary is a full grid.
    tail = np.square(scaled, out=scaled)
    np.exp(np.negative(tail, out=tail), out=tail)
    tail *= c
    tail *= np.sqrt(2.0 * lam / math.pi)
    e2 = lam * e0
    e2 -= tail
    return e0, e2


def _kernel(lam: NDArray, radius2: float, order: int, levels: int = 1) -> NDArray:
    """Ball sums for every row of the (B, p) eigenvalues ``lam``, p <= 3.

    Evaluates the Gauss-Legendre orders ``order >> (levels - 1)``, ...,
    ``order`` in one vectorised pass.  The first max(p - 1, 1) eigendirections
    run over sine-mapped nodes; for p >= 2 the last one is integrated in
    closed form.  Returns term-major sums of shape (T, B, L), normalized by
    the full Gaussian constant: the probability, the p second moments in the
    eigenframe, then the first moments of the node coordinates (the
    closed-form one vanishes by symmetry).
    """
    p = lam.shape[1]
    sin, weight, starts = _rule(order, levels)
    l1 = lam[:, :1]
    half = np.minimum(math.sqrt(radius2), _TAIL_CLIP * np.sqrt(l1))
    x = half * sin
    w = _gauss_1d(x, l1) * (half * weight)
    rem = radius2 - x * x
    sums = np.empty((1 + p + max(p - 1, 1), lam.shape[0], starts.size))
    if p == 3:
        bounds = [*starts, sin.size]
        for level, seg in enumerate(map(slice, bounds[:-1], bounds[1:])):
            outer = x[:, seg], w[:, seg], rem[:, seg]
            for i, t in enumerate(_grid_terms(lam, *outer, sin[seg], weight[seg])):
                sums[i, :, level] = t.sum(axis=(1, 2))
        return sums
    if p == 1:
        f0, closed = w, []
    else:
        e0, e2 = _inner_closed(rem, lam[:, 1:])
        f0, closed = w * e0, [w * e2]
    for i, t in enumerate([f0, f0 * x * x, *closed, f0 * x]):
        np.add.reduceat(t, starts, axis=1, out=sums[i])
    return sums


def _grid_terms(lam: NDArray, x: NDArray, w: NDArray, rem: NDArray, sin: NDArray, weight: NDArray):
    """p = 3 integrands on one order's tensor grid: the middle eigendirection
    runs over sine-mapped nodes across each outer node's chord of the ball."""
    l2 = lam[:, 1:2]
    half = np.minimum(np.sqrt(np.maximum(rem, 0.0)), _TAIL_CLIP * np.sqrt(l2))[:, :, None]
    x = x[:, :, None]
    l2 = l2[:, :, None]
    y = half * sin
    yy = y * y
    # w * N(y; 0, l2) * dy, with the density's constant folded into the weights.
    g = np.exp(yy / (-2.0 * l2))
    g *= half * (weight / np.sqrt(2.0 * math.pi * l2))
    g *= w[:, :, None]
    e0, e2 = _inner_closed(rem[:, :, None] - yy, lam[:, 2:, None])
    f0 = g * e0
    e2 *= g
    return f0, f0 * (x * x), f0 * yy, e2, f0 * x, f0 * y


_KERNELS = {1: _kernel, 2: _kernel, 3: _kernel}

# The first pass evaluates every order up to this one at once: up to 64 nodes
# on a line the cost is call overhead, while a p = 3 grid pays per node, so
# its higher orders run only for rows that need them.
_FUSED_ORDER = {1: 64, 2: 64, 3: 32}

# Points one kernel call may hold per temporary array.  At 128 kB a call's
# dozen temporaries stay cache resident: two p = 3 rows at order 128 in one
# call run about a fifth slower than one row at a time.  Larger batches run
# in blocks of rows.
_POINT_BUDGET = 1 << 14


def _evaluate(lam: NDArray, radius2: float, order: int, levels: int) -> NDArray:
    p = lam.shape[1]
    per_row = sum((order >> i) ** max(p - 1, 1) for i in range(levels))
    block = max(1, _POINT_BUDGET // per_row)
    parts = [
        _KERNELS[p](lam[lo : lo + block], radius2, order, levels)
        for lo in range(0, lam.shape[0], block)
    ]
    return parts[0] if len(parts) == 1 else np.concatenate(parts, axis=1)


def _order_error(cur: NDArray, prev: NDArray) -> NDArray:
    """Largest relative change of the probability and second moments between orders."""
    return (np.abs(cur - prev) / np.maximum(np.abs(cur), 1e-300)).max(axis=0)


def _moments_diag(lam: NDArray, radius2: float):
    """Normalized ball moments for (B, p) diagonal covariances, with order doubling.

    Returns (prob, diag second moments, first moments, achieved error) per
    row, all normalized by the full Gaussian constant.  A row is accepted at
    the first order whose probability and second moments differ from the
    previous order's by at most ``_TOL`` relative; the integrands are analytic
    after the sine substitution, so the comparison is a sound (conservative)
    estimate.  One pass evaluates the orders 16 to ``_FUSED_ORDER``, and
    doubling continues only for the rows that still need it.
    """
    p = lam.shape[1]
    order = _FUSED_ORDER[p]
    sums = _evaluate(lam, radius2, order, order.bit_length() - 4)  # from order 16 up
    err = _order_error(sums[: p + 1, :, 1:], sums[: p + 1, :, :-1])
    passed = err <= _TOL
    level = passed.argmax(axis=1)
    rows = np.arange(lam.shape[0])
    out = sums[:, rows, level + 1]
    achieved = err[rows, level]
    pending = np.flatnonzero(~passed.any(axis=1))
    prev = sums[: p + 1, pending, -1]
    while pending.size and order < _MAX_ORDER[p]:
        order *= 2
        cur = _evaluate(lam[pending], radius2, order, 1)[:, :, 0]
        err = _order_error(cur[: p + 1], prev)
        out[:, pending] = cur
        achieved[pending] = err
        keep = ~(err <= _TOL)
        pending, prev = pending[keep], cur[: p + 1, keep]
    if pending.size:
        worst = float(np.max(achieved[pending]))
        raise QuadratureError(
            f"ball moment quadrature stalled at order {_MAX_ORDER[p]} with error "
            f"{worst:.3e} > {_TOL:.0e}",
            achieved=worst,
        )
    m1 = np.zeros((lam.shape[0], p))
    m1[:, : max(p - 1, 1)] = out[p + 1 :].T
    return out[0], out[1 : p + 1].T, m1, achieved


def _moments_qmc(lam: NDArray, radius2: float):
    """Randomized quasi-Monte-Carlo fallback for p > 3, one row of ``lam`` at a time.

    Accuracy is sampling limited; if the replicate spread exceeds ``_TOL`` the
    achieved error is reported through a warning rather than an exception.
    """
    from scipy.stats import qmc

    rows = []
    for row in lam:
        p = row.size
        root = np.sqrt(row)
        probs, diags, firsts = [], [], []
        for rep in range(8):
            sob = qmc.Sobol(d=p, scramble=True, seed=1000 + rep)
            u = sob.random(2**15)
            z = ndtri(np.clip(u, 1e-15, 1.0 - 1e-15)) * root
            inside = (z * z).sum(axis=1) <= radius2
            probs.append(inside.mean())
            zin = z[inside]
            m = max(len(z), 1)
            diags.append((zin * zin).sum(axis=0) / m)
            firsts.append(zin.sum(axis=0) / m)
        err = 3.0 * float(np.std(probs)) / math.sqrt(len(probs))
        if err > _TOL:
            warnings.warn(
                f"QMC ball moments (p={p}) achieved error ~{err:.2e} above {_TOL:.0e}",
                RuntimeWarning,
                stacklevel=3,
            )
        rows.append((float(np.mean(probs)), np.mean(diags, axis=0), np.mean(firsts, axis=0), err))
    return tuple(np.array(a) for a in zip(*rows))


def _as_stack(n) -> tuple[NDArray, bool]:
    """(B, p, p) view of a matrix or a stack of matrices, and whether it was one matrix."""
    m = np.asarray(n, dtype=float)
    return (m[None], True) if m.ndim == 2 else (m, False)


def _first_row(bm: BallMoments) -> BallMoments:
    return BallMoments(mass=float(bm.mass[0]), prob=float(bm.prob[0]), m1=bm.m1[0], m2=bm.m2[0])


def ball_moments(n, radius2: float) -> BallMoments:
    """Moments of the Gaussian kernel of covariance ``n`` over a centered ball.

    Parameters
    ----------
    n : SPD matrix (p, p), or a stack (B, p, p) of them
        Kernel covariance (the quadrature runs in its eigenframe).  A stack
        is evaluated in one vectorised pass, and every field of the result
        gains a leading axis of length B.
    radius2 : float
        Squared ball radius, > 0.  ``inf`` is allowed and recovers the whole
        space in closed form for every p, the p > 3 sampling path included:
        prob is exactly 1, m1 is zero, m2 is ``n * (2 pi)^(p/2) |n|^(1/2)``
        and the conditional second moment is ``n`` itself.

    Returns
    -------
    BallMoments
        Raw mass/m1/m2 plus the normalized ball probability.  For p <= 3 the
        probability and the second moments are accurate to 1e-8 relative;
        the first moment is exactly zero by symmetry, so only cancellation
        roundoff remains there.  For p > 3 at a finite radius the accuracy
        is that of the sampling fallback, and a ``RuntimeWarning`` reports
        the achieved error.
    """
    stack, single = _as_stack(n)
    bm, _, _ = _ball_full(stack, radius2)
    return _first_row(bm) if single else bm


def _ball_full(n: NDArray, radius2: float) -> tuple[BallMoments, NDArray, NDArray]:
    """Ball moments of a (B, p, p) stack plus the conditional first and second
    moments m1/mass and m2/mass.

    Every field has a leading axis of length B.  The conditional moments are
    assembled from the normalized eigenframe quantities (d_i / prob), so they
    stay finite even when the raw mass over- or underflows double precision.
    """
    if n.ndim != 3 or n.shape[1] != n.shape[2]:
        raise ValueError(f"n must be a square matrix or a stack of them, got shape {n.shape}")
    rows, p = n.shape[:2]
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
    # A product of roots: the product of tiny eigenvalues alone could underflow.
    norm_const = (2.0 * math.pi) ** (0.5 * p) * np.sqrt(lam).prod(axis=1)
    if radius2 == math.inf:
        # The whole space: quadrature would leave a roundoff deficit in prob.
        m = symmetrize(n)
        bm = BallMoments(
            mass=norm_const,
            prob=np.ones(rows),
            m1=np.zeros((rows, p)),
            m2=m * norm_const[:, None, None],
        )
        return bm, bm.m1, m
    moments = _moments_diag if p <= 3 else _moments_qmc
    prob, d, m1_diag, _ = moments(lam, radius2)

    prob = np.minimum(prob, 1.0)
    safe = np.maximum(prob, 1e-300)
    conditional = symmetrize((vec * (d / safe[:, None])[:, None, :]) @ vec.swapaxes(1, 2))
    m2 = conditional * (safe * norm_const)[:, None, None]
    m1 = (vec @ (m1_diag * norm_const[:, None])[:, :, None])[:, :, 0]
    first = (vec @ (m1_diag / safe[:, None])[:, :, None])[:, :, 0]
    return BallMoments(mass=prob * norm_const, prob=prob, m1=m1, m2=m2), first, conditional


def truncated_second_moment(n, radius2: float) -> NDArray:
    """Conditional second moment E[z z' | z'z <= radius2] for z ~ N(0, n).

    ``n`` may also be a (B, p, p) stack; the result then is one as well.
    """
    stack, single = _as_stack(n)
    bm, _, conditional = _ball_full(stack, radius2)
    if not (bm.prob > 0.0).all():
        raise ValueError("ball probability underflowed; radius2 is degenerate for this covariance")
    trace = np.trace(conditional, axis1=1, axis2=2)
    if (trace > (1.0 + _TOL) * np.trace(stack, axis1=1, axis2=2)).any():
        raise RuntimeError(
            "truncated second moment exceeded the untruncated trace; quadrature is inconsistent"
        )
    return conditional[0] if single else conditional

