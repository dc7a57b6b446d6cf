"""Independent reference implementations used to cross-check the package.

The test suite and the CLI's ``--check`` suite share this one module.
Everything here is deliberately written from scratch (series expansions,
closed forms, textbook recursions, brute-force sampling) rather than calling
into the numerics it checks, so a test that compares the two routes actually
compares two routes.  scipy appears only where the package itself does not
rely on it for the quantity under test.
"""

from __future__ import annotations

import math

import numpy as np

from .model import LinearGaussianModel


def random_spd(rng: np.random.Generator, dim: int, jitter: float = 0.1) -> np.ndarray:
    base = rng.normal(size=(dim, dim))
    return base @ base.T + jitter * np.eye(dim)


def random_model(rng: np.random.Generator, n: int, p: int) -> LinearGaussianModel:
    """Random stable observable-ish model for equivalence tests."""
    a = rng.normal(size=(n, n))
    a *= 0.9 / max(np.abs(np.linalg.eigvals(a)).max(), 1e-9)
    return LinearGaussianModel(
        A=a,
        C=rng.normal(size=(p, n)),
        Q=random_spd(rng, n),
        R=random_spd(rng, p),
        x0_mean=rng.normal(size=n),
        x0_cov=random_spd(rng, n),
    )


def reg_lower_gamma(a: float, x: float) -> float:
    """Regularized lower incomplete gamma P(a, x) via series / continued fraction."""
    if x == 0.0 and a > 0:
        return 0.0
    return math.exp(log_reg_lower_gamma(a, x))


def log_reg_lower_gamma(a: float, x: float) -> float:
    """log P(a, x) for x > 0; the series stays in log space, so it is finite
    where P(a, x) itself underflows."""
    if x <= 0 or a <= 0:
        raise ValueError("bad arguments")
    log_pref = a * math.log(x) - x - math.lgamma(a)
    if x < a + 1.0:
        term = 1.0 / a
        total = term
        denom = a
        for _ in range(1000):
            denom += 1.0
            term *= x / denom
            total += term
            if abs(term) < abs(total) * 1e-17:
                break
        return min(log_pref + math.log(total), 0.0)
    tiny = 1e-300
    b = x + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b
    frac = d
    for i in range(1, 1000):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        d = tiny if abs(d) < tiny else d
        c = b + an / c
        c = tiny if abs(c) < tiny else c
        d = 1.0 / d
        delta = d * c
        frac *= delta
        if abs(delta - 1.0) < 1e-17:
            break
    return math.log1p(-math.exp(log_pref) * frac)


def chi2_cdf(x: float, dof: int) -> float:
    return reg_lower_gamma(0.5 * dof, 0.5 * x)


def chi2_quantile(alpha: float, dof: int) -> float:
    """Upper alpha quantile by pure bisection on the hand-rolled CDF."""
    target = 1.0 - alpha
    lo, hi = 0.0, 1.0
    while chi2_cdf(hi, dof) < target:
        hi *= 2.0
        if hi > 1e12:
            raise RuntimeError("bracket failure")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if chi2_cdf(mid, dof) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def sym_sqrt(mat: np.ndarray) -> np.ndarray:
    """Symmetric square root of a PSD matrix (eigendecomposition route)."""
    vals, vecs = np.linalg.eigh(np.asarray(mat, dtype=float))
    return (vecs * np.sqrt(np.clip(vals, 0.0, None))) @ vecs.T


def kalman_filter(model, measurements: np.ndarray):
    """Textbook Kalman filter with a measurement update at time zero.

    Returns stacked means and covariances, one row per measurement.
    """
    x = np.array(model.x0_mean, dtype=float)
    cov = np.array(model.x0_cov, dtype=float)
    eye = np.eye(x.size)
    xs, ps = [], []
    for k in range(measurements.shape[0]):
        if k > 0:
            x = model.A @ x
            cov = model.A @ cov @ model.A.T + model.Q
        s = model.C @ cov @ model.C.T + model.R
        gain = cov @ model.C.T @ np.linalg.inv(s)
        x = x + gain @ (measurements[k] - model.C @ x)
        joseph = eye - gain @ model.C
        cov = joseph @ cov @ joseph.T + gain @ model.R @ gain.T
        xs.append(x.copy())
        ps.append(0.5 * (cov + cov.T))
    return np.array(xs), np.array(ps)


def ball_stats_1d(lam: float, radius2: float) -> tuple[float, float]:
    """(probability, conditional second moment) of N(0, lam) on z^2 <= radius2."""
    c = math.sqrt(radius2)
    prob = math.erf(c / math.sqrt(2.0 * lam))
    if prob == 0.0:
        raise ValueError("empty region")
    raw_m2 = lam * prob - c * math.sqrt(2.0 * lam / math.pi) * math.exp(-radius2 / (2.0 * lam))
    return prob, raw_m2 / prob


def isotropic_ball_stats(lam: float, dim: int, radius2: float) -> tuple[float, float]:
    """(probability, per-axis conditional second moment) for N(0, lam I_dim).

    Uses the chi-square identity E[u; u <= t] = dim * P(chi2_{dim+2} <= t) for
    u ~ chi2_dim, so each axis has conditional second moment
    lam * P_{dim+2}(t) / P_dim(t) with t = radius2 / lam.  The ratio is taken
    in log space: it stays exact where the probability underflows to 0.
    """
    half_t = 0.5 * radius2 / lam
    log_p = log_reg_lower_gamma(0.5 * dim, half_t)
    return math.exp(log_p), lam * math.exp(log_reg_lower_gamma(0.5 * dim + 1.0, half_t) - log_p)


def imhof_cdf(lams, dofs, x: float) -> float:
    """P(sum_j lams_j chi2_{dofs_j} <= x) by Imhof's real-axis integral
    (Biometrika 48, 1961): 1/2 - (1/pi) int_0^inf sin(theta(u)) / (u rho(u)) du
    with theta(u) = sum_j dofs_j atan(lams_j u) / 2 - x u / 2 and
    rho(u) = prod_j (1 + lams_j^2 u^2)^(dofs_j / 4).

    Adaptive quadrature covers the first four periods of x u / 2; the tail
    runs through QUADPACK's Fourier-integral rule.  Accurate while no lams_j
    greatly exceeds x (the probability is then small and cancels in 1/2 - ...).
    """
    from scipy.integrate import quad

    terms = list(zip(lams, dofs))

    def phase(u):
        return 0.5 * sum(h * math.atan(lam * u) for lam, h in terms)

    def amp(u):
        return u * math.exp(sum(0.25 * h * math.log1p((lam * u) ** 2) for lam, h in terms))

    w = 0.5 * x
    split = 8.0 * math.pi / w
    head = quad(lambda u: math.sin(phase(u) - w * u) / amp(u), 0.0, split, epsabs=1e-14,
                epsrel=1e-12, limit=1000)[0]
    # sin(phase - w u) = sin(phase) cos(w u) - cos(phase) sin(w u)
    tail = [
        quad(lambda u, f=f: f(phase(u)) / amp(u), split, math.inf, weight=weight, wvar=w,
             epsabs=1e-14, limlst=200)[0]
        for f, weight in ((math.sin, "cos"), (math.cos, "sin"))
    ]
    return 0.5 - (head + tail[0] - tail[1]) / math.pi


def imhof_ball_stats(lams, radius2: float):
    """(probability, conditional second moments along each axis) for
    N(0, diag(lams)) on the ball, from Imhof's integral: the moment along
    axis i is lams_i times the ball probability with that axis's chi2_1
    replaced by a chi2_3."""
    p = len(lams)
    prob = imhof_cdf(lams, [1] * p, radius2)
    dofs = [[1] * i + [3] + [1] * (p - 1 - i) for i in range(p)]
    return prob, [lam * imhof_cdf(lams, h, radius2) / prob for lam, h in zip(lams, dofs)]


def ball_stats_2d(lam1: float, lam2: float, radius2: float):
    """(probability, conditional second moments along both axes) for diag(lam1, lam2).

    Polar route: the angular integral reduces to modified Bessel functions and
    the radial integral is done with adaptive quadrature.  Entirely different
    machinery from a cartesian product rule.
    """
    from scipy.integrate import quad
    from scipy.special import ive

    c = math.sqrt(radius2)
    root = math.sqrt(lam1 * lam2)

    def parts(r):
        a = r * r / (2.0 * lam1)
        b = r * r / (2.0 * lam2)
        x = 0.5 * (b - a)
        damp = math.exp(-min(a, b))
        return ive(0, x) * damp, ive(1, x) * damp

    def f_prob(r):
        return r * parts(r)[0] / root

    def f_m2_1(r):
        i0, i1 = parts(r)
        return r**3 * (i0 + i1) / (2.0 * root)

    def f_m2_2(r):
        i0, i1 = parts(r)
        return r**3 * (i0 - i1) / (2.0 * root)

    prob = quad(f_prob, 0.0, c, epsabs=1e-13, epsrel=1e-12, limit=300)[0]
    m2_1 = quad(f_m2_1, 0.0, c, epsabs=1e-13, epsrel=1e-12, limit=300)[0]
    m2_2 = quad(f_m2_2, 0.0, c, epsabs=1e-13, epsrel=1e-12, limit=300)[0]
    if prob <= 0.0:
        raise ValueError("empty region")
    return prob, m2_1 / prob, m2_2 / prob


def axisymmetric_ball_stats(a: float, b: float, radius2: float):
    """(probability, conditional second moment along the a axis and along each
    b axis) for N(0, diag(a, b, b)) on the ball.

    At x = y sqrt(a) along the a axis the (b, b) plane meets a disc, whose
    probability and second moment are the chi2_2 and chi2_4 CDFs; the y
    integral runs by adaptive quadrature.
    """
    from scipy.integrate import quad
    from scipy.special import gammainc

    def integral(f):
        def g(y):
            t = max(radius2 - a * y * y, 0.0) / (2.0 * b)
            return math.sqrt(2.0 / math.pi) * math.exp(-0.5 * y * y) * f(y, t)

        return quad(g, 0.0, min(math.sqrt(radius2 / a), 40.0), epsabs=0.0, epsrel=1e-13)[0]

    prob = integral(lambda y, t: gammainc(1.0, t))
    cond_a = a * integral(lambda y, t: y * y * gammainc(1.0, t)) / prob
    return prob, cond_a, b * integral(lambda y, t: gammainc(2.0, t)) / prob


def mc_ball_stats(cov: np.ndarray, radius2: float, samples: int, rng):
    """Rejection-sampling estimate of (probability, conditional first moment,
    conditional second moment, number of draws inside)."""
    cov = np.asarray(cov, dtype=float)
    dim = cov.shape[0]
    z = rng.standard_normal((samples, dim)) @ sym_sqrt(cov).T
    inside = np.einsum("ij,ij->i", z, z) <= radius2
    count = int(inside.sum())
    prob = count / samples
    if count == 0:
        return prob, np.zeros(dim), np.zeros((dim, dim)), 0
    zin = z[inside]
    return prob, zin.mean(axis=0), (zin.T @ zin) / count, count


def _innovation_stat(innov: np.ndarray, nbar: np.ndarray) -> np.ndarray:
    return np.einsum("ij,ij->i", innov, np.linalg.solve(nbar, innov.T).T)


def one_step_empirical(model, nbar, threshold, xhat, cov, samples, rng) -> float:
    """Sampled next-step transmission frequency from a Gaussian posterior."""
    n = model.A.shape[0]
    p = model.C.shape[0]
    x = np.asarray(xhat) + rng.standard_normal((samples, n)) @ sym_sqrt(cov).T
    x = x @ model.A.T + rng.standard_normal((samples, n)) @ sym_sqrt(model.Q).T
    y = x @ model.C.T + rng.standard_normal((samples, p)) @ sym_sqrt(model.R).T
    innov = y - (model.A @ np.asarray(xhat)) @ model.C.T
    return float((_innovation_stat(innov, nbar) > threshold).mean())


def two_step_empirical(model, nbar, threshold, xhat, cov, samples, rng) -> float:
    """Sampled transmission frequency two steps ahead of a Gaussian posterior.

    The intermediate step applies the real decision rule: when the first step
    transmits, the estimate is corrected with the standard predicted-covariance
    gain; when it stays silent, the estimate is the bare prediction.
    """
    n = model.A.shape[0]
    p = model.C.shape[0]
    xhat = np.asarray(xhat, dtype=float)
    x = xhat + rng.standard_normal((samples, n)) @ sym_sqrt(cov).T

    x = x @ model.A.T + rng.standard_normal((samples, n)) @ sym_sqrt(model.Q).T
    y = x @ model.C.T + rng.standard_normal((samples, p)) @ sym_sqrt(model.R).T
    xpred = model.A @ xhat
    innov = y - xpred @ model.C.T
    sent = _innovation_stat(innov, nbar) > threshold

    m = model.A @ np.asarray(cov) @ model.A.T + model.Q
    s = model.C @ m @ model.C.T + model.R
    gain = m @ model.C.T @ np.linalg.inv(s)
    est = xpred + np.where(sent[:, None], innov @ gain.T, 0.0)

    x = x @ model.A.T + rng.standard_normal((samples, n)) @ sym_sqrt(model.Q).T
    y = x @ model.C.T + rng.standard_normal((samples, p)) @ sym_sqrt(model.R).T
    innov = y - (est @ model.A.T) @ model.C.T
    return float((_innovation_stat(innov, nbar) > threshold).mean())
