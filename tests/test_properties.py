"""Property tests on random SPD kernels and random small models.

The kernels have p <= 3 and condition numbers up to 1e6.  Examples are
derandomized, so every run checks the same draws.
"""

import math
import warnings

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from etfilter.estimator import EventTriggeredFilter
from etfilter.numerics import ball_moments, chi_square_quantile
from etfilter.trigger import make_config

from oracles import mc_ball_stats, random_model, random_spd

# Relative accuracy of the ball-moment quadrature.
TOL = 1e-8

PROPERTY = settings(max_examples=100, deadline=None, derandomize=True, database=None)


def _kernel(seed: int, p: int, log_cond: float, log_scale: float) -> np.ndarray:
    """A random rotation of eigenvalues spread over ``log_cond`` decades."""
    rng = np.random.default_rng(seed)
    rot, _ = np.linalg.qr(rng.standard_normal((p, p)))
    spread = np.r_[0.0, rng.uniform(size=max(p - 2, 0)), 1.0][:p]
    n = (rot * 10.0 ** (log_scale + log_cond * spread)) @ rot.T
    return 0.5 * (n + n.T)


kernels = st.builds(
    _kernel,
    seed=st.integers(0, 2**32 - 1),
    p=st.integers(1, 3),
    log_cond=st.floats(0.0, 6.0),
    log_scale=st.floats(-3.0, 3.0),
)


def _min_eig(a: np.ndarray) -> float:
    return float(np.linalg.eigvalsh(a)[0])


@PROPERTY
@given(n=kernels, fractions=st.lists(st.floats(1e-2, 10.0), min_size=2, max_size=5))
def test_prob_is_monotone_in_radius(n, fractions):
    probs = np.array([ball_moments(n, f * np.trace(n)).prob for f in sorted(fractions)])
    assert (np.diff(probs) >= -TOL * probs[1:]).all(), probs


@PROPERTY
@given(n=kernels, fraction=st.floats(1e-2, 10.0))
def test_conditional_second_moment_below_kernel(n, fraction):
    cond = ball_moments(n, fraction * np.trace(n)).conditional
    assert _min_eig(n - cond) >= -TOL * np.abs(n).max()


@settings(PROPERTY, max_examples=30)
@given(n=kernels, fraction=st.floats(0.5, 2.0), seed=st.integers(0, 2**32 - 1))
def test_quadrature_matches_sampling(n, fraction, seed):
    """Probability within 4 standard errors and conditional trace within 2%
    of the rejection-sampling oracle."""
    samples = 200_000
    radius2 = fraction * np.trace(n)
    bm = ball_moments(n, radius2)
    prob = bm.prob
    prob_mc, _, m2_mc, _ = mc_ball_stats(n, radius2, samples, np.random.default_rng(seed))
    assert abs(prob - prob_mc) <= 4.0 * math.sqrt(prob * (1.0 - prob) / samples)
    trace = np.trace(bm.conditional)
    assert abs(trace - np.trace(m2_mc)) <= 0.02 * trace


@PROPERTY
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 3),
    p=st.integers(1, 3),
    log_bound=st.floats(-2.0, 2.0),
    alpha=st.floats(0.01, 0.5),
)
def test_branch_posteriors_are_ordered(seed, n, p, log_bound, alpha):
    """P_z <= P_silent <= the prior the measurement update starts from."""
    rng = np.random.default_rng(seed)
    model = random_model(rng, n, p)
    trigger = make_config(10.0**log_bound * random_spd(rng, p), alpha)
    cache = EventTriggeredFilter(model, trigger).init(np.zeros(p))[1].cache
    slack = TOL * np.abs(model.x0_cov).max()
    assert _min_eig(cache.P_silent - cache.P_z) >= -slack
    assert _min_eig(model.x0_cov - cache.P_silent) >= -slack


@PROPERTY
@given(n=kernels, fraction=st.floats(1e-2, 10.0), log_c=st.floats(-200.0, 200.0))
def test_kernel_is_unit_free(n, fraction, log_c):
    """Scaling the kernel and the squared radius by c keeps the probability
    within 1e-12 relative and scales the conditional moment by c."""
    c = 10.0**log_c
    radius2 = fraction * np.trace(n)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        scaled = ball_moments(c * n, c * radius2)
    unit = ball_moments(n, radius2)
    assert abs(scaled.prob - unit.prob) <= 1e-12 * scaled.prob
    want = c * unit.conditional
    assert np.abs(scaled.conditional - want).max() <= 1e-12 * np.abs(want).max()


# Levels spread over both tails: log-uniform in alpha and in 1 - alpha.
levels = st.one_of(
    st.floats(-300.0, 0.0).map(lambda e: 10.0**e),
    st.floats(-16.0, -0.3).map(lambda e: 1.0 - 10.0**e),
).filter(lambda a: 1e-300 < a < 1.0)


@PROPERTY
@given(a=levels, b=levels, dof=st.integers(1, 10))
def test_chi_square_quantile_is_monotone(a, b, dof):
    """Strictly decreasing in alpha and strictly increasing in dof.  The two
    levels differ by at least 1e-9 of the smaller tail, far above the
    quantile's rounding."""
    lo, hi = sorted((a, b))
    assume(hi - lo > 1e-9 * min(lo, 1.0 - hi))
    assert chi_square_quantile(lo, dof) > chi_square_quantile(hi, dof)
    if dof < 10:
        assert chi_square_quantile(lo, dof) < chi_square_quantile(lo, dof + 1)
