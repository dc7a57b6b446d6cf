import math
import warnings

import numpy as np
import pytest

from etfilter import numerics
from etfilter.estimator import (
    EventTriggeredFilter,
    _checked,
    _Constants,
    _constants,
    _silence,
)
from etfilter.harness import CASE_BOUNDS
from etfilter.model import LinearGaussianModel, simulate, tracking_preset
from etfilter.numerics import ball_moments, chi_square_quantile, psd_sqrt
from etfilter.trigger import make_config

import oracles
from oracles import random_spd


class TestChiSquareQuantile:
    def test_matches_bisection_oracle(self):
        # For dof 1-10 the tail summed directly switches at c = dof, i.e. at
        # alpha = Q(dof) in [0.317, 0.441]; 0.30-0.45 land on both sides of it.
        for alpha in (0.5, 0.45, 0.4, 0.35, 0.3, 0.1, 0.05, 0.01, 0.001):
            for dof in (1, 2, 3, 4, 6, 10):
                got = chi_square_quantile(alpha, dof)
                want = oracles.chi2_quantile(alpha, dof)
                assert got == pytest.approx(want, rel=1e-12), (alpha, dof)

    def test_tabled_value(self):
        assert chi_square_quantile(0.05, 2) == pytest.approx(5.9915, abs=5e-4)

    def test_extreme_alphas(self):
        near_one = chi_square_quantile(0.9999, 2)
        assert 0.0 < near_one < 0.01
        tiny = chi_square_quantile(1e-12, 2)
        assert tiny == pytest.approx(oracles.chi2_quantile(1e-12, 2), rel=1e-9)

    @pytest.mark.parametrize(
        "alpha",
        [0.05, 1e-6, 1e-12, 1e-100, 1e-300, 5e-324, 0.9999, 1.0 - 1e-9, math.exp(-1.0)],
    )
    def test_dof2_closed_form(self, alpha):
        # P(chi2_2 > c) = exp(-c / 2), so c = -2 ln(alpha) exactly; exp(-1) puts
        # the root at c = dof, where the directly summed tail switches.
        assert chi_square_quantile(alpha, 2) == pytest.approx(-2.0 * math.log(alpha), rel=1e-14)

    @pytest.mark.parametrize("alpha", [1e-50, 1e-300, 1e-310])
    @pytest.mark.parametrize("dof", range(1, 7))
    def test_deep_tail_matches_bisection_oracle(self, alpha, dof):
        # At 1e-300 and below, sqrt(c / 2) > 26 and the odd-dof tails sum the
        # asymptotic series of log erfc.  (At the subnormal 5e-324 the oracle's
        # own continued fraction loses digits, so that alpha is checked at dof 2
        # only.)
        got = chi_square_quantile(alpha, dof)
        assert got == pytest.approx(oracles.chi2_quantile(alpha, dof), rel=1e-13)

    def test_round_trip_through_cdf(self):
        for alpha, dof in ((0.05, 2), (0.3, 5)):
            c = chi_square_quantile(alpha, dof)
            assert oracles.chi2_cdf(c, dof) == pytest.approx(1.0 - alpha, abs=1e-12)

    @pytest.mark.parametrize("alpha", [0.0, 1.0, -0.2, 1.5])
    def test_rejects_bad_alpha(self, alpha):
        with pytest.raises(ValueError):
            chi_square_quantile(alpha, 2)

    @pytest.mark.parametrize("dof", [0, -1, 2.5, True])
    def test_rejects_bad_dof(self, dof):
        chi_square_quantile(0.05, 1)  # a cached (0.05, 1) must not answer for True
        with pytest.raises(ValueError):
            chi_square_quantile(0.05, dof)

    def test_repeated_call_is_a_cache_hit_and_bad_alpha_raises_every_time(self):
        """Each config builds its trigger from the same (alpha, dof); the
        bisection runs once for it, while an invalid alpha is never cached."""
        first = chi_square_quantile(0.0123, 3)
        hits = chi_square_quantile.cache_info().hits
        assert chi_square_quantile(0.0123, 3) == first
        assert chi_square_quantile.cache_info().hits == hits + 1
        for _ in range(2):
            with pytest.raises(ValueError, match="alpha"):
                chi_square_quantile(1.5, 3)


class TestFactorPrecision:
    """The trigger's whitener phi: upper triangular with phi.T @ phi = inv(nbar)."""

    def test_multiplies_back_to_precision(self):
        rng = np.random.default_rng(11)
        bounds = [random_spd(rng, dim) for dim in (1, 2, 3, 5)] + list(CASE_BOUNDS.values())
        for nbar in bounds:
            dim = nbar.shape[0]
            phi = make_config(nbar).phi
            assert np.allclose(phi.T @ phi, np.linalg.inv(nbar), rtol=1e-10, atol=1e-12)
            assert np.allclose(phi @ nbar @ phi.T, np.eye(dim), atol=1e-10)

    def test_upper_triangular(self):
        rng = np.random.default_rng(12)
        phi = make_config(random_spd(rng, 3)).phi
        assert np.allclose(phi, np.triu(phi))

    def test_rejects_indefinite(self):
        with pytest.raises(ValueError, match="positive definite"):
            make_config(np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            make_config(np.array([[1.0, 0.5], [0.0, 1.0]]))


class TestBallMoments1d:
    def test_against_erf_closed_form(self):
        for lam, r2 in ((1.0, 3.84), (2.5, 7.0), (0.03, 0.5), (400.0, 100.0)):
            bm = ball_moments(np.array([[lam]]), r2)
            prob, cond_m2 = oracles.ball_stats_1d(lam, r2)
            assert bm.prob == pytest.approx(prob, rel=1e-10)
            assert bm.conditional[0, 0] == pytest.approx(cond_m2, rel=1e-10)


class TestBallMoments2d:
    def test_identity_closed_form(self):
        r2 = chi_square_quantile(0.05, 2)
        bm = ball_moments(np.eye(2), r2)
        assert bm.prob == pytest.approx(1.0 - math.exp(-0.5 * r2), abs=1e-12)
        assert bm.prob == pytest.approx(0.95, abs=1e-6)

    def test_diagonal_against_bessel_radial_oracle(self):
        for lam1, lam2, r2 in ((3.0, 0.4, 5.0), (1.0, 1.0, 5.991), (12.0, 25.0, 40.0)):
            n = np.diag([lam1, lam2])
            prob, c1, c2 = oracles.ball_stats_2d(lam1, lam2, r2)
            bm = ball_moments(n, r2)
            cond = bm.conditional
            assert bm.prob == pytest.approx(prob, rel=1e-9)
            assert cond[0, 0] == pytest.approx(c1, rel=1e-8)
            assert cond[1, 1] == pytest.approx(c2, rel=1e-8)
            assert abs(cond[0, 1]) < 1e-10 * max(c1, c2)

    def test_rotation_equivariance(self):
        theta = 0.7
        rot = np.array(
            [[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]]
        )
        diag = np.diag([3.0, 0.4])
        r2 = 5.0
        bm_diag = ball_moments(diag, r2)
        bm_rot = ball_moments(rot @ diag @ rot.T, r2)
        assert np.allclose(
            rot @ bm_diag.conditional @ rot.T, bm_rot.conditional, rtol=1e-8, atol=1e-12
        )
        assert bm_rot.prob == pytest.approx(bm_diag.prob, rel=1e-10)

    def test_benchmark_bound_matrix(self):
        nbar = np.array([[50.0, 4.0], [4.0, 8.0]])
        r2 = chi_square_quantile(0.05, 2)
        phi = make_config(nbar).phi
        n_z = phi @ (nbar) @ phi.T
        assert np.allclose(n_z, np.eye(2), atol=1e-12)
        # Whitened against its own bound the statistic is exactly chi-square.
        assert ball_moments(n_z, r2).prob == pytest.approx(0.95, abs=1e-9)


class TestBallMomentsIsotropic:
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_chi_square_ratio_identity(self, dim):
        lam, r2 = 1.9, 6.5
        prob, cond = oracles.isotropic_ball_stats(lam, dim, r2)
        n = lam * np.eye(dim)
        bm = ball_moments(n, r2)
        assert bm.prob == pytest.approx(prob, rel=1e-9)
        assert np.allclose(bm.conditional, cond * np.eye(dim), rtol=1e-8)


class TestBallMoments3d:
    def test_against_sampling(self):
        rng = np.random.default_rng(77)
        for trial in range(4):
            n = random_spd(rng, 3, jitter=0.3)
            r2 = float(np.trace(n)) * rng.uniform(0.5, 1.5)
            bm = ball_moments(n, r2)
            prob_mc, _, m2_mc, count = oracles.mc_ball_stats(n, r2, 400_000, rng)
            se = math.sqrt(prob_mc * (1.0 - prob_mc) / 400_000)
            assert abs(bm.prob - prob_mc) < 4.0 * se + 1e-6, trial
            assert np.trace(bm.conditional) == pytest.approx(np.trace(m2_mc), rel=0.02)

    def test_anisotropic_extreme_scales(self):
        n = np.diag([1e-6, 1.0, 1e6])
        r2 = 2e6
        bm = ball_moments(n, r2)
        assert 0.0 < bm.prob < 1.0
        cond = bm.conditional
        assert cond[0, 0] == pytest.approx(1e-6, rel=1e-6)
        assert cond[2, 2] < 1e6


class TestBallMomentsGeneral:
    def test_infinite_radius_recovers_full_gaussian(self):
        rng = np.random.default_rng(5)
        for dim in (1, 2, 3):
            n = random_spd(rng, dim)
            bm = ball_moments(n, math.inf)
            assert bm.prob == 1.0
            assert np.allclose(bm.conditional, n, rtol=1e-9)

    def test_infinite_radius_is_exact_for_p4(self):
        n = random_spd(np.random.default_rng(9), 4)
        bm = ball_moments(n, math.inf)
        assert bm.prob == 1.0
        assert np.array_equal(bm.conditional, n)

    def test_first_moment_vanishes(self):
        """The kernel returns no first moment: a sampled one, which assumes no
        symmetry, sits within 4 standard errors of zero."""
        rng = np.random.default_rng(6)
        for dim in (1, 2, 3):
            n = random_spd(rng, dim)
            _, m1, m2, count = oracles.mc_ball_stats(n, float(np.trace(n)), 200_000, rng)
            assert (np.abs(m1) <= 4.0 * np.sqrt(np.diag(m2) / count)).all(), dim

    def test_truncation_shrinks_second_moment(self):
        rng = np.random.default_rng(8)
        for dim in (1, 2, 3):
            n = random_spd(rng, dim)
            cond = ball_moments(n, 0.8 * float(np.trace(n))).conditional
            assert np.trace(cond) < np.trace(n)
            assert np.linalg.eigvalsh(cond)[0] > 0.0

    def test_monotone_in_radius(self):
        n = np.array([[4.0, 1.0], [1.0, 2.0]])
        probs = [ball_moments(n, r2).prob for r2 in (1.0, 3.0, 9.0, 27.0)]
        assert probs == sorted(probs)
        assert probs[-1] < 1.0

    def test_zero_radius_is_the_empty_ball(self):
        """Radius 0 is the closed-form limit of a shrinking ball: prob exactly
        0 and E[zz' | z'z <= r2] exactly 0, for one kernel and for a stack."""
        n = random_spd(np.random.default_rng(12), 3)
        bm = ball_moments(n, 0.0)
        assert bm.prob == 0.0
        assert np.array_equal(bm.conditional, np.zeros((3, 3)))
        stack = ball_moments(np.stack([n, np.eye(3), 1e-9 * n]), 0.0)
        assert np.array_equal(stack.prob, np.zeros(3))
        assert np.array_equal(stack.conditional, np.zeros((3, 3, 3)))

    @pytest.mark.parametrize("radius2", [-1.0, math.nan])
    def test_rejects_negative_or_nan_radius(self, radius2):
        with pytest.raises(ValueError, match="radius2"):
            ball_moments(np.eye(2), radius2)

    def test_rejects_indefinite_kernel(self):
        with pytest.raises(ValueError):
            ball_moments(np.array([[1.0, 3.0], [3.0, 1.0]]), 2.0)

    @pytest.mark.parametrize(
        "moments",
        [
            pytest.param(lambda: ball_moments(1e-12 * np.eye(2), 1e-10), id="1e-12-1e-10"),
            pytest.param(lambda: ball_moments(np.eye(2), 100.0), id="1.0-100.0"),
            pytest.param(
                lambda: EventTriggeredFilter(
                    tracking_preset(), make_config(CASE_BOUNDS["case1"])
                ).init(np.zeros(2)),
                id="prior_cache-case1",
            ),
        ],
    )
    def test_inconsistent_quadrature_raises_at_any_scale(self, monkeypatch, moments):
        """The trace guard is relative: second moments half again the
        untruncated ones must trip it on a tiny kernel as well as on a unit
        one, and on the filter's own path."""
        exact = numerics._contour_moments

        def inflated(lam, r2):
            return exact(lam, r2)[0], 1.5 * lam

        monkeypatch.setattr(numerics, "_contour_moments", inflated)
        with pytest.raises(RuntimeError, match="untruncated trace"):
            moments()

    def test_four_output_filter_matches_isotropic_oracle(self):
        """A p = 4 model whose whitened innovation kernel is isotropic: the
        silence probability and the silent-branch correction of the filter
        equal the chi-square oracle, with no warning."""
        rng = np.random.default_rng(10)
        model = LinearGaussianModel(
            A=0.9 * np.eye(4),
            C=np.eye(4),
            Q=random_spd(rng, 4),
            R=random_spd(rng, 4),
            x0_mean=np.zeros(4),
            x0_cov=random_spd(rng, 4),
        )
        lam = 1.9
        # nbar = S / lam makes the whitened kernel lam * I at time 0.
        trig = make_config((model.x0_cov + model.R) / lam, 0.05)
        prob, cond = oracles.isotropic_ball_stats(lam, 4, trig.threshold)
        filt = EventTriggeredFilter(model, trig)
        ys = simulate(model, 5, rng).measurements
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, state = filt.init(ys[0])
            cache = state.cache
            for y in ys[1:]:
                _, state = filt.step(state, y)
        assert cache.prob0 == pytest.approx(prob, rel=1e-9)
        gain = model.x0_cov @ np.linalg.inv(model.x0_cov + model.R)
        k_w = gain @ np.linalg.inv(trig.phi)
        want = cache.P_z + cond * (k_w @ k_w.T)
        assert np.abs(cache.P_silent - want).max() <= 1e-9 * np.abs(want).max()
        assert np.isfinite(state.P).all()


class TestBatchedBallMoments:
    @pytest.mark.parametrize("p", [1, 2, 3, 4, 6])
    def test_rows_equal_single_calls(self, p):
        rng = np.random.default_rng(20 + p)
        r2 = chi_square_quantile(0.05, p)
        stack = []
        for ratio in (1.0, 1e2, 1e6):
            for scale in (0.3, 1.0, 4.0):
                rot, _ = np.linalg.qr(rng.standard_normal((p, p)))
                lam = scale * (np.array([ratio]) if p == 1 else ratio ** (np.arange(p) / (p - 1)))
                n = (rot * lam) @ rot.T
                stack.append(0.5 * (n + n.T))
        stack = np.array(stack)
        batch = ball_moments(stack, r2)
        assert batch.prob.shape == (len(stack),)
        for i, n in enumerate(stack):
            one = ball_moments(n, r2)
            assert batch.prob[i] == one.prob, (i, p)
            assert np.array_equal(batch.conditional[i], one.conditional), (i, p)

    def test_validates_every_row(self):
        good = np.eye(2)
        with pytest.raises(ValueError, match="positive definite"):
            ball_moments(np.array([good, [[1.0, 3.0], [3.0, 1.0]]]), 2.0)
        with pytest.raises(ValueError, match="symmetric"):
            ball_moments(np.array([good, [[1.0, 0.5], [0.0, 1.0]]]), 2.0)
        with pytest.raises(ValueError, match="non-finite"):
            ball_moments(np.array([good, [[math.nan, 0.0], [0.0, 1.0]]]), 2.0)
        # The symmetry bound is relative to the kernel's own entries, not to 1.
        with pytest.raises(ValueError, match="symmetric"):
            ball_moments(np.array([[1e-14, 5e-13], [0.0, 1e-14]]), 1e-13)

    def test_infinite_radius_on_every_row(self):
        stack = np.array([np.eye(3), np.diag([1e-4, 2.0, 9.0])])
        bm = ball_moments(stack, math.inf)
        assert np.array_equal(bm.prob, np.ones(2))
        assert np.array_equal(bm.conditional, stack)


def _quiet(call, *args):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return call(*args)


class TestContourKernel:
    """One fixed contour for every p, checked with warnings as errors against
    oracles that share no code with it, on tiny and stiff kernels."""

    @pytest.mark.parametrize("p", [1, 2, 3, 4, 5, 6])
    def test_isotropic_oracle_over_radius_range(self, p):
        lam = 1.7
        for ratio in 10.0 ** np.arange(-200.0, 3.5, 0.5):
            prob, cond = oracles.isotropic_ball_stats(lam, p, ratio * lam)
            bm = _quiet(ball_moments, lam * np.eye(p), ratio * lam)
            assert bm.prob == pytest.approx(prob, rel=1e-10, abs=1e-310), ratio
            assert np.abs(bm.conditional - cond * np.eye(p)).max() <= 1e-10 * cond, ratio

    @pytest.mark.parametrize("p", [2, 3])
    @pytest.mark.parametrize("ratio", [1.0, 1e2, 1e6, 1e12])
    def test_anisotropic_against_imhof(self, p, ratio):
        lams = ratio ** (np.arange(p) / (p - 1) - 1.0)  # from 1 / ratio up to 1
        for r2 in (0.3, 2.0, 7.8):
            prob, cond = oracles.imhof_ball_stats(list(lams), r2)
            bm = _quiet(ball_moments, np.diag(lams), r2)
            assert bm.prob == pytest.approx(prob, rel=1e-10), r2
            assert np.diag(bm.conditional) == pytest.approx(cond, rel=1e-10), r2

    def test_imhof_oracle_raises_where_quadrature_fails(self):
        """Where an eigenvalue far exceeds x the real-axis integral does not
        converge; the oracle must raise rather than return about 0.5 + p."""
        prob = oracles.axisymmetric_ball_stats(1.0, 1e-12, 1e-9)[0]
        assert prob == pytest.approx(2.5206e-5, rel=1e-4)
        with pytest.raises(RuntimeError, match="did not converge"):
            oracles.imhof_cdf([1.0, 1e-12, 1e-12], [1, 1, 1], 1e-9)

    def test_stiff_p2_kernel_against_bessel_oracle(self):
        """Eigenvalue ratio 1e12 with the ball set by the small eigenvalue."""
        n, r2 = np.diag([1.0, 1e12]), 5.0
        prob, c1, c2 = oracles.ball_stats_2d(1.0, 1e12, r2)
        bm = _quiet(ball_moments, n, r2)
        assert bm.prob == pytest.approx(prob, rel=1e-10)
        assert np.diag(bm.conditional) == pytest.approx([c1, c2], rel=1e-10)

    @pytest.mark.parametrize("a, b, r2", [(1e12, 1.0, 0.3), (1e12, 1.0, 5.0), (1.0, 1e12, 5.0)])
    def test_stiff_p3_kernel_against_axisymmetric_oracle(self, a, b, r2):
        """Eigenvalue ratio 1e12: the ball cuts the wide directions hard."""
        n = np.diag([b, a, b])
        prob, cond_a, cond_b = oracles.axisymmetric_ball_stats(a, b, r2)
        bm = _quiet(ball_moments, n, r2)
        assert bm.prob == pytest.approx(prob, rel=1e-10)
        assert np.diag(bm.conditional) == pytest.approx([cond_b, cond_a, cond_b], rel=1e-10)

    @pytest.mark.parametrize("rows", [1, 7, 203])
    def test_tiny_kernel_has_probability_exactly_one(self, rows):
        """A kernel 1e30 times narrower than the ball rounds the real part of
        Phi to 1 at every node, and the probability comes from the same
        per-row dot product as its normaliser, so it is 1 exactly on every
        row of a stack, with no clamp needed."""
        for p in (1, 2, 3, 4, 6):
            prob, _ = numerics._contour_moments(np.full((rows, p), 1e-30), 1.0)
            assert (prob == 1.0).all(), p

    def test_tiny_ball_keeps_conditional_moment(self):
        """On the unit kernel the ball z'z <= 1e-200 has probability
        P(chi2_p <= 1e-200), which underflows to 0 at p = 6, and conditional
        moment I * 1e-200 / (p + 2) to first order, which does not.  The
        moments carry the contour's few-1e-12 error at p = 6."""
        for p, prob, cond, rel in ((2, 0.5e-200, 2.5e-201, 1e-12), (6, 0.0, 1.25e-201, 1e-11)):
            bm = _quiet(ball_moments, np.eye(p), 1e-200)
            assert bm.prob == pytest.approx(prob, rel=1e-12, abs=0.0), p
            assert np.abs(bm.conditional - cond * np.eye(p)).max() <= rel * cond, p


def _per_direction_moments(lam, radius2):
    """The kernel with one complex square root per direction and unturned
    weights: the form ``_contour_moments`` keeps for every p but 2."""
    log_ratio = np.log(lam) + (math.log(2.0) - math.log(radius2))
    log_b = np.minimum(log_ratio, 0.0)
    log_a = log_b - log_ratio
    inv = 1.0 / (np.exp(log_a)[..., None] + np.exp(log_b)[..., None] * numerics._Z)
    terms = np.multiply.reduce(np.sqrt(inv), axis=-2)
    scaled = np.vecdot(terms.view(float), numerics._W_RI)
    prob = scaled / numerics._W_NORM * np.exp(0.5 * np.add.reduce(log_a, axis=-1))
    ratio = np.vecdot((terms[..., None, :] * inv).view(float), numerics._W_RI) / scaled[..., None]
    return prob, np.minimum(lam, 0.5 * radius2) * ratio


class TestPairedRoots:
    """p = 2 takes one square root per node for its pair of directions, with
    the exact phases in the weights; every other p keeps one root per
    direction."""

    @staticmethod
    def _lams(p, seed):
        """Eigenvalues from e^-6 to e^8: random rows, and every direction at
        each end of the range."""
        rng = np.random.default_rng(seed)
        ends = np.array([np.full(p, math.exp(-6.0)), np.full(p, math.exp(8.0))])
        return np.concatenate([np.exp(rng.uniform(-6.0, 8.0, (400, p))), ends])

    @staticmethod
    def _radii(p):
        return [chi_square_quantile(alpha, p) for alpha in (0.5, 0.05, 0.01, 1e-6)]

    def test_paired_form_matches_per_direction_roots(self):
        lam = self._lams(2, 62)
        for r2 in self._radii(2):
            prob, d = numerics._contour_moments(lam, r2)
            want_prob, want_d = _per_direction_moments(lam, r2)
            assert np.abs(prob - want_prob).max() <= 2e-14 * np.abs(want_prob).max(), r2
            assert (np.abs(prob - want_prob) <= 2e-14 * want_prob).all(), r2
            assert (np.abs(d - want_d) <= 2e-14 * want_d).all(), r2

    @pytest.mark.parametrize("p", [1, 3, 4, 5, 6])
    def test_other_p_keep_per_direction_bits(self, p):
        lam = self._lams(p, 70 + p)
        for r2 in self._radii(p):
            got, want = numerics._contour_moments(lam, r2), _per_direction_moments(lam, r2)
            assert np.array_equal(got[0], want[0]), r2
            assert np.array_equal(got[1], want[1]), r2

    def test_turned_weights_are_exact(self):
        """Turning by -1j or -1 only swaps and negates the parts."""
        im, re = numerics._W.imag, numerics._W.real
        turned = [(-re, im), (-im, -re)]
        for got, (a, b) in zip(numerics._W_PAIR, turned, strict=True):
            assert np.array_equal(got, np.column_stack([a, b]).ravel())


class TestEighGufunc:
    """``numerics._eigh`` calls the LAPACK gufunc behind ``np.linalg.eigh``
    directly; it must return the wrapper's very bits, so that a numpy release
    that changes the private gufunc fails here and not in the figures."""

    @staticmethod
    def _stack(rows, p, ratio, seed):
        """(rows, p, p) matrices with eigenvalues spread over ``ratio`` in a
        random frame, and noise in the upper triangle, which eigh never reads."""
        rng = np.random.default_rng(seed)
        frame = np.linalg.qr(rng.normal(size=(rows, p, p)))[0]
        lam = ratio ** rng.uniform(0.0, 1.0, size=(rows, p)) * 10.0 ** rng.uniform(-3, 3, (rows, 1))
        stack = (frame * lam[:, None, :]) @ frame.swapaxes(1, 2)
        upper = np.triu(rng.normal(size=(rows, p, p)), 1)
        return stack + upper * np.abs(stack).max(axis=(1, 2))[:, None, None]

    @pytest.mark.parametrize("rows", [1, 2, 30, 600])
    @pytest.mark.parametrize("p", [1, 2, 3, 4, 5, 6])
    def test_same_bits_as_numpy_eigh(self, rows, p):
        for seed, ratio in enumerate((1.0, 1e3, 1e6, 1e12)):
            stack = self._stack(rows, p, ratio, 1000 * p + rows + seed)
            lam, vec = numerics._eigh(stack)
            want = np.linalg.eigh(stack)
            assert np.array_equal(lam, want.eigenvalues), ratio
            assert np.array_equal(vec, want.eigenvectors), ratio
            assert lam.dtype == vec.dtype == np.float64
            one, want = numerics._eigh(stack[-1]), np.linalg.eigh(stack[-1])  # one (p, p) matrix
            assert all(np.array_equal(a, b) for a, b in zip(one, want, strict=True)), ratio

    @staticmethod
    def _whitening_to(n_z):
        """Constants and a prior stack under which ``_silence`` whitens to the
        (B, p, p) stack ``n_z`` exactly: zero Phi C, and Phi R Phi' = n_z."""
        p = n_z.shape[-1]
        const = _Constants(
            None, make_config(np.eye(p)), np.zeros((p, 1)), np.zeros((1, p)), n_z, None
        )
        return const, np.zeros((len(n_z), 1, 1))

    @pytest.mark.parametrize("p", [1, 2, 3, 4])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_lower_triangle_same_outcome(self, p, bad):
        """A NaN or an infinity in the lower triangle either gives both the
        wrapper and ``_eigh`` the same non-finite rows, which ``_checked``
        rejects as it rejects the filter's N_z, or makes LAPACK fail to
        converge and both raise LinAlgError (24 of these 60 cases, all at
        p >= 3: a NaN in any entry, an infinity in some off-diagonal ones).
        ``_silence`` raises its N_z ValueError either way."""
        base = np.repeat(self._stack(1, p, 1e3, p), 3, axis=0)
        for i, j in zip(*np.tril_indices(p)):
            stack = base.copy()
            stack[1, i, j] = bad
            with pytest.raises(ValueError, match="N_z lost definiteness") as raised:
                _silence(*self._whitening_to(stack))
            try:
                want = np.linalg.eigh(stack)
            except np.linalg.LinAlgError:
                with pytest.raises(np.linalg.LinAlgError, match="did not converge"):
                    numerics._eigh(stack)
                assert isinstance(raised.value.__cause__, np.linalg.LinAlgError), (i, j)
                assert p >= 3, (i, j)
                continue
            assert raised.value.__cause__ is None, (i, j)
            lam, vec = numerics._eigh(stack)
            assert np.array_equal(lam, want.eigenvalues, equal_nan=True), (i, j)
            assert np.array_equal(vec, want.eigenvectors, equal_nan=True), (i, j)
            assert np.array_equal(lam[[0, 2]], lam[[0, 0]]), (i, j)  # other rows untouched
            with pytest.raises(ValueError, match="N_z"):
                _checked(lam)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_silence_rejects_non_finite_prior(self, bad):
        """A non-finite prior covariance reaches the filter's eigensolve as a
        non-finite N_z row and raises ValueError, not a silent probability."""
        const = _constants(tracking_preset(), make_config(CASE_BOUNDS["case1"]))
        cov = np.repeat(np.eye(3)[None], 2, axis=0)
        cov[1, 2, 0] = bad
        with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="N_z"):
            _silence(const, cov)


class TestPsdSqrt:
    def test_reconstructs_singular_matrix(self):
        m = np.array([[4.0, 2.0, 0.0], [2.0, 1.0, 0.0], [0.0, 0.0, 0.0]])
        root = psd_sqrt(m)
        assert np.allclose(root @ root.T, m, atol=1e-12)

    def test_stack_rows_equal_single_calls(self):
        stack = np.array([np.diag([4.0, 0.0]), [[2.0, 1.0], [1.0, 3.0]]])
        roots = psd_sqrt(stack)
        for m, root in zip(stack, roots):
            assert np.array_equal(root, psd_sqrt(m))

    def test_rejects_indefinite(self):
        with pytest.raises(ValueError):
            psd_sqrt(np.array([[1.0, 0.0], [0.0, -0.5]]))
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="non-finite"):
                psd_sqrt(np.array([[bad, 0.0], [0.0, 1.0]]))


def _model_with_q(q):
    return LinearGaussianModel(
        A=np.eye(2), C=np.ones((1, 2)), Q=q, R=np.eye(1), x0_mean=np.zeros(2), x0_cov=np.eye(2)
    )


def _verdict(call, m):
    """None if ``call`` accepts ``m``, else the error message without its figures."""
    try:
        call(m)
    except ValueError as err:
        return str(err).split(" (")[0]
    return None


class TestMatrixValidation:
    """One validator serves every covariance input; its bounds are relative."""

    @pytest.mark.parametrize("scale", [1e-150, 1e150])
    @pytest.mark.parametrize(
        "m, want",
        [
            (np.array([[2.0, 1.0], [1.0, 3.0]]), None),
            (np.array([[2.0, 1.0], [0.5, 3.0]]), "symmetric"),
            (np.array([[1.0, 2.0], [2.0, 1.0]]), "definite"),
            (np.zeros((0, 0)), "must be a non-empty square matrix"),
        ],
        ids=["valid", "asymmetric", "indefinite", "empty"],
    )
    @pytest.mark.parametrize(
        "call",
        [
            pytest.param(make_config, id="make_config"),
            pytest.param(_model_with_q, id="model-Q"),
            pytest.param(
                # An empty m has no largest entry to scale the ball by.
                lambda m: ball_moments(m, 2.0 * np.abs(m).max(initial=0.0) or 1.0),
                id="ball_moments",
            ),
            pytest.param(psd_sqrt, id="psd_sqrt"),
        ],
    )
    def test_verdict_is_unit_free(self, call, m, want, scale):
        verdict = _verdict(call, m)
        assert (verdict is None) if want is None else (want in verdict)
        assert _verdict(call, scale * m) == verdict
        if m.size == 0:
            # The message names the shape the caller passed, not a stack it became.
            with pytest.raises(ValueError, match=r"got shape \(0, 0\)$"):
                call(m)

    def test_symmetric_matrix_near_overflow_is_accepted(self):
        # Symmetrizing by 0.5 * (m + m.T) would overflow to inf here.
        m = np.diag([1e308, 1.0])
        root = psd_sqrt(m)
        assert np.allclose(root @ root.T, m, rtol=1e-15, atol=0.0)
        assert _model_with_q(m).Q is not None
        assert ball_moments(m, 1.0).prob > 0.0
