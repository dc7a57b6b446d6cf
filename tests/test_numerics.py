import math
import warnings

import numpy as np
import pytest

from etfilter import _oracles as oracles
from etfilter import numerics
from etfilter._oracles import random_spd
from etfilter.estimator import EventTriggeredFilter, prior_cache
from etfilter.harness import CASE_BOUNDS
from etfilter.model import LinearGaussianModel, simulate, tracking_preset
from etfilter.numerics import ball_moments, chi_square_quantile, factor_precision, psd_sqrt
from etfilter.trigger import make_config


class TestChiSquareQuantile:
    def test_matches_bisection_oracle(self):
        for alpha in (0.5, 0.1, 0.05, 0.01, 0.001):
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

    def test_round_trip_through_cdf(self):
        for alpha, dof in ((0.05, 2), (0.3, 5)):
            c = chi_square_quantile(alpha, dof)
            assert oracles.chi2_cdf(c, dof) == pytest.approx(1.0 - alpha, abs=1e-12)

    @pytest.mark.parametrize("alpha", [0.0, 1.0, -0.2, 1.5])
    def test_rejects_bad_alpha(self, alpha):
        with pytest.raises(ValueError):
            chi_square_quantile(alpha, 2)

    @pytest.mark.parametrize("dof", [0, -1, 2.5])
    def test_rejects_bad_dof(self, dof):
        with pytest.raises(ValueError):
            chi_square_quantile(0.05, dof)


class TestFactorPrecision:
    def test_multiplies_back_to_precision(self):
        rng = np.random.default_rng(11)
        for dim in (1, 2, 3, 5):
            nbar = random_spd(rng, dim)
            phi = factor_precision(nbar)
            assert np.allclose(phi.T @ phi, np.linalg.inv(nbar), rtol=1e-10, atol=1e-12)
            assert np.allclose(phi @ nbar @ phi.T, np.eye(dim), atol=1e-10)

    def test_upper_triangular(self):
        rng = np.random.default_rng(12)
        phi = factor_precision(random_spd(rng, 3))
        assert np.allclose(phi, np.triu(phi))

    def test_rejects_indefinite(self):
        with pytest.raises(ValueError):
            factor_precision(np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            factor_precision(np.array([[1.0, 0.5], [0.0, 1.0]]))


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
        sigma = np.linalg.inv(nbar)
        phi = factor_precision(nbar)
        n_z = phi @ (nbar) @ phi.T
        assert np.allclose(n_z, np.eye(2), atol=1e-12)
        # Whitened against its own bound the statistic is exactly chi-square.
        assert ball_moments(n_z, r2).prob == pytest.approx(0.95, abs=1e-9)
        del sigma


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

    @pytest.mark.parametrize("radius2", [0.0, -1.0])
    def test_rejects_nonpositive_radius(self, radius2):
        with pytest.raises(ValueError):
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
                lambda: prior_cache(tracking_preset(), make_config(CASE_BOUNDS["case1"])),
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
            cache = prior_cache(model, trig)
            _, state = filt.init(ys[0])
            for y in ys[1:]:
                _, state = filt.step(state, y)
        assert cache.prob0 == pytest.approx(prob, rel=1e-9)
        gain = model.x0_cov @ np.linalg.inv(model.x0_cov + model.R)
        k_w = gain @ trig.phi_inv
        want = cache.P_z + cond * (k_w @ k_w.T)
        assert np.abs(cache.P_silent - want).max() <= 1e-9 * np.abs(want).max()
        assert np.isfinite(state.P).all()


class TestBatchedBallMoments:
    @pytest.mark.parametrize("p", [1, 2, 3])
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
            for got, want in ((batch.prob[i], one.prob), (batch.conditional[i], one.conditional)):
                assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max(), (i, p)

    def test_validates_every_row(self):
        good = np.eye(2)
        with pytest.raises(ValueError, match="positive definite"):
            ball_moments(np.array([good, [[1.0, 3.0], [3.0, 1.0]]]), 2.0)
        with pytest.raises(ValueError, match="symmetric"):
            ball_moments(np.array([good, [[1.0, 0.5], [0.0, 1.0]]]), 2.0)
        with pytest.raises(ValueError, match="non-finite"):
            ball_moments(np.array([good, [[math.nan, 0.0], [0.0, 1.0]]]), 2.0)

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
            bm = _quiet(numerics._ball_full, lam * np.eye(p)[None], ratio * lam)
            assert bm.prob[0] == pytest.approx(prob, rel=1e-10, abs=1e-310), ratio
            assert np.abs(bm.conditional[0] - cond * np.eye(p)).max() <= 1e-10 * cond, ratio

    @pytest.mark.parametrize("p", [2, 3])
    @pytest.mark.parametrize("ratio", [1.0, 1e2, 1e6, 1e12])
    def test_anisotropic_against_imhof(self, p, ratio):
        lams = ratio ** (np.arange(p) / (p - 1) - 1.0)  # from 1 / ratio up to 1
        for r2 in (0.3, 2.0, 7.8):
            prob, cond = oracles.imhof_ball_stats(list(lams), r2)
            bm = _quiet(ball_moments, np.diag(lams), r2)
            assert bm.prob == pytest.approx(prob, rel=1e-10), r2
            assert np.diag(bm.conditional) == pytest.approx(cond, rel=1e-10), r2

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

    def test_tiny_ball_keeps_conditional_moment(self):
        """On the unit kernel the ball z'z <= 1e-200 has probability
        P(chi2_p <= 1e-200), which underflows to 0 at p = 6, and conditional
        moment I * 1e-200 / (p + 2) to first order, which does not.  The
        moments carry the contour's few-1e-12 error at p = 6."""
        for p, prob, cond, rel in ((2, 0.5e-200, 2.5e-201, 1e-12), (6, 0.0, 1.25e-201, 1e-11)):
            bm = _quiet(ball_moments, np.eye(p), 1e-200)
            assert bm.prob == pytest.approx(prob, rel=1e-12, abs=0.0), p
            assert np.abs(bm.conditional - cond * np.eye(p)).max() <= rel * cond, p


class TestPsdSqrt:
    def test_reconstructs_singular_matrix(self):
        m = np.array([[4.0, 2.0, 0.0], [2.0, 1.0, 0.0], [0.0, 0.0, 0.0]])
        root = psd_sqrt(m)
        assert np.allclose(root @ root.T, m, atol=1e-12)

    def test_rejects_indefinite(self):
        with pytest.raises(ValueError):
            psd_sqrt(np.array([[1.0, 0.0], [0.0, -0.5]]))
