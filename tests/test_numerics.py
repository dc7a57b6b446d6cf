import math

import numpy as np
import pytest

from etfilter import _oracles as oracles
from etfilter import numerics
from etfilter._oracles import random_spd
from etfilter.numerics import (
    ball_moments,
    chi_square_quantile,
    factor_precision,
    psd_sqrt,
    truncated_second_moment,
)


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
            assert truncated_second_moment(np.array([[lam]]), r2)[0, 0] == pytest.approx(
                cond_m2, rel=1e-10
            )

    def test_mass_is_prob_times_normalizer(self):
        lam, r2 = 1.7, 4.0
        bm = ball_moments(np.array([[lam]]), r2)
        assert bm.mass == pytest.approx(bm.prob * math.sqrt(2.0 * math.pi * lam), rel=1e-12)


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
            cond = truncated_second_moment(n, r2)
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
        cond_diag = truncated_second_moment(diag, r2)
        cond_rot = truncated_second_moment(rot @ diag @ rot.T, r2)
        assert np.allclose(rot @ cond_diag @ rot.T, cond_rot, rtol=1e-8, atol=1e-12)
        assert ball_moments(rot @ diag @ rot.T, r2).prob == pytest.approx(
            ball_moments(diag, r2).prob, rel=1e-10
        )

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
        got = truncated_second_moment(n, r2)
        assert np.allclose(got, cond * np.eye(dim), rtol=1e-8)


class TestBallMoments3d:
    def test_against_sampling(self):
        rng = np.random.default_rng(77)
        for trial in range(4):
            n = random_spd(rng, 3, jitter=0.3)
            r2 = float(np.trace(n)) * rng.uniform(0.5, 1.5)
            bm = ball_moments(n, r2)
            prob_mc, m2_mc, count = oracles.mc_ball_stats(n, r2, 400_000, rng)
            se = math.sqrt(prob_mc * (1.0 - prob_mc) / 400_000)
            assert abs(bm.prob - prob_mc) < 4.0 * se + 1e-6, trial
            cond = truncated_second_moment(n, r2)
            assert np.trace(cond) == pytest.approx(np.trace(m2_mc), rel=0.02)

    def test_anisotropic_extreme_scales(self):
        n = np.diag([1e-6, 1.0, 1e6])
        r2 = 2e6
        bm = ball_moments(n, r2)
        assert 0.0 < bm.prob < 1.0
        cond = truncated_second_moment(n, r2)
        assert cond[0, 0] == pytest.approx(1e-6, rel=1e-6)
        assert cond[2, 2] < 1e6


class TestBallMomentsGeneral:
    def test_infinite_radius_recovers_full_gaussian(self):
        rng = np.random.default_rng(5)
        for dim in (1, 2, 3):
            n = random_spd(rng, dim)
            bm = ball_moments(n, math.inf)
            assert bm.prob == 1.0
            assert np.allclose(truncated_second_moment(n, math.inf), n, rtol=1e-9)

    def test_infinite_radius_is_exact_on_sampling_path(self):
        # p > 3 takes the QMC path for finite radii; the whole space must not.
        n = random_spd(np.random.default_rng(9), 4)
        bm = ball_moments(n, math.inf)
        assert bm.prob == 1.0
        assert not bm.m1.any()
        assert np.array_equal(truncated_second_moment(n, math.inf), n)

    def test_first_moment_vanishes(self):
        rng = np.random.default_rng(6)
        for dim in (1, 2, 3):
            n = random_spd(rng, dim)
            bm = ball_moments(n, float(np.trace(n)))
            assert np.abs(bm.m1).max() < 1e-12 * bm.mass * math.sqrt(np.trace(n))

    def test_raw_second_moment_consistent_with_conditional(self):
        n = np.array([[2.0, 0.3], [0.3, 1.0]])
        r2 = 3.0
        bm = ball_moments(n, r2)
        cond = truncated_second_moment(n, r2)
        assert np.allclose(bm.m2, cond * bm.mass, rtol=1e-12)

    def test_truncation_shrinks_second_moment(self):
        rng = np.random.default_rng(8)
        for dim in (1, 2, 3):
            n = random_spd(rng, dim)
            cond = truncated_second_moment(n, 0.8 * float(np.trace(n)))
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

    @pytest.mark.parametrize("scale, radius2", [(1e-12, 1e-10), (1.0, 100.0)])
    def test_inconsistent_quadrature_raises_at_any_scale(self, monkeypatch, scale, radius2):
        """The trace guard is relative: second moments inflated by half must
        trip it on a tiny kernel as well as on a unit one."""
        exact = numerics._moments_diag

        def inflated(lam, r2):
            prob, d, m1, err = exact(lam, r2)
            return prob, 1.5 * d, m1, err

        monkeypatch.setattr(numerics, "_moments_diag", inflated)
        with pytest.raises(RuntimeError, match="untruncated trace"):
            truncated_second_moment(scale * np.eye(2), radius2)

    def test_sampling_path_at_finite_radius(self):
        """p > 3 falls back to quasi-Monte Carlo: sampling accuracy, with a
        warning that reports the achieved error."""
        lam, dim, r2 = 1.9, 4, 6.5
        prob, cond = oracles.isotropic_ball_stats(lam, dim, r2)
        with pytest.warns(RuntimeWarning, match="achieved error"):
            bm = ball_moments(lam * np.eye(dim), r2)
        assert bm.prob == pytest.approx(prob, rel=3e-3)
        assert np.allclose(bm.m2 / bm.mass, cond * np.eye(dim), rtol=3e-3, atol=3e-3 * cond)


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
        conditional = truncated_second_moment(stack, r2)
        assert batch.prob.shape == (len(stack),)
        for i, n in enumerate(stack):
            one = ball_moments(n, r2)
            for got, want in (
                (batch.prob[i], one.prob),
                (batch.mass[i], one.mass),
                (batch.m2[i], one.m2),
                (conditional[i], truncated_second_moment(n, r2)),
            ):
                assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max(), (i, p)
            assert np.abs(batch.m1[i] - one.m1).max() <= 1e-12 * one.mass * math.sqrt(np.trace(n))

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
        assert not bm.m1.any()
        assert np.array_equal(truncated_second_moment(stack, math.inf), stack)


class TestPsdSqrt:
    def test_reconstructs_singular_matrix(self):
        m = np.array([[4.0, 2.0, 0.0], [2.0, 1.0, 0.0], [0.0, 0.0, 0.0]])
        root = psd_sqrt(m)
        assert np.allclose(root @ root.T, m, atol=1e-12)

    def test_rejects_indefinite(self):
        with pytest.raises(ValueError):
            psd_sqrt(np.array([[1.0, 0.0], [0.0, -0.5]]))
