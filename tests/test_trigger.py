import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from etfilter.trigger import TriggerConfig, decide, make_config

import oracles
from oracles import random_spd

CASE1 = np.array([[50.0, 4.0], [4.0, 8.0]])


class TestMakeConfig:
    def test_benchmark_bound(self):
        cfg = make_config(CASE1, 0.05)
        assert cfg.p == 2
        assert cfg.threshold == pytest.approx(oracles.chi2_quantile(0.05, 2), rel=1e-12)
        assert np.allclose(cfg.phi.T @ cfg.phi, np.linalg.inv(CASE1), rtol=1e-12)

    def test_dimension_follows_the_whitener(self):
        cfg = replace(make_config(np.eye(2)), phi=np.eye(3))
        assert cfg.p == 3

    def test_nested_list_whitener_is_stored_as_an_array(self):
        base = make_config(CASE1, 0.05)
        nested = replace(base, phi=[[1.0, 0.0], [0.0, 1.0]])
        identity = replace(base, phi=np.eye(2))
        assert nested.p == 2
        ys = np.array([[0.5, 0.2], [3.0, 0.0], [0.0, -2.5]])
        assert np.array_equal(decide(nested, ys), decide(identity, ys))
        assert decide(nested, ys[1]) == decide(identity, ys[1])

    def test_compares_and_hashes_by_identity(self):
        cfg = make_config(CASE1, 0.05)
        assert cfg == cfg
        assert cfg != make_config(CASE1, 0.05)
        assert hash(cfg) == hash(cfg)
        assert len({cfg, cfg, make_config(CASE1, 0.05)}) == 2

    def test_whitener_is_a_read_only_copy(self):
        phi = np.eye(2)
        cfg = TriggerConfig(phi, 3.0)
        with pytest.raises(ValueError):
            cfg.phi[0, 0] = 2.0
        phi[0, 0] = 2.0
        assert cfg.phi[0, 0] == 1.0

    def test_threshold_scales_with_alpha(self):
        loose = make_config(CASE1, 0.5)
        tight = make_config(CASE1, 0.01)
        assert tight.threshold > loose.threshold

    @pytest.mark.parametrize("alpha", [0.0, 1.0, -0.1, 2.0])
    def test_rejects_bad_alpha(self, alpha):
        with pytest.raises(ValueError):
            make_config(CASE1, alpha)

    @pytest.mark.parametrize("bad", [math.nan, -1.0, True, "4.0", 4j])
    def test_rejects_nan_or_negative_threshold(self, bad):
        """A NaN threshold would read every innovation as silent; the config
        rejects it, a negative one and a bool or non-real one, on ``replace``
        as on construction."""
        with pytest.raises(ValueError, match="threshold"):
            replace(make_config(CASE1, 0.05), threshold=bad)

    def test_threshold_is_stored_as_a_float(self):
        cfg = TriggerConfig(np.eye(2), 4)
        assert type(cfg.threshold) is float and cfg.threshold == 4.0

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_whitener(self, bad):
        """A NaN whitener would read every innovation as silent in ``decide``;
        the config rejects it on ``replace`` as on construction."""
        phi = np.array([[1.0, 0.0], [0.0, bad]])
        with pytest.raises(ValueError, match="phi"):
            replace(make_config(CASE1, 0.05), phi=phi)

    @pytest.mark.parametrize("scale", [1.0, 1e-150, 1e150])
    def test_rejects_singular_whitener(self, scale):
        """A rank-deficient whitener would read a huge innovation along its
        null space as silence; the config rejects it at any scale."""
        with pytest.raises(ValueError, match="phi is singular"):
            replace(make_config(CASE1, 0.05), phi=scale * np.diag([1.0, 0.0]))
        with pytest.raises(ValueError, match="phi is singular"):
            replace(make_config(CASE1, 0.05), phi=scale * np.ones((2, 2)))

    def test_rejects_non_square_whitener(self):
        with pytest.raises(ValueError, match="phi must be a square matrix"):
            replace(make_config(CASE1, 0.05), phi=np.ones((2, 3)))

    def test_rejects_indefinite_bound(self):
        with pytest.raises(ValueError, match="positive definite"):
            make_config(np.array([[1.0, 5.0], [5.0, 1.0]]), 0.05)

    def test_rejects_asymmetric_bound(self):
        with pytest.raises(ValueError, match="symmetric"):
            make_config(np.array([[1.0, 0.2], [0.0, 1.0]]), 0.05)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_bound(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            make_config(np.array([[bad, 0.0], [0.0, 1.0]]), 0.05)

    @pytest.mark.parametrize(
        "bad", [np.zeros((2, 2)), np.full((2, 2), np.nan)], ids=["singular", "nan"]
    )
    def test_rejects_a_stack_with_one_bad_member(self, bad):
        phi = np.stack([np.eye(2), bad, 2.0 * np.eye(2)])
        with pytest.raises(ValueError, match="phi"):
            TriggerConfig(phi, 3.0)

    @pytest.mark.parametrize("shape", [(0, 2, 2), (3, 2, 3), (2, 2, 2, 2)])
    def test_rejects_an_empty_or_non_square_stack(self, shape):
        with pytest.raises(ValueError, match="phi must be a square matrix or a non-empty stack"):
            TriggerConfig(np.ones(shape), 3.0)

    def test_stack_keeps_its_dimension(self):
        cfg = TriggerConfig(np.stack([np.eye(3)] * 4), 3.0)
        assert cfg.p == 3 and cfg.phi.shape == (4, 3, 3)

    def test_rejects_stack_of_bounds(self):
        with pytest.raises(ValueError, match="square matrix"):
            make_config(np.array([CASE1, CASE1]), 0.05)


class TestDecide:
    def test_statistic_matches_quadratic_form(self):
        """The decision flips where y' inv(nbar) y crosses the threshold."""
        rng = np.random.default_rng(2)
        for _ in range(20):
            nbar = random_spd(rng, 2)
            cfg = make_config(nbar, 0.05)
            y = rng.normal(size=2) * 3.0
            want = float(y @ np.linalg.solve(nbar, y))
            assert decide(replace(cfg, threshold=want * (1 + 1e-9)), y) == 0
            assert decide(replace(cfg, threshold=want * (1 - 1e-9)), y) == 1

    def test_send_iff_outside_confidence_region(self):
        cfg = make_config(CASE1, 0.05)
        assert decide(cfg, np.array([0.5, 0.2])) == 0
        assert decide(cfg, np.array([40.0, 15.0])) == 1

    def test_boundary_tie_stays_silent(self):
        cfg = replace(make_config(np.eye(2), 0.05), threshold=4.0)
        # The statistic is exactly 4.0 here: silent at the threshold, sent just above.
        assert decide(cfg, np.array([2.0, 0.0])) == 0
        assert decide(replace(cfg, threshold=np.nextafter(4.0, 0.0)), np.array([2.0, 0.0])) == 1
        assert decide(cfg, np.array([2.0 + 1e-9, 0.0])) == 1

    def test_alpha_controls_silence_frequency(self):
        rng = np.random.default_rng(10)
        nbar = random_spd(rng, 2)
        cfg = make_config(nbar, 0.05)
        root = oracles.sym_sqrt(nbar)
        draws = rng.standard_normal((20_000, 2)) @ root.T
        gammas = np.fromiter(
            (decide(cfg, y) for y in draws), dtype=float, count=len(draws)
        )
        # Innovations distributed exactly at the bound trip the trigger with
        # frequency alpha.
        assert gammas.mean() == pytest.approx(0.05, abs=0.006)

    def test_rejects_wrong_shape(self):
        cfg = make_config(CASE1, 0.05)
        with pytest.raises(ValueError):
            decide(cfg, np.zeros(3))

    @pytest.mark.parametrize(
        "innovation",
        [np.array([np.nan, 0.0]), np.array([[1.0, 2.0], [np.inf, 0.0], [0.5, 0.5]])],
        ids=["nan-1d", "inf-stacked"],
    )
    def test_rejects_non_finite(self, innovation):
        # A corrupt innovation must fail loudly, not compare False and read as silence.
        cfg = make_config(CASE1, 0.05)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="NaN or inf"):
                decide(cfg, innovation)

    def test_statistic_invariant_to_whitener_rotation(self):
        cfg = make_config(CASE1, 0.05)
        theta = 1.1
        rot = np.array(
            [[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]]
        )
        rotated = replace(cfg, phi=rot @ cfg.phi)
        y = np.array([7.0, -2.0])
        want = float(y @ np.linalg.solve(CASE1, y))
        for gamma, scale in ((0, 1 + 1e-9), (1, 1 - 1e-9)):
            assert decide(replace(rotated, threshold=want * scale), y) == gamma
        assert decide(rotated, y) == decide(cfg, y)


class TestStackedDecide:
    def test_each_row_is_judged_by_its_own_whitener(self):
        rng = np.random.default_rng(12)
        configs = [make_config(random_spd(rng, 2), 0.05) for _ in range(6)]
        stacked = TriggerConfig(np.stack([c.phi for c in configs]), configs[0].threshold)
        ys = rng.normal(size=(6, 2)) * 4.0
        want = [decide(c, y) for c, y in zip(configs, ys)]
        assert decide(stacked, ys).tolist() == want
        assert 0 < sum(want) < 6
        # Row 0 sits between its statistics under the first two whiteners, so
        # swapping them flips its decision.
        s0, s1 = (float(np.sum((c.phi @ ys[0]) ** 2)) for c in configs[:2])
        edge = replace(stacked, threshold=0.5 * (s0 + s1))
        swapped = replace(edge, phi=edge.phi[[1, 0, 2, 3, 4, 5]])
        assert decide(edge, ys)[0] == int(s0 > s1)
        assert decide(swapped, ys)[0] == int(s1 > s0)

    @pytest.mark.parametrize("shape", [(2,), (5, 2), (1, 2)])
    def test_rejects_a_stack_of_innovations_of_another_length(self, shape):
        stacked = TriggerConfig(np.stack([np.eye(2)] * 3), 3.0)
        with pytest.raises(ValueError, match=r"trigger stacks 3 whiteners: .* shape \(3, 2\)"):
            decide(stacked, np.zeros(shape))
