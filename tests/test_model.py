import numpy as np
import pytest

from etfilter.model import (
    TRUE_INITIAL_STATE,
    LinearGaussianModel,
    Trajectory,
    simulate,
    tracking_preset,
)

from oracles import random_model


def _model(n=2, p=1):
    return LinearGaussianModel(
        A=0.8 * np.eye(n),
        C=np.ones((p, n)),
        Q=0.5 * np.eye(n),
        R=np.eye(p),
        x0_mean=np.zeros(n),
        x0_cov=np.eye(n),
    )


class TestModelValidation:
    def test_dimensions_exposed(self):
        m = _model(3, 2)
        assert m.n == 3 and m.p == 2

    def test_rejects_nonsquare_dynamics(self):
        with pytest.raises(ValueError):
            LinearGaussianModel(
                A=np.ones((2, 3)),
                C=np.ones((1, 2)),
                Q=np.eye(2),
                R=np.eye(1),
                x0_mean=np.zeros(2),
                x0_cov=np.eye(2),
            )

    def test_rejects_mismatched_observation_matrix(self):
        with pytest.raises(ValueError):
            LinearGaussianModel(
                A=np.eye(2),
                C=np.ones((1, 3)),
                Q=np.eye(2),
                R=np.eye(1),
                x0_mean=np.zeros(2),
                x0_cov=np.eye(2),
            )

    def test_rejects_wrong_noise_shapes(self):
        with pytest.raises(ValueError):
            LinearGaussianModel(
                A=np.eye(2),
                C=np.ones((1, 2)),
                Q=np.eye(3),
                R=np.eye(1),
                x0_mean=np.zeros(2),
                x0_cov=np.eye(2),
            )
        with pytest.raises(ValueError):
            LinearGaussianModel(
                A=np.eye(2),
                C=np.ones((1, 2)),
                Q=np.eye(2),
                R=np.eye(2),
                x0_mean=np.zeros(2),
                x0_cov=np.eye(2),
            )
        with pytest.raises(ValueError, match="^R must be a non-empty square matrix"):
            LinearGaussianModel(
                A=np.eye(2),
                C=np.zeros((0, 2)),
                Q=np.eye(2),
                R=np.zeros((0, 0)),
                x0_mean=np.zeros(2),
                x0_cov=np.eye(2),
            )

    def test_rejects_indefinite_covariances(self):
        # The roundoff allowance is relative, so a tiny indefinite Q fails too.
        for q in (-np.eye(2), np.diag([1e-12, -1e-11])):
            with pytest.raises(ValueError, match="Q is not positive semidefinite"):
                LinearGaussianModel(
                    A=np.eye(2),
                    C=np.ones((1, 2)),
                    Q=q,
                    R=np.eye(1),
                    x0_mean=np.zeros(2),
                    x0_cov=np.eye(2),
                )

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("field", ["A", "C", "Q", "R", "x0_mean", "x0_cov"])
    def test_rejects_non_finite_entries(self, field, bad):
        fields = dict(
            A=np.eye(2),
            C=np.ones((1, 2)),
            Q=np.eye(2),
            R=np.eye(1),
            x0_mean=np.zeros(2),
            x0_cov=np.eye(2),
        )
        fields[field] = fields[field].copy()
        fields[field].flat[0] = bad
        with pytest.raises(ValueError, match=f"^{field} has non-finite entries"):
            LinearGaussianModel(**fields)

    def test_accepts_singular_covariances(self):
        m = LinearGaussianModel(
            A=np.eye(2),
            C=np.ones((1, 2)),
            Q=np.zeros((2, 2)),
            R=np.zeros((1, 1)),
            x0_mean=np.zeros(2),
            x0_cov=np.diag([1.0, 0.0]),
        )
        assert m.n == 2

    def test_singular_covariance_is_reproduced_by_its_factor(self):
        """The model keeps each covariance's square-root factor, read-only; a
        singular one is reproduced, and its null direction stays exactly zero."""
        cov = np.array([[4.0, 2.0, 0.0], [2.0, 1.0, 0.0], [0.0, 0.0, 0.0]])
        m = LinearGaussianModel(
            A=np.eye(3),
            C=np.ones((1, 3)),
            Q=np.eye(3),
            R=np.eye(1),
            x0_mean=np.zeros(3),
            x0_cov=cov,
        )
        root = m._x0_cov_root
        assert np.allclose(root @ root.T, cov, atol=1e-12)
        assert np.array_equal(root[2], np.zeros(3))
        assert not root.flags.writeable

    def test_rejects_bad_mean_shape(self):
        with pytest.raises(ValueError):
            LinearGaussianModel(
                A=np.eye(2),
                C=np.ones((1, 2)),
                Q=np.eye(2),
                R=np.eye(1),
                x0_mean=np.zeros(3),
                x0_cov=np.eye(2),
            )


class TestModelIdentity:
    def test_compares_and_hashes_by_identity(self):
        m = tracking_preset()
        assert m == m
        assert m != tracking_preset()
        assert hash(m) == hash(m)
        assert len({m, m, tracking_preset()}) == 2

    def test_fields_are_read_only_copies(self):
        """The model owns its arrays: they cannot be written through the
        model, and writing to the caller's arrays leaves the model as built."""
        a = 0.8 * np.eye(2)
        q = 0.5 * np.eye(2)
        m = LinearGaussianModel(
            A=a, C=np.ones((1, 2)), Q=q, R=np.eye(1), x0_mean=np.zeros(2), x0_cov=np.eye(2)
        )
        for name in ("A", "C", "Q", "R", "x0_mean", "x0_cov"):
            with pytest.raises(ValueError):
                getattr(m, name)[0] = 1.0
        a[0, 0] = 1.0
        q[0, 0] = 1.0
        assert m.A[0, 0] == 0.8 and m.Q[0, 0] == 0.5


class TestSimulate:
    def test_shapes(self):
        rng = np.random.default_rng(0)
        traj = simulate(_model(), 10, rng)
        assert traj.states.shape == (11, 2)
        assert traj.measurements.shape == (11, 1)

    def test_deterministic_given_seed(self):
        a = simulate(_model(), 20, np.random.default_rng(42))
        b = simulate(_model(), 20, np.random.default_rng(42))
        assert np.array_equal(a.states, b.states)
        assert np.array_equal(a.measurements, b.measurements)

    def test_initial_state_override(self):
        x0 = np.array([5.0, -3.0])
        traj = simulate(_model(), 5, np.random.default_rng(1), x0=x0)
        assert np.array_equal(traj.states[0], x0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_initial_state(self, bad):
        with pytest.raises(ValueError, match="x0 has non-finite entries"):
            simulate(_model(), 5, np.random.default_rng(1), x0=[bad, 2.0])

    def test_draws_initial_state_from_prior(self):
        model = _model()
        rng = np.random.default_rng(3)
        starts = np.array([simulate(model, 0, np.random.default_rng(s)).states[0] for s in range(400)])
        assert abs(starts.mean(axis=0)).max() < 0.2
        assert np.allclose(np.cov(starts.T), np.eye(2), atol=0.25)
        del rng

    def test_dynamics_and_noise(self):
        model = _model()
        traj = simulate(model, 200, np.random.default_rng(9))
        resid = traj.states[1:] - traj.states[:-1] @ model.A.T
        assert np.allclose(np.cov(resid.T), model.Q, atol=0.2)
        meas_resid = traj.measurements - traj.states @ model.C.T
        assert np.var(meas_resid) == pytest.approx(1.0, abs=0.35)

    def test_noise_free_degenerate_model(self):
        model = LinearGaussianModel(
            A=np.array([[0.5]]),
            C=np.array([[2.0]]),
            Q=np.zeros((1, 1)),
            R=np.zeros((1, 1)),
            x0_mean=np.array([8.0]),
            x0_cov=np.zeros((1, 1)),
        )
        traj = simulate(model, 4, np.random.default_rng(0))
        assert np.allclose(traj.states[:, 0], 8.0 * 0.5 ** np.arange(5))
        assert np.allclose(traj.measurements[:, 0], 2.0 * traj.states[:, 0])


def _root(cov):
    """Reference square-root factor: ``np.linalg.eigh`` with negative roundoff
    eigenvalues clamped to zero."""
    lam, vec = np.linalg.eigh(cov)
    return vec * np.sqrt(np.clip(lam, 0.0, None))


def _one_trial(model, steps, seed, x0):
    """Per-trial reference: measurement noise, process noise, then the initial
    state from one generator, and one matrix-vector product per step."""
    rng = np.random.default_rng(seed)
    meas_noise = rng.standard_normal((steps + 1, model.p)) @ _root(model.R).T
    proc_noise = rng.standard_normal((steps, model.n)) @ _root(model.Q).T
    if x0 is None:
        x0 = model.x0_mean + _root(model.x0_cov) @ rng.standard_normal(model.n)
    states = [x0]
    for k in range(steps):
        states.append(model.A @ states[-1] + proc_noise[k])
    states = np.array(states)
    return states, states @ model.C.T + meas_noise


class TestSimulateStack:
    """A sequence of generators simulates one trial each; every row equals
    that generator's trajectory alone, bit for bit."""

    @pytest.mark.parametrize(
        "p, trials", [(2, 10), (3, 10), (3, 1)], ids=["p2-pinned", "p3-prior", "one-element"]
    )
    def test_rows_equal_single_trajectories(self, p, trials):
        if p == 2:
            model, x0 = tracking_preset(), np.array(TRUE_INITIAL_STATE)
        else:
            model, x0 = random_model(np.random.default_rng(5), 4, 3), None
        seeds = [np.random.SeedSequence([21, i]) for i in range(trials)]
        stack = simulate(model, 40, [np.random.default_rng(s) for s in seeds], x0=x0)
        assert stack.states.shape == (trials, 41, model.n)
        assert stack.measurements.shape == (trials, 41, p)
        for i, seed in enumerate(seeds):
            single = simulate(model, 40, np.random.default_rng(seed), x0=x0)
            want_states, want_measurements = _one_trial(model, 40, seed, x0)
            for traj in (single, Trajectory(stack.states[i], stack.measurements[i])):
                assert np.array_equal(traj.states, want_states)
                assert np.array_equal(traj.measurements, want_measurements)


class TestTrackingPreset:
    def test_structure(self):
        m = tracking_preset()
        assert m.n == 3 and m.p == 2
        assert np.array_equal(m.A, np.array([[1.0, 1.0, 1.0], [0.0, 1.0, 1.0], [0.0, 0.0, 1.0]]))
        assert np.array_equal(m.C, np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]))
        assert np.array_equal(m.R, np.diag([60.0, 10.0]))
        assert np.array_equal(m.x0_mean, np.array([3500.0, 40.0, 0.0]))

    def test_prior_covariance(self):
        m = tracking_preset()
        want = np.array([[3600.0, 3600.0, 0.0], [3600.0, 7200.0, 0.0], [0.0, 0.0, 0.0]])
        assert np.array_equal(m.x0_cov, want)
        eigs = np.linalg.eigvalsh(m.x0_cov)
        assert eigs[0] >= -1e-9 and eigs[0] < 1e-9

    def test_process_noise_scaling(self):
        m = tracking_preset()
        two_a_sig = 2.0 * 2.0 * 0.5
        want = two_a_sig * np.array(
            [
                [1.0 / 20.0, 1.0 / 8.0, 1.0 / 6.0],
                [1.0 / 8.0, 1.0 / 3.0, 1.0 / 2.0],
                [1.0 / 6.0, 1.0 / 2.0, 1.0],
            ]
        )
        assert np.allclose(m.Q, want, rtol=1e-12)

    def test_true_initial_state_constant(self):
        assert np.array_equal(TRUE_INITIAL_STATE, np.array([3410.0, 30.0, 0.0]))
        with pytest.raises(ValueError):
            TRUE_INITIAL_STATE[0] = 0.0
