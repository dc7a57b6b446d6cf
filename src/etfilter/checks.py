"""Built-in oracle suite behind the CLI --check flag.

Each check pits a library code path against an independent reference
implementation from ``_oracles``, the module the test suite uses too
(hand-coded incomplete gamma, textbook Kalman recursion, closed forms,
sampling), so a green run means the installed package reproduces its
numerical contracts on this machine.  Sizes are chosen to finish in about a
minute on one core.
"""

from __future__ import annotations

import math
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import _oracles as oracles
from .estimator import EventTriggeredFilter
from .harness import CASE_BOUNDS, ExperimentConfig, emit_csv, run_monte_carlo
from .model import TRUE_INITIAL_STATE, simulate, tracking_preset
from .numerics import ball_moments, chi_square_quantile, factor_precision, psd_sqrt
from .rate import rate_one_step
from .trigger import make_config

__all__ = ["run_all"]


# -- individual checks ---------------------------------------------------------


def _check_chi_square():
    worst = 0.0
    for alpha, dof in ((0.05, 1), (0.05, 2), (0.01, 3), (0.5, 4)):
        worst = max(worst, abs(chi_square_quantile(alpha, dof) - oracles.chi2_quantile(alpha, dof)))
    tabled = abs(chi_square_quantile(0.05, 2) - 5.991)
    ok = worst < 1e-9 and tabled < 5e-4
    return ok, f"max |quantile - bisection oracle| = {worst:.2e}, |q(0.05,2) - 5.991| = {tabled:.1e}"


def _check_identity_ball():
    r2 = chi_square_quantile(0.05, 2)
    prob = ball_moments(np.eye(2), r2).prob
    closed = 1.0 - math.exp(-0.5 * r2)
    ok = abs(prob - closed) < 1e-9 and abs(prob - 0.95) < 1e-6
    return ok, f"prob = {prob:.9f}, closed form delta = {abs(prob - closed):.2e}"


def _check_factor():
    worst = 0.0
    for nbar in CASE_BOUNDS.values():
        phi = factor_precision(nbar)
        worst = max(worst, float(np.abs(phi.T @ phi @ nbar - np.eye(2)).max()))
    return worst < 1e-10, f"max |phi'phi nbar - I| = {worst:.2e}"


def _check_quadrature_vs_mc():
    rng = np.random.default_rng(321)
    details = []
    ok = True
    for p in (1, 2, 3):
        base = rng.normal(size=(p, p))
        cov = base @ base.T + 0.3 * np.eye(p)
        r2 = 1.5 * float(np.trace(cov))
        bm = ball_moments(cov, r2)
        mc_prob, _, mc_m2, count = oracles.mc_ball_stats(cov, r2, 200_000, rng)
        se = math.sqrt(max(mc_prob * (1 - mc_prob), 1e-12) / 200_000)
        ok &= abs(bm.prob - mc_prob) < 4.0 * se + 1e-4
        if count:
            tr_quad = float(np.trace(bm.conditional))
            tr_mc = float(np.trace(mc_m2))
            ok &= abs(tr_quad - tr_mc) < 0.03 * tr_mc
        details.append(f"p={p} |dprob|={abs(bm.prob - mc_prob):.1e}")
    return bool(ok), ", ".join(details)


def _check_kalman_equivalence():
    rng = np.random.default_rng(99)
    worst = 0.0
    for _ in range(5):
        n = int(rng.integers(1, 4))
        p = int(rng.integers(1, 3))
        model = oracles.random_model(rng, n, p)
        trig = replace(make_config(np.eye(p), 0.05), threshold=0.0)
        filt = EventTriggeredFilter(model, trig)
        steps = 25
        ys = rng.normal(size=(steps, p)) @ psd_sqrt(model.R).T + rng.normal(size=(steps, p))
        run = filt.run(ys)
        ref_x, ref_p = oracles.kalman_filter(model, ys)
        worst = max(
            worst,
            float(np.abs(run.xhat - ref_x).max()),
            float(np.abs(run.P - ref_p).max()),
        )
    return worst < 1e-10, f"max deviation from reference Kalman filter = {worst:.2e}"


def _check_rate_one_step():
    model = tracking_preset()
    trig = make_config(CASE_BOUNDS["case1"], 0.05)
    filt = EventTriggeredFilter(model, trig)
    rng = np.random.default_rng(7)
    traj = simulate(model, 12, rng, x0=np.array(TRUE_INITIAL_STATE))
    _, state = filt.init(traj.measurements[0])
    for k in range(1, 11):
        _, state = filt.step(state, traj.measurements[k])
    # One-step prediction for the next step (cache is measurement independent).
    _, probe = filt.step(state, traj.measurements[11])
    predicted = rate_one_step(probe.cache).gamma_hat

    empirical = oracles.one_step_empirical(
        model, trig.nbar, trig.threshold, state.xhat, state.P, 100_000, rng
    )
    ok = abs(predicted - empirical) < 0.01
    return ok, f"one-step predicted {predicted:.4f} vs sampled {empirical:.4f}"


def _check_determinism():
    cfg = ExperimentConfig(case="case1", trials=16, steps=16, seed=5, rate_trial_index=3)
    a = run_monte_carlo(cfg)
    b = run_monte_carlo(cfg)
    same = (
        np.array_equal(a.rms, b.rms)
        and np.array_equal(a.rate_empirical, b.rate_empirical)
        and np.array_equal(a.rate_alg2, b.rate_alg2)
    )
    with tempfile.TemporaryDirectory() as tmp:
        pa = emit_csv(a, Path(tmp) / "a")
        pb = emit_csv(b, Path(tmp) / "b")
        same &= all(pa[k].read_bytes() == pb[k].read_bytes() for k in pa)
    return bool(same), "repeat run bitwise identical" if same else "repeat run differed"


_CHECKS = [
    ("chi-square quantile vs bisection oracle", _check_chi_square),
    ("identity ball probability vs closed form", _check_identity_ball),
    ("precision factor multiply-back", _check_factor),
    ("ball quadrature vs Monte Carlo", _check_quadrature_vs_mc),
    ("always-send filter vs reference Kalman", _check_kalman_equivalence),
    ("one-step rate vs sampled frequency", _check_rate_one_step),
    ("deterministic rerun and CSV bytes", _check_determinism),
]


def run_all(verbose: bool = True) -> int:
    """Run every check; returns 0 when all pass, 1 otherwise."""
    failures = 0
    for name, fn in _CHECKS:
        try:
            ok, detail = fn()
        except Exception as exc:  # a crashing check is a failing check
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        if not ok:
            failures += 1
        if verbose:
            print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    if verbose and failures:
        print(f"{failures} check(s) failed")
    return 0 if failures == 0 else 1
