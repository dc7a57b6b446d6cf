"""The benchmark's workloads: set-up, generated inputs, one operation each,
and the checks of each operation's outputs against recorded references.

Every workload draws its operations from a fixed pool whose outputs were
recorded in ``expected.json``; the run seed only chooses the order in which
the pool is visited.  ``CALIBRATION`` names the calibration loops of
run.py's ``Clock`` that resemble the workload's hot path.  All calls into
the program go through public entry points, looked up on their module when
an operation starts, so a traced run can wrap them (see spans.py).
"""

from __future__ import annotations

import contextlib
import csv
import io
import time
from pathlib import Path

import numpy as np

import etfilter
from etfilter import cli, rate

STEPS = 101  # time points per trial, as in the paper's Table 1
ALPHA = 0.05

# Tolerances of the output checks.
RATE_DECIMALS = 5e-5  # average rates agree to 4 decimals
REL_TOL = 1e-9  # RMS, final estimates and mean predicted rates


def _rel_mismatch(label: str, got, want, tol: float = REL_TOL) -> list[str]:
    """Max-norm relative comparison; returns a message when it fails."""
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    if got.shape != want.shape:
        return [f"{label}: shape {got.shape} != {want.shape}"]
    scale = max(float(np.abs(want).max(initial=0.0)), 1e-300)
    err = float(np.abs(got - want).max(initial=0.0)) / scale
    return [] if err <= tol else [f"{label}: relative error {err:.3e} > {tol:.0e}"]


class McTable1:
    """``etfilter table1`` through the CLI entry point, CSV emit on.

    One operation is one invocation: the three Table-1 cases at ``TRIALS``
    trials each, 101 steps, alpha 0.05, default jobs.  The rate predictors
    run on one designated trial per case, so they are nearly idle here.
    """

    name = "mc_table1"
    TRIALS = 10
    POOL = tuple(range(1234, 1250))  # table1 --seed values with recorded outputs
    trials_per_op = 3 * TRIALS
    steps_per_op = 3 * TRIALS * STEPS
    per_step_latency = False
    CALIBRATION = ("scalar",)  # p = 2 steps: interpreter overhead on tiny arrays
    ops_per_s = 1.0  # at the first recorded commit; sizes the traced run

    def __init__(self, out_dir: Path):
        self.out_dir = out_dir
        preset = etfilter.tracking_preset()
        for nbar in etfilter.CASE_BOUNDS.values():
            etfilter.bootstrap_rates(preset, etfilter.make_config(nbar, ALPHA))

    def inputs(self, order) -> list:
        return [self.POOL[i] for i in order]

    def key(self, seed) -> str:
        return str(seed)

    def run(self, seed, pause=None):
        argv = ["table1", "--trials", str(self.TRIALS), "--seed", str(seed),
                "--out", str(self.out_dir)]
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        if code != 0:
            raise RuntimeError(f"etfilter {' '.join(argv)} exited with {code}")
        return None, None

    def outputs(self, _result) -> dict:
        """Per-case empirical rates, average rates and RMS curves, read back from the CSVs."""
        with open(self.out_dir / "summary.csv", encoding="utf-8") as fh:
            avg = {row["case"]: [float(row[c]) for c in ("avg_empirical", "avg_alg1", "avg_alg2")]
                   for row in csv.DictReader(fh)}
        out = {}
        for case in sorted(avg):
            with open(self.out_dir / case / "rates.csv", encoding="utf-8") as fh:
                empirical = [float(row["empirical"]) for row in csv.DictReader(fh)]
            with open(self.out_dir / case / "rms.csv", encoding="utf-8") as fh:
                rows = list(csv.reader(fh))[1:]
            rms = [[float(f"{float(v):.12g}") for v in row[1:]] for row in rows]
            out[case] = {"empirical": empirical, "avg": avg[case], "rms": rms}
        return out

    def check(self, got: dict, want: dict) -> list[str]:
        if sorted(got) != sorted(want):
            return [f"cases {sorted(got)} != {sorted(want)}"]
        errors = []
        for case, ref in want.items():
            res = got[case]
            if res["empirical"] != ref["empirical"]:
                errors.append(f"{case}: per-step empirical rates differ")
            diff = max(abs(a - b) for a, b in zip(res["avg"], ref["avg"]))
            if diff >= RATE_DECIMALS:
                errors.append(f"{case}: average rates differ by {diff:.2e}")
            rms, rms_ref = np.asarray(res["rms"]), np.asarray(ref["rms"])
            if rms.shape != rms_ref.shape or not np.all(np.abs(rms - rms_ref) <= REL_TOL * rms_ref):
                errors.append(f"{case}: RMS curve differs beyond {REL_TOL:.0e} relative")
        return errors


class Stream:
    """The online remote-side loop, one measurement at a time.

    Each step calls ``rate_two_step`` for the step about to arrive, then
    ``filter.step``, then ``rate_one_step``: three ball-moment evaluations,
    two of them from the rate layer.  One operation is one 101-step episode
    of pre-simulated measurements; every step, the time-0 one included, is
    timed on its own.  ``pause`` (outside the timed regions) is called after
    every ``BLOCK`` steps.
    """

    POOL_SEED = 20240322
    trials_per_op = 1
    steps_per_op = STEPS
    per_step_latency = True

    def __init__(self, model, nbar):
        self.model = model
        self.trigger = etfilter.make_config(nbar, ALPHA)
        self.filter = etfilter.EventTriggeredFilter(model, self.trigger)
        self.e0, self.e1 = etfilter.bootstrap_rates(model, self.trigger)

    def inputs(self, order) -> list:
        episodes = []
        for i in order:
            rng = np.random.default_rng(np.random.SeedSequence([self.POOL_SEED, self.POOL[i]]))
            traj = etfilter.simulate(self.model, STEPS - 1, rng, x0=etfilter.TRUE_INITIAL_STATE)
            episodes.append((self.POOL[i], traj.measurements))
        return episodes

    def key(self, episode) -> str:
        return str(episode[0])

    def run(self, episode, pause=None):
        _, ys = episode
        filt, model, trig = self.filter, self.model, self.trigger
        two_step, one_step, rate_state = rate.rate_two_step, rate.rate_one_step, rate.RateState
        gamma = np.empty(STEPS, dtype=np.int64)
        alg1 = np.empty(STEPS)
        alg2 = np.empty(STEPS)
        latency = np.empty(STEPS)

        t0 = time.perf_counter()
        gamma[0], state = filt.init(ys[0])
        alg1[0] = one_step(state.cache).gamma_hat
        latency[0] = time.perf_counter() - t0
        alg2[0] = self.e0
        for k in range(1, STEPS):
            if pause is not None and k % self.BLOCK == 0:
                pause()
            t0 = time.perf_counter()
            if k >= 2:
                prediction = two_step(
                    rate_state(
                        prob0_prev=state.cache.prob0,
                        cache_prev=state.cache,
                        model=model,
                        trigger=trig,
                    )
                ).gamma_hat
            else:
                prediction = self.e1
            out, state = filt.step(state, ys[k])
            alg1[k] = one_step(state.cache).gamma_hat
            latency[k] = time.perf_counter() - t0
            alg2[k] = prediction
            gamma[k] = out.gamma
        return (gamma, state.xhat, state.P, alg1.mean(), alg2.mean()), latency

    def outputs(self, result) -> dict:
        gamma, xhat, cov, alg1, alg2 = result
        return {
            "gamma": "".join(str(int(g)) for g in gamma),
            "xhat": [float(v) for v in xhat],
            "P": [float(v) for v in cov[np.triu_indices(cov.shape[0])]],
            "alg1_mean": float(alg1),
            "alg2_mean": float(alg2),
        }

    def check(self, got: dict, want: dict) -> list[str]:
        errors = [] if got["gamma"] == want["gamma"] else ["gamma sequence differs"]
        errors += _rel_mismatch("final xhat", got["xhat"], want["xhat"])
        errors += _rel_mismatch("final P", got["P"], want["P"])
        errors += _rel_mismatch("mean one-step rate", got["alg1_mean"], want["alg1_mean"])
        errors += _rel_mismatch("mean two-step rate", got["alg2_mean"], want["alg2_mean"])
        return errors


class StreamRemote(Stream):
    """Case 1 of the tracking benchmark (p = 2, N_z eigenvalue ratio 1.6 to 54)."""

    name = "stream_remote"
    POOL = range(32)  # about eight visits per episode in a 25 s run
    BLOCK = 20
    CALIBRATION = ("scalar",)  # interpreter overhead on 2x2 and 3x3 arrays
    ops_per_s = 9.0

    def __init__(self, _out_dir: Path):
        super().__init__(etfilter.tracking_preset(), etfilter.CASE_BOUNDS["case1"])


class StreamP3Stiff(Stream):
    """Three outputs (C = I, R = diag(60, 5, 10)) under a stiff bound.

    nbar = diag(1e4, 1e-2, 8) gives an N_z eigenvalue ratio of 1e5 to 1.7e5,
    so the p = 3 kernel runs with one more order doubling than case 1.
    """

    name = "stream_p3_stiff"
    POOL = range(10)  # about five visits per episode, 1010 distinct steps
    BLOCK = 4
    CALIBRATION = ("scalar", "grid")  # mostly ufuncs on grids up to 128 x 128
    ops_per_s = 1.25

    def __init__(self, _out_dir: Path):
        preset = etfilter.tracking_preset()
        model = etfilter.LinearGaussianModel(
            A=preset.A,
            C=np.eye(3),
            Q=preset.Q,
            R=np.diag([60.0, 5.0, 10.0]),
            x0_mean=preset.x0_mean,
            x0_cov=preset.x0_cov,
        )
        super().__init__(model, np.diag([1e4, 1e-2, 8.0]))


WORKLOADS = {w.name: w for w in (McTable1, StreamRemote, StreamP3Stiff)}

