"""Monte Carlo benchmark harness: RMS curves, communication rates, CSV output.

Trials are mutually independent: trial ``i`` gets its own generator derived
from ``SeedSequence([seed, i])``, so any execution order (or process pool)
produces the same per-trial results.  Each fixed-size chunk of consecutive
trials is simulated once, as one stack, and filtered once, as one stack that
repeats it under each case's whitener, and chunks are combined in chunk
order, which makes every reduction bitwise identical no matter how many
workers are used.  The harness computes and writes CSV files and leaves
stdout to ``etfilter.cli``.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, replace
from functools import cached_property, partial
from pathlib import Path
from typing import NamedTuple

import numpy as np
from numpy.typing import NDArray

from .estimator import EventTriggeredFilter, StepCache
from .model import TRUE_INITIAL_STATE, simulate, tracking_preset
from .rate import _two_step_of_run, rate_two_step  # noqa: F401 (bench/run.py hooks the name here; drop it once the hook moves to _two_step_of_run)
from .trigger import TriggerConfig, make_config

__all__ = [
    "CASE_BOUNDS",
    "TABLE1_REFERENCE",
    "ExperimentConfig",
    "ExperimentSummary",
    "emit_csv",
    "run_monte_carlo",
    "table1",
]

_CASE1 = np.array([[50.0, 4.0], [4.0, 8.0]])

# Tolerable innovation bounds for the three benchmark cases.
CASE_BOUNDS: dict[str, NDArray] = {
    "case1": _CASE1,
    "case2": 0.5 * _CASE1,
    "case3": np.array([[60.0, 10.0], [10.0, 20.0]]),
}

# Reference average communication rates for the benchmark cases at
# _REFERENCE_TRIALS trials: (empirical, one-step predicted, two-step predicted).
TABLE1_REFERENCE: dict[str, tuple[float, float, float]] = {
    "case1": (0.3812, 0.3730, 0.3761),
    "case2": (0.5684, 0.5696, 0.5678),
    "case3": (0.2798, 0.2750, 0.2712),
}
_REFERENCE_TRIALS = 5000

# Trials per aggregation chunk; fixed (never derived from the worker count) so
# that floating-point reduction order is reproducible across thread counts.
_CHUNK = 200

# The trial whose cache feeds the rate predictors (clamped to trials - 1).
_RATE_TRIAL = 40


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything that determines a benchmark run; the defaults are the
    reference Table-1 run.

    Every run is the tracking preset started from TRUE_INITIAL_STATE (the
    filter prior stays deliberately offset) under the trigger bound
    ``CASE_BOUNDS[case]`` at confidence level ``alpha``; the rate predictors
    follow trial 40 (the last trial of a shorter run).  ``jobs`` caps the
    worker processes (at most one per chunk) and never changes the numbers.  A
    non-integer (or bool) count, a non-real (or bool) alpha, a non-string case,
    an out-of-range setting or an unknown case raises ValueError on
    construction, which also stores float(alpha) and derives ``trigger`` once.
    """

    case: str = "case1"
    trials: int = _REFERENCE_TRIALS
    steps: int = 101
    seed: int = 1234
    alpha: float = 0.05
    jobs: int = 1

    def __post_init__(self):
        minima = {"trials": 1, "steps": 2, "seed": 0, "jobs": 1}
        for name, low in minima.items():
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            if value < low:
                raise ValueError(f"{name} must be at least {low}, got {value}")
        if isinstance(self.alpha, bool) or not isinstance(self.alpha, numbers.Real):
            raise ValueError(f"alpha must be a real number, got {self.alpha!r}")
        object.__setattr__(self, "alpha", float(self.alpha))
        if not isinstance(self.case, str):
            raise ValueError(f"case must be a string, got {self.case!r}")
        self.trigger  # derived now, so a bad case or alpha fails on construction

    @cached_property
    def trigger(self) -> TriggerConfig:
        """The trigger of this run's case at its confidence level."""
        try:
            nbar = CASE_BOUNDS[self.case]
        except KeyError:
            raise ValueError(
                f"unknown case {self.case!r}; expected one of {sorted(CASE_BOUNDS)}"
            ) from None
        return make_config(nbar, self.alpha)


class ExperimentSummary(NamedTuple):
    """Aggregated benchmark results of the run ``config``.

    rms has one column per state of the tracking preset (position, velocity,
    acceleration); the rate arrays hold per-step transmission rates
    (empirical plus both predictors along the designated trial) and avg_rates
    their time averages in the order (empirical, one-step, two-step).
    """

    config: ExperimentConfig
    rms: NDArray
    rate_empirical: NDArray
    rate_se: NDArray
    rate_alg1: NDArray
    rate_alg2: NDArray
    avg_rates: NDArray


def _chunk_worker(configs: tuple[ExperimentConfig, ...], lo: int) -> list:
    """Simulate the trials of the chunk starting at ``lo``, one generator each,
    then filter them under every config's trigger as one stack.

    The configs differ in their trigger only, so the trajectories, which do
    not depend on it, are simulated once, and the stack repeats them once per
    config under a trigger that stacks each config's whitener over its rows;
    the threshold, set by alpha and p, is shared.  The rate predictors follow
    each config's designated trial under its own trigger: alg1 is the run's
    own silence probability, and alg2 takes the branch each step took from
    the run and whitens only the untaken one (``rate._two_step_of_run``), K
    rows per config for K + 1 steps.  Returns one (send counts, squared-error
    sums, rates) triple per config.
    """
    model, first = tracking_preset(), configs[0]
    hi = min(lo + _CHUNK, first.trials)
    rngs = [np.random.default_rng(np.random.SeedSequence([first.seed, i])) for i in range(lo, hi)]
    traj = simulate(model, first.steps - 1, rngs, x0=TRUE_INITIAL_STATE)
    b = hi - lo
    phi = np.repeat([config.trigger.phi for config in configs], b, axis=0)
    stacked = EventTriggeredFilter(model, TriggerConfig(phi, first.trigger.threshold))
    run = stacked.run(np.tile(traj.measurements, (len(configs), 1, 1)))
    row = min(_RATE_TRIAL, first.trials - 1) - lo
    out = []
    for i, config in enumerate(configs):
        rows = slice(i * b, (i + 1) * b)
        err = run.xhat[rows] - traj.states
        rates = None
        if 0 <= row < b:
            c = StepCache(*(f[i * b + row] for f in run.cache))
            alg1 = 1.0 - c.prob0
            # Step k's two-step prediction reads the cache of step k-1; at step 0
            # there is no history and both predictors read the prior cache.
            two_step = _two_step_of_run(model, config.trigger, run.gamma[i * b + row], c)
            rates = (alg1, np.concatenate([alg1[:1], two_step]))
        out.append((run.gamma[rows].sum(axis=0), (err * err).sum(axis=0), rates))
    return out


def _run_cases(configs: tuple[ExperimentConfig, ...]) -> list[ExperimentSummary]:
    """Run configs that differ only in their case over shared trajectories,
    and combine each config's chunks in chunk order; one summary per config."""
    chunk = partial(_chunk_worker, configs)
    starts = range(0, configs[0].trials, _CHUNK)
    workers = min(configs[0].jobs, len(starts))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # loaded only by parallel runs

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(chunk, starts))
    else:
        results = [chunk(lo) for lo in starts]
    summaries = []
    for config, per_chunk in zip(configs, zip(*results)):
        counts, sq_sums, rates = zip(*per_chunk)
        alg1, alg2 = next(r for r in rates if r is not None)
        empirical = sum(counts) / float(config.trials)
        se = np.sqrt(empirical * (1.0 - empirical) / config.trials)
        rms = np.sqrt(sum(sq_sums) / config.trials)
        avg = np.array([float(empirical.mean()), float(alg1.mean()), float(alg2.mean())])
        summaries.append(
            ExperimentSummary(
                config=config,
                rms=rms,
                rate_empirical=empirical,
                rate_se=se,
                rate_alg1=alg1,
                rate_alg2=alg2,
                avg_rates=avg,
            )
        )
    return summaries


def run_monte_carlo(config: ExperimentConfig) -> ExperimentSummary:
    """Run the benchmark ``config`` and aggregate RMS error and communication rates."""
    return _run_cases((config,))[0]


_SUMMARY_HEADER = "case,avg_empirical,avg_alg1,avg_alg2"


def _write_csv(path: Path, header: str, labels, rows: NDArray) -> None:
    """One line per label: the label, then its row of the 2-D float array
    ``rows`` in shortest round-trip form (the repr of a Python float)."""
    lines = [header]
    for label, row in zip(labels, rows.tolist(), strict=True):
        lines.append(",".join([str(label), *map(repr, row)]))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def emit_csv(summary: ExperimentSummary, output_dir) -> dict[str, Path]:
    """Write rms.csv, rates.csv, and summary.csv into ``output_dir``.

    Floats use shortest round-trip formatting; files are UTF-8 with LF line
    endings.  rates.csv carries the empirical binomial standard error as a
    trailing diagnostic column.  Returns the path of each file by its stem.
    """
    out = Path(output_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {name: out / f"{name}.csv" for name in ("rms", "rates", "summary")}
    steps = range(summary.config.steps)
    _write_csv(paths["rms"], "k,rms_position,rms_velocity,rms_acceleration", steps, summary.rms)
    rates = (summary.rate_empirical, summary.rate_alg1, summary.rate_alg2, summary.rate_se)
    _write_csv(paths["rates"], "k,empirical,alg1,alg2,empirical_se", steps, np.column_stack(rates))
    _write_csv(paths["summary"], _SUMMARY_HEADER, [summary.config.case], summary.avg_rates[None])
    return paths


def table1(config: ExperimentConfig, output_dir) -> dict[str, ExperimentSummary]:
    """Run all three benchmark cases, write their CSVs and return the summaries.

    Every case runs ``config`` with its ``case`` replaced.  Each chunk's
    trajectories are simulated once and filtered in one stack that holds them
    under each of the three whiteners; each case's summary is the one
    ``run_monte_carlo`` gives it alone, bit for bit.  Per-case CSV files land
    in ``<output_dir>/<case>/`` and a combined summary.csv at the top level.
    Writes nothing to stdout: ``etfilter table1`` reports the summaries next
    to ``TABLE1_REFERENCE``.
    """
    cases = sorted(CASE_BOUNDS)
    configs = tuple(replace(config, case=case) for case in cases)
    summaries = dict(zip(cases, _run_cases(configs)))
    out = Path(output_dir)
    for case, summary in summaries.items():
        emit_csv(summary, out / case)
    rows = np.array([s.avg_rates for s in summaries.values()])
    _write_csv(out / "summary.csv", _SUMMARY_HEADER, summaries, rows)
    return summaries
