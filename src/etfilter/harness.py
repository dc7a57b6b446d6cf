"""Monte Carlo benchmark harness: RMS curves, communication rates, CSV output.

Trials are mutually independent: trial ``i`` gets its own generator derived
from ``SeedSequence([seed, i])``, so any execution order (or process pool)
produces the same per-trial results.  Each fixed-size chunk of consecutive
trials is filtered as one batch through the estimator's batched recursion,
and chunks are combined in chunk order, which makes every reduction bitwise
identical no matter how many workers are used.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np
from numpy.typing import NDArray

from .estimator import EventTriggeredFilter, StepCache
from .model import TRUE_INITIAL_STATE, LinearGaussianModel, simulate, tracking_preset
from .rate import RateState, bootstrap_rates, rate_two_step
from .trigger import make_config

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

# Reference average communication rates for the benchmark cases at 5000 trials:
# (empirical, one-step predicted, two-step predicted).
TABLE1_REFERENCE: dict[str, tuple[float, float, float]] = {
    "case1": (0.3812, 0.3730, 0.3761),
    "case2": (0.5684, 0.5696, 0.5678),
    "case3": (0.2798, 0.2750, 0.2712),
}

# Trials per aggregation chunk; fixed (never derived from the worker count) so
# that floating-point reduction order is reproducible across thread counts.
_CHUNK = 200

_UNSET = object()


@dataclass(frozen=True)
class ExperimentConfig:
    """Benchmark run parameters.

    ``case`` picks a bound from CASE_BOUNDS unless ``nbar`` overrides it with a
    custom SPD matrix.  ``rate_trial_index`` designates the trial whose cache
    feeds the rate predictors (clamped to trials-1).  ``jobs`` only changes how
    chunks are scheduled, never the numbers.
    """

    case: str = "case1"
    trials: int = 5000
    steps: int = 101
    seed: int = 1234
    alpha: float = 0.05
    rate_trial_index: int = 40
    nbar: NDArray | None = None
    jobs: int = 1


@dataclass(frozen=True)
class ExperimentSummary:
    """Aggregated benchmark results.

    rms has one column per state component; the rate arrays hold per-step
    transmission rates (empirical plus both predictors along the designated
    trial) and avg_rates their time averages in the order
    (empirical, one-step, two-step).
    """

    case: str
    trials: int
    steps: int
    seed: int
    rms: NDArray
    rate_empirical: NDArray
    rate_se: NDArray
    rate_alg1: NDArray
    rate_alg2: NDArray
    avg_rates: NDArray


def _chunk_worker(payload):
    """Simulate the chunk's trials, one generator each, then filter them as one batch."""
    (model, trigger, steps, seed, lo, hi, designated, e0, e1, true_x0) = payload
    filt = EventTriggeredFilter(model, trigger)
    rngs = (np.random.default_rng(np.random.SeedSequence([seed, i])) for i in range(lo, hi))
    trajs = [simulate(model, steps - 1, rng, x0=true_x0) for rng in rngs]
    run, caches = filt._run_batch(np.stack([t.measurements for t in trajs]))
    err = run.xhat - np.stack([t.states for t in trajs])
    rates = None
    if lo <= designated < hi:
        row = designated - lo
        alg2 = np.empty(steps)
        alg2[0] = e0
        alg2[1] = e1
        if steps > 2:
            # Step k's two-step prediction reads the cache of step k-1.
            prev = StepCache(
                **{
                    f.name: np.stack([getattr(c, f.name)[row] for c in caches[1:-1]])
                    for f in fields(StepCache)
                }
            )
            alg2[2:] = rate_two_step(
                RateState(prob0_prev=prev.prob0, cache_prev=prev, model=model, trigger=trigger)
            ).gamma_hat
        rates = (1.0 - run.prob0[row], alg2)
    return run.gamma.sum(axis=0), (err * err).sum(axis=0), rates


def _resolve_nbar(config: ExperimentConfig) -> tuple[str, NDArray]:
    if config.nbar is not None:
        return config.case if config.case not in CASE_BOUNDS else "custom", np.asarray(
            config.nbar, dtype=float
        )
    try:
        return config.case, CASE_BOUNDS[config.case]
    except KeyError:
        raise ValueError(
            f"unknown case {config.case!r}; expected one of {sorted(CASE_BOUNDS)} "
            "or a custom nbar"
        ) from None


def run_monte_carlo(
    config: ExperimentConfig,
    model: LinearGaussianModel | None = None,
    true_x0=_UNSET,
) -> ExperimentSummary:
    """Run the benchmark and aggregate RMS error and communication rates.

    With no explicit model the tracking preset is used and every trial starts
    from the benchmark's fixed true initial state (the filter prior stays
    deliberately offset).  A custom model draws its initial state from the
    model prior unless ``true_x0`` pins it.
    """
    if config.steps < 2:
        raise ValueError(f"steps must be at least 2, got {config.steps}")
    if config.trials < 1:
        raise ValueError(f"trials must be positive, got {config.trials}")
    if config.seed < 0:
        raise ValueError(f"seed must be nonnegative, got {config.seed}")
    if config.rate_trial_index < 0:
        raise ValueError(f"rate_trial_index must be nonnegative, got {config.rate_trial_index}")
    if config.jobs < 1:
        raise ValueError(f"jobs must be positive, got {config.jobs}")

    if model is None:
        model = tracking_preset()
        if true_x0 is _UNSET:
            true_x0 = np.array(TRUE_INITIAL_STATE)
    elif true_x0 is _UNSET:
        true_x0 = None

    case_label, nbar = _resolve_nbar(config)
    trigger = make_config(nbar, config.alpha)
    e0, e1 = bootstrap_rates(model, trigger)
    designated = min(config.rate_trial_index, config.trials - 1)

    payloads = [
        (
            model,
            trigger,
            config.steps,
            config.seed,
            lo,
            min(lo + _CHUNK, config.trials),
            designated,
            e0,
            e1,
            true_x0,
        )
        for lo in range(0, config.trials, _CHUNK)
    ]
    if config.jobs > 1:
        with ProcessPoolExecutor(max_workers=config.jobs) as pool:
            results = list(pool.map(_chunk_worker, payloads))
    else:
        results = [_chunk_worker(p) for p in payloads]

    counts = np.zeros(config.steps, dtype=np.int64)
    sq_sum = np.zeros((config.steps, model.n))
    rates = None
    for c, s, r in results:
        counts += c
        sq_sum += s
        if r is not None:
            rates = r
    alg1, alg2 = rates

    empirical = counts / float(config.trials)
    se = np.sqrt(empirical * (1.0 - empirical) / config.trials)
    rms = np.sqrt(sq_sum / config.trials)
    avg = np.array([float(empirical.mean()), float(alg1.mean()), float(alg2.mean())])
    return ExperimentSummary(
        case=case_label,
        trials=config.trials,
        steps=config.steps,
        seed=config.seed,
        rms=rms,
        rate_empirical=empirical,
        rate_se=se,
        rate_alg1=alg1,
        rate_alg2=alg2,
        avg_rates=avg,
    )


def _fmt(value: float) -> str:
    # repr of a Python float is the shortest string that round-trips.
    return repr(float(value))


def _write_csv(path: Path, header: str, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")


def emit_csv(
    summary: ExperimentSummary,
    output_dir,
    which: tuple[str, ...] = ("rms", "rates", "summary"),
) -> dict[str, Path]:
    """Write rms.csv, rates.csv, and summary.csv into ``output_dir``.

    Floats use shortest round-trip formatting; files are UTF-8 with LF line
    endings.  rates.csv carries the empirical binomial standard error as a
    trailing diagnostic column.  ``which`` restricts the set of files written.
    """
    unknown = set(which) - {"rms", "rates", "summary"}
    if unknown:
        raise ValueError(f"unknown csv selector(s): {sorted(unknown)}")
    out = Path(output_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths: dict[str, Path] = {}

    if "rms" in which:
        n_comp = summary.rms.shape[1]
        if n_comp == 3:
            rms_names = ["rms_position", "rms_velocity", "rms_acceleration"]
        else:
            rms_names = [f"rms_state{i}" for i in range(n_comp)]
        paths["rms"] = out / "rms.csv"
        _write_csv(
            paths["rms"],
            ",".join(["k", *rms_names]),
            (
                [str(k), *(_fmt(v) for v in summary.rms[k])]
                for k in range(summary.steps)
            ),
        )

    if "rates" in which:
        paths["rates"] = out / "rates.csv"
        _write_csv(
            paths["rates"],
            "k,empirical,alg1,alg2,empirical_se",
            (
                [
                    str(k),
                    _fmt(summary.rate_empirical[k]),
                    _fmt(summary.rate_alg1[k]),
                    _fmt(summary.rate_alg2[k]),
                    _fmt(summary.rate_se[k]),
                ]
                for k in range(summary.steps)
            ),
        )

    if "summary" in which:
        paths["summary"] = out / "summary.csv"
        _write_csv(
            paths["summary"],
            "case,avg_empirical,avg_alg1,avg_alg2",
            [[summary.case, *(_fmt(v) for v in summary.avg_rates)]],
        )
    return paths


def table1(
    trials: int = 5000,
    seed: int = 1234,
    output_dir=None,
    jobs: int = 1,
    alpha: float = 0.05,
) -> dict[str, ExperimentSummary]:
    """Run all three benchmark cases and print average rates next to the references.

    Returns the per-case summaries.  When ``output_dir`` is given, per-case CSV
    files land in ``<output_dir>/<case>/`` and a combined summary.csv at the
    top level.
    """
    summaries: dict[str, ExperimentSummary] = {}
    rows = []
    for case in sorted(CASE_BOUNDS):
        cfg = ExperimentConfig(case=case, trials=trials, seed=seed, jobs=jobs, alpha=alpha)
        summary = run_monte_carlo(cfg)
        summaries[case] = summary
        ref = TABLE1_REFERENCE[case]
        delta = max(abs(summary.avg_rates[i] - ref[i]) for i in range(3))
        rows.append((case, summary.avg_rates, ref, delta))

    print(
        f"{'case':<8}{'empirical':>11}{'alg1':>9}{'alg2':>9}"
        f"{'ref_emp':>10}{'ref_alg1':>10}{'ref_alg2':>10}{'max|diff|':>11}"
    )
    for case, avg, ref, delta in rows:
        print(
            f"{case:<8}{avg[0]:>11.4f}{avg[1]:>9.4f}{avg[2]:>9.4f}"
            f"{ref[0]:>10.4f}{ref[1]:>10.4f}{ref[2]:>10.4f}{delta:>11.4f}"
        )
    if trials != 5000:
        widened = 0.02 * math.sqrt(5000.0 / max(trials, 1))
        print(
            f"note: references were produced at 5000 trials; at {trials} trials the "
            f"Monte Carlo comparison band widens to roughly +/-{widened:.3f}"
        )

    if output_dir is not None:
        out = Path(output_dir)
        out.mkdir(parents=True, exist_ok=True)
        for case, summary in summaries.items():
            emit_csv(summary, out / case)
        _write_csv(
            out / "summary.csv",
            "case,avg_empirical,avg_alg1,avg_alg2",
            [
                [case, *(_fmt(v) for v in summaries[case].avg_rates)]
                for case in sorted(summaries)
            ],
        )
    return summaries
