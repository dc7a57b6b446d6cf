import os
from dataclasses import dataclass

import numpy as np
import pytest

from etfilter.harness import CASE_BOUNDS, ExperimentConfig, ExperimentSummary, run_monte_carlo
from etfilter.model import LinearGaussianModel, tracking_preset


@dataclass(frozen=True)
class BenchmarkResults:
    """All three benchmark cases at a shared trial count."""

    summaries: dict[str, ExperimentSummary]
    trials: int
    rate_band: float


@pytest.fixture(scope="session")
def benchmark_results() -> BenchmarkResults:
    """Full three-case Monte Carlo run shared by the expensive tests.

    ETFILTER_ACCEPTANCE_TRIALS scales the run; below the reference 5000 trials
    the rate comparison band widens from 0.02 to 0.035.  Up to two worker
    processes share the run; criterion 9 shows the job count never changes
    the numbers.
    """
    trials = int(os.environ.get("ETFILTER_ACCEPTANCE_TRIALS", "5000"))
    jobs = min(2, os.cpu_count() or 1)
    summaries = {
        case: run_monte_carlo(
            ExperimentConfig(case=case, trials=trials, steps=101, seed=1234, jobs=jobs)
        )
        for case in sorted(CASE_BOUNDS)
    }
    return BenchmarkResults(
        summaries=summaries,
        trials=trials,
        rate_band=0.02 if trials >= 5000 else 0.035,
    )


@pytest.fixture
def three_output_model() -> LinearGaussianModel:
    """The tracking dynamics observed in all three state components."""
    preset = tracking_preset()
    return LinearGaussianModel(
        A=preset.A,
        C=np.eye(3),
        Q=preset.Q,
        R=np.diag([60.0, 5.0, 10.0]),
        x0_mean=preset.x0_mean,
        x0_cov=preset.x0_cov,
    )
