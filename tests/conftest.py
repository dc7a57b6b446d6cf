import os
from dataclasses import dataclass

import numpy as np
import pytest

from etfilter.harness import ExperimentConfig, ExperimentSummary, table1
from etfilter.model import LinearGaussianModel, tracking_preset


@dataclass(frozen=True)
class BenchmarkResults:
    """All three benchmark cases at a shared trial count."""

    summaries: dict[str, ExperimentSummary]
    trials: int
    rate_band: float


@pytest.fixture(scope="session")
def benchmark_results(tmp_path_factory) -> BenchmarkResults:
    """Full three-case Monte Carlo run shared by the expensive tests.

    The run is ``table1`` into a temporary directory, the stacked path that
    ``etfilter table1`` runs.  ETFILTER_ACCEPTANCE_TRIALS scales it; below the
    reference 5000 trials the rate comparison band widens from 0.02 to 0.035.
    Up to two worker processes share the run; criterion 9 shows the job count
    never changes the numbers.
    """
    trials = int(os.environ.get("ETFILTER_ACCEPTANCE_TRIALS", "5000"))
    jobs = min(2, os.cpu_count() or 1)
    config = ExperimentConfig(trials=trials, steps=101, seed=1234, jobs=jobs)
    summaries = table1(config, tmp_path_factory.mktemp("table1"))
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
