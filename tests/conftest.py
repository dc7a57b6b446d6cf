import os

import numpy as np
import pytest

from etfilter.harness import ExperimentConfig, ExperimentSummary, table1
from etfilter.model import LinearGaussianModel, tracking_preset


@pytest.fixture(scope="session")
def benchmark_results(tmp_path_factory) -> dict[str, ExperimentSummary]:
    """The reference three-case Monte Carlo (5000 trials, seed 1234), by case,
    shared by the expensive tests.

    The run is ``table1`` into a temporary directory, the stacked path that
    ``etfilter table1`` runs.  Up to two worker processes share the run;
    criterion 9 shows the job count never changes the numbers.
    """
    config = ExperimentConfig(trials=5000, steps=101, seed=1234, jobs=min(2, os.cpu_count() or 1))
    return table1(config, tmp_path_factory.mktemp("table1"))


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
