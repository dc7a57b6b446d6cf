"""Event-triggered MMSE state estimation for linear Gaussian systems.

A remote estimator receives a sensor measurement only when the normalized
innovation leaves a confidence ellipsoid.  This package implements the exact
MMSE filter for that scheduling rule (silence carries information: the
posterior is a Gaussian conditioned on a truncated region), two predictors for
the expected communication rate, and a Monte Carlo harness that reproduces the
target tracking benchmark.
"""

from .estimator import (
    EstimatorState,
    EventTriggeredFilter,
    FilterRun,
    StepCache,
    StepOutput,
    prior_cache,
)
from .harness import (
    CASE_BOUNDS,
    TABLE1_REFERENCE,
    ExperimentConfig,
    ExperimentSummary,
    emit_csv,
    run_monte_carlo,
    table1,
)
from .model import (
    TRUE_INITIAL_STATE,
    LinearGaussianModel,
    Trajectory,
    simulate,
    tracking_preset,
)
from .numerics import (
    BallMoments,
    ball_moments,
    chi_square_quantile,
)
from .rate import (
    RatePrediction,
    RateState,
    bootstrap_rates,
    rate_one_step,
    rate_two_step,
)
from .trigger import TriggerConfig, decide, make_config

__version__ = "0.1.0"

__all__ = [
    "BallMoments",
    "CASE_BOUNDS",
    "EstimatorState",
    "EventTriggeredFilter",
    "ExperimentConfig",
    "ExperimentSummary",
    "FilterRun",
    "LinearGaussianModel",
    "RatePrediction",
    "RateState",
    "StepCache",
    "StepOutput",
    "TABLE1_REFERENCE",
    "TRUE_INITIAL_STATE",
    "Trajectory",
    "TriggerConfig",
    "__version__",
    "ball_moments",
    "bootstrap_rates",
    "chi_square_quantile",
    "decide",
    "emit_csv",
    "make_config",
    "prior_cache",
    "rate_one_step",
    "rate_two_step",
    "run_monte_carlo",
    "simulate",
    "table1",
    "tracking_preset",
]
