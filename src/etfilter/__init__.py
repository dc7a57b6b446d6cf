"""Event-triggered MMSE state estimation for linear Gaussian systems.

A remote estimator receives a sensor measurement only when the normalized
innovation leaves a confidence ellipsoid.  This package implements the exact
MMSE filter for that scheduling rule (silence carries information: the
posterior is a Gaussian conditioned on a truncated region), two predictors for
the expected communication rate, and a Monte Carlo harness that reproduces the
target tracking benchmark.

A stack of trials carries a leading axis, and each product within a trial runs
per trial (``np.matvec``, ``np.vecdot``, stacked ``@``), never as one BLAS call
across trials: a trial's floats are the same bits in any stack, command or loop.
"""

from . import estimator, harness, model, numerics, rate, trigger
from .estimator import *
from .harness import *
from .model import *
from .numerics import *
from .rate import *
from .trigger import *

__version__ = "0.1.0"

# Each module's __all__ is the one list of its public names.
__all__ = ["__version__"]
__all__ += estimator.__all__
__all__ += harness.__all__
__all__ += model.__all__
__all__ += numerics.__all__
__all__ += rate.__all__
__all__ += trigger.__all__
