"""Sparse feature selection for linear models and small neural networks,
with the regularization level set automatically from a null quantile."""

from .losses import TaskSpec, loss_value
from .network import Architecture, forward, prune
from .penalty import PenaltySpec, penalty_slope, penalty_value, prox, prox_vector, solve_threshold
from .qut import QutEstimate, compute_qut, depth_scale
from .trainer import FitResult, TrainConfig, fit

__version__ = "0.1.0"

# The prox has one implementation, the numpy kernel in ``penalty``; these
# constants name it for reports that record the environment.
BACKEND = "numpy"
HAS_NUMBA = False

__all__ = [
    "BACKEND",
    "HAS_NUMBA",
    "Architecture",
    "FitResult",
    "PenaltySpec",
    "QutEstimate",
    "TaskSpec",
    "TrainConfig",
    "compute_qut",
    "depth_scale",
    "fit",
    "forward",
    "loss_value",
    "penalty_slope",
    "penalty_value",
    "prox",
    "prox_vector",
    "prune",
    "solve_threshold",
    "__version__",
]
