"""cloudalloc: discrete owner/user storage-allocation dynamics with
replication placement and exact data-loss analysis."""

__version__ = "0.1.0"

from .model import (
    DIVERGENCE_BOUND,
    DivergenceError,
    ModelParams,
    SystemState,
    iterate,
    step_general,
    step_two_user,
)

__all__ = [
    "DIVERGENCE_BOUND",
    "DivergenceError",
    "ModelParams",
    "SystemState",
    "iterate",
    "step_general",
    "step_two_user",
    "__version__",
]
