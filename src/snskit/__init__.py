"""Finite-key rate toolkit for sending-or-not-sending twin-field QKD with AOPP."""

from .budget import SecurityBudget
from .channel import (
    ExperimentalParams,
    ObservedStats,
    SourceParams,
    heralded_rate,
    simulate,
    transmittance,
)
from .decoy import UntaggedBounds, estimate_untagged
from .keyrate import KeyRateReport, evaluate, key_rate, plob_bounds
from .optimizer import (
    OptimizationProblem,
    OptimizeResult,
    RestartRecord,
    ScanPoint,
    optimize,
    scan,
)
from .zigzag import ZigzagResult, run_zigzag

__version__ = "0.1.0"

__all__ = [
    "ExperimentalParams",
    "SourceParams",
    "ObservedStats",
    "UntaggedBounds",
    "ZigzagResult",
    "SecurityBudget",
    "KeyRateReport",
    "OptimizationProblem",
    "OptimizeResult",
    "RestartRecord",
    "ScanPoint",
    "heralded_rate",
    "transmittance",
    "simulate",
    "estimate_untagged",
    "run_zigzag",
    "key_rate",
    "plob_bounds",
    "evaluate",
    "optimize",
    "scan",
    "__version__",
]
