"""Endure's contribution: the LSM-tree tuner, nominal at ρ = 0 and robust above."""

from .base import NominalTuner
from .grid import GridTuner
from .results import TuningResult
from .robust import RobustTuner
from .uncertainty import UncertaintyRegion

__all__ = [
    "GridTuner",
    "NominalTuner",
    "RobustTuner",
    "TuningResult",
    "UncertaintyRegion",
]
