"""Endure's contribution: nominal and robust LSM-tree tuners."""

from .grid import GridTuner
from .nominal import NominalTuner
from .results import TuningResult
from .robust import RobustTuner
from .uncertainty import (
    UncertaintyRegion,
    dual_objective,
    kl_conjugate,
)

__all__ = [
    "GridTuner",
    "NominalTuner",
    "RobustTuner",
    "TuningResult",
    "UncertaintyRegion",
    "dual_objective",
    "kl_conjugate",
]
