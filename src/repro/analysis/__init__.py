"""Evaluation metrics and the experiments the CLI and the figure rows run."""

from .comparison import (
    Comparison,
    endurance,
    format_adaptive_comparison,
    format_comparison,
    format_endurance_comparison,
)
from .metrics import delta_throughputs, throughput_range, win_rate
from .model_eval import TuningCatalog, tuning_table
from .online_eval import AdaptiveExperiment, drifting_sequence
from .system_eval import SystemExperiment

__all__ = [
    "AdaptiveExperiment",
    "Comparison",
    "SystemExperiment",
    "TuningCatalog",
    "delta_throughputs",
    "drifting_sequence",
    "endurance",
    "format_adaptive_comparison",
    "format_comparison",
    "format_endurance_comparison",
    "throughput_range",
    "tuning_table",
    "win_rate",
]
