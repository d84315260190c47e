"""Evaluation metrics and the experiment the CLI and the figure rows run."""

from .comparison import (
    Comparison,
    Experiment,
    drift_experiment,
    format_adaptive_comparison,
    format_comparison,
)
from .metrics import delta_throughputs, throughput_range, win_rate
from .model_eval import TuningCatalog, tuning_table

__all__ = [
    "Comparison",
    "Experiment",
    "TuningCatalog",
    "delta_throughputs",
    "drift_experiment",
    "format_adaptive_comparison",
    "format_comparison",
    "throughput_range",
    "tuning_table",
    "win_rate",
]
