"""Evaluation metrics and experiment drivers for the paper's figures."""

from .comparison import (
    Comparison,
    endurance,
    format_adaptive_comparison,
    format_comparison,
    format_endurance_comparison,
)
from .metrics import (
    average_delta_throughput,
    delta_throughput,
    delta_throughputs,
    throughput,
    throughput_range,
    throughputs,
    win_rate,
)
from .model_eval import (
    TuningCatalog,
    cost_landscape,
    figure3_kl_histograms,
    figure4_delta_by_category,
    figure5_rho_impact,
    figure6_throughput_histograms,
    figure6_throughput_range,
    figure7_contour,
    kvector_frontier,
    policy_frontier,
    policy_table,
    section84_win_rate,
    tuning_table,
)
from .online_eval import AdaptiveExperiment, drifting_sequence
from .system_eval import SystemExperiment, scaling_experiment

__all__ = [
    "AdaptiveExperiment",
    "Comparison",
    "SystemExperiment",
    "TuningCatalog",
    "average_delta_throughput",
    "cost_landscape",
    "delta_throughput",
    "delta_throughputs",
    "drifting_sequence",
    "endurance",
    "figure3_kl_histograms",
    "figure4_delta_by_category",
    "figure5_rho_impact",
    "figure6_throughput_histograms",
    "figure6_throughput_range",
    "figure7_contour",
    "format_adaptive_comparison",
    "format_comparison",
    "format_endurance_comparison",
    "kvector_frontier",
    "policy_frontier",
    "policy_table",
    "scaling_experiment",
    "section84_win_rate",
    "throughput",
    "throughput_range",
    "throughputs",
    "tuning_table",
    "win_rate",
]
