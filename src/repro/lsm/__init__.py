"""Analytical LSM-tree substrate: system parameters, tunings and cost model."""

from .bloom import (
    monkey_bits_per_level,
    monkey_false_positive_rates,
    monkey_false_positive_rates_batch,
    optimal_hash_count,
)
from .cost_model import LSMCostModel
from .policy import (
    ALL_POLICIES,
    CLASSIC_POLICIES,
    DEFAULT_FLUID_K_GRID,
    DEFAULT_FLUID_Z_GRID,
    DEFAULT_LADDER_PEAKS,
    DEFAULT_VECTOR_LEVELS,
    NAMED_POLICIES,
    CompactionPolicy,
    Policy,
    expand_policy_specs,
    fluid_vector_specs,
    halving_ladder,
)
from .system import DEFAULT_SYSTEM, SystemConfig, simulator_system
from .tuning import LSMTuning, round_half_up

__all__ = [
    "ALL_POLICIES",
    "CLASSIC_POLICIES",
    "CompactionPolicy",
    "DEFAULT_FLUID_K_GRID",
    "DEFAULT_FLUID_Z_GRID",
    "DEFAULT_LADDER_PEAKS",
    "DEFAULT_SYSTEM",
    "DEFAULT_VECTOR_LEVELS",
    "LSMCostModel",
    "LSMTuning",
    "NAMED_POLICIES",
    "Policy",
    "SystemConfig",
    "expand_policy_specs",
    "fluid_vector_specs",
    "halving_ladder",
    "monkey_bits_per_level",
    "monkey_false_positive_rates",
    "monkey_false_positive_rates_batch",
    "optimal_hash_count",
    "round_half_up",
    "simulator_system",
]
