"""Workload algebra, the uncertainty benchmark, sessions and query traces."""

from .benchmark import (
    ExpectedWorkload,
    UncertaintyBenchmark,
    WorkloadCategory,
    expected_workload,
    expected_workloads,
    rho_grid,
)
from .sessions import (
    DOMINANT_FRACTION,
    EXPECTED_DIVERGENCE_THRESHOLD,
    Session,
    SessionGenerator,
    SessionSequence,
    SessionType,
)
from .traces import (
    KeySpace,
    Operation,
    OperationType,
    Trace,
    TraceGenerator,
    operation_mix,
)
from .workload import (
    QUERY_NAMES,
    QUERY_TYPES,
    Workload,
    average_workload,
    kl_divergence,
)

__all__ = [
    "DOMINANT_FRACTION",
    "EXPECTED_DIVERGENCE_THRESHOLD",
    "ExpectedWorkload",
    "KeySpace",
    "Operation",
    "OperationType",
    "QUERY_NAMES",
    "QUERY_TYPES",
    "Session",
    "SessionGenerator",
    "SessionSequence",
    "SessionType",
    "Trace",
    "TraceGenerator",
    "UncertaintyBenchmark",
    "Workload",
    "WorkloadCategory",
    "average_workload",
    "expected_workload",
    "expected_workloads",
    "kl_divergence",
    "operation_mix",
    "rho_grid",
]
