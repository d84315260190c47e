"""Reproduction of Endure: robust LSM-tree tuning under workload uncertainty.

The package is organised as:

* :mod:`repro.lsm` — analytical LSM-tree cost model (Monkey-style Bloom
  allocation, the four query-cost equations of the paper).
* :mod:`repro.core` — the nominal and robust tuners (the paper's
  contribution), plus a grid-search baseline.
* :mod:`repro.workloads` — workload algebra, the uncertainty benchmark,
  session sequences and concrete query traces.
* :mod:`repro.storage` — a pure-Python LSM-tree storage engine with I/O
  accounting, standing in for RocksDB in the system-based evaluation.
* :mod:`repro.online` — the online adaptive-tuning subsystem: workload-drift
  detection over the live operation stream and in-place re-tuning of a
  running tree.
* :mod:`repro.analysis` — evaluation metrics and the experiment drivers that
  regenerate every figure and table of the paper, plus the static-vs-adaptive
  drift experiments.
"""

from .core import GridTuner, NominalTuner, RobustTuner, TuningResult, UncertaintyRegion
from .lsm import (
    ALL_POLICIES,
    CLASSIC_POLICIES,
    DEFAULT_SYSTEM,
    CompactionPolicy,
    LSMCostModel,
    LSMTuning,
    Policy,
    SystemConfig,
    simulator_system,
)
from .workloads import (
    UncertaintyBenchmark,
    Workload,
    expected_workload,
    expected_workloads,
    kl_divergence,
    rho_grid,
)

__version__ = "1.0.0"

__all__ = [
    "ALL_POLICIES",
    "CLASSIC_POLICIES",
    "CompactionPolicy",
    "DEFAULT_SYSTEM",
    "GridTuner",
    "LSMCostModel",
    "LSMTuning",
    "NominalTuner",
    "Policy",
    "RobustTuner",
    "SystemConfig",
    "TuningResult",
    "UncertaintyBenchmark",
    "UncertaintyRegion",
    "Workload",
    "__version__",
    "expected_workload",
    "expected_workloads",
    "kl_divergence",
    "rho_grid",
    "simulator_system",
]
