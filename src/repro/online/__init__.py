"""Online adaptive tuning: drift detection and live re-tuning of a running tree.

The paper tunes an LSM tree *once* against an uncertainty region around an
expected workload; this subsystem closes the loop at run time:

* :class:`~repro.online.observed.ObservedWorkload` folds the live operation
  stream into a sliding-window empirical workload with exponential decay,
* :class:`~repro.online.drift.DriftDetector` tracks the KL divergence of that
  estimate from the workload the deployed tuning was computed for and fires
  once the stream escapes the tuned-for KL ball,
* :class:`~repro.online.retuner.AdaptiveTuner` re-runs the nominal or robust
  tuner on the observed workload and prices the migration against the
  predicted cost gain,
* :class:`~repro.online.controller.OnlineLSMController` applies an accepted
  re-tuning to the live :class:`~repro.storage.lsm_tree.LSMTree`, charging
  the migration's I/O to the same virtual disk the measurements read.
"""

from .admission import ADMISSION_MODES, StepAdmission
from .config import MIGRATION_MODES, OnlineConfig
from .controller import OnlineLSMController, RetuningEvent
from .drift import DriftCheck, DriftDetector
from .migration import MigrationInvariantError, MigrationPlan, MigrationStep
from .observed import ObservedWorkload
from .retuner import AdaptiveTuner, RetuningDecision

__all__ = [
    "ADMISSION_MODES",
    "AdaptiveTuner",
    "DriftCheck",
    "DriftDetector",
    "MIGRATION_MODES",
    "MigrationInvariantError",
    "MigrationPlan",
    "MigrationStep",
    "ObservedWorkload",
    "OnlineConfig",
    "OnlineLSMController",
    "RetuningDecision",
    "RetuningEvent",
    "StepAdmission",
]
