"""Model-based evaluation (Section 7): the tuning catalog and Table 3.

A :class:`TuningCatalog` holds, for one system and one benchmark set ``B``,
the nominal and robust tunings of the expected workloads and — computed once
per tuning through the analytical cost model — each tuning's throughput
vector ``1 / C(w, Φ)`` over ``B``.  The Figure 4–7 and §8.4 rows of
:mod:`repro.figures` reduce those vectors with the Section 7.1 metrics of
:mod:`repro.analysis.metrics`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np

from ..core.nominal import NominalTuner
from ..core.results import TuningResult
from ..core.robust import RobustTuner
from ..lsm.cost_model import LSMCostModel
from ..lsm.policy import CLASSIC_POLICIES, Policy
from ..lsm.system import SystemConfig
from ..lsm.tuning import LSMTuning
from ..workloads.benchmark import ExpectedWorkload, UncertaintyBenchmark, expected_workloads


@dataclass
class TuningCatalog:
    """Caches nominal and robust tunings, and their throughputs over ``B``.

    Computing a tuning takes a fraction of a second; the model evaluation
    needs hundreds of them (15 workloads × the ρ grid), so they are computed
    lazily and memoised here, and so is each tuning's throughput vector over
    the catalog's ``benchmark`` — the one place the figures reach the model.
    A catalog without a benchmark still serves tunings (Table 3).
    """

    system: SystemConfig = field(default_factory=SystemConfig)
    policies: Sequence[Policy] = CLASSIC_POLICIES
    benchmark: UncertaintyBenchmark | None = None
    _nominal: dict[int, TuningResult] = field(default_factory=dict, init=False)
    _robust: dict[tuple[int, float], TuningResult] = field(default_factory=dict, init=False)
    _throughputs: dict[LSMTuning, np.ndarray] = field(default_factory=dict, init=False)

    @cached_property
    def cost_model(self) -> LSMCostModel:
        """Cost model bound to the catalog's system configuration."""
        return LSMCostModel(self.system)

    def nominal(self, expected: ExpectedWorkload) -> TuningResult:
        """Nominal tuning ``Φ_N`` for one expected workload (cached)."""
        if expected.index not in self._nominal:
            tuner = NominalTuner(system=self.system, policies=self.policies)
            self._nominal[expected.index] = tuner.tune(expected.workload)
        return self._nominal[expected.index]

    def robust(self, expected: ExpectedWorkload, rho: float) -> TuningResult:
        """Robust tuning ``Φ_R`` for one expected workload and ``ρ`` (cached)."""
        key = (expected.index, round(float(rho), 6))
        if key not in self._robust:
            tuner = RobustTuner(rho=float(rho), system=self.system, policies=self.policies)
            self._robust[key] = tuner.tune(expected.workload)
        return self._robust[key]

    def throughputs(
        self, expected: ExpectedWorkload, rho: float | None = None
    ) -> np.ndarray:
        """Read-only ``1 / C(w, Φ)`` for every ``w`` of the benchmark (cached).

        ``Φ`` is the nominal tuning of ``expected`` when ``rho`` is ``None``
        and its robust tuning for ``rho`` otherwise; two entries that resolve
        to the same tuning share one vector.
        """
        if self.benchmark is None:
            raise ValueError("throughputs need a catalog built with a benchmark")
        result = self.nominal(expected) if rho is None else self.robust(expected, rho)
        if result.tuning not in self._throughputs:
            values = self.cost_model.throughputs(self.benchmark, result.tuning)
            values.flags.writeable = False
            self._throughputs[result.tuning] = values
        return self._throughputs[result.tuning]


def tuning_table(catalog: TuningCatalog, rho: float) -> list[dict[str, str | float]]:
    """Nominal vs robust tunings for every expected workload.

    One row per Table 2 workload with both tunings' (policy, T, h); this is
    the configuration information the paper reports atop Figures 8–18.
    """
    rows = []
    for expected in expected_workloads():
        nominal = catalog.nominal(expected)
        robust = catalog.robust(expected, rho)
        rows.append(
            {
                "workload": expected.name,
                "composition": expected.workload.describe(),
                "category": expected.category.value,
                "nominal": nominal.tuning.describe(),
                "robust": robust.tuning.describe(),
                "nominal_cost": nominal.objective,
                "robust_worst_case_cost": robust.objective,
            }
        )
    return rows
