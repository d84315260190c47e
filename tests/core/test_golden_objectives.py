"""The golden gate of the tuner search.

Both files were written from the integer-ratio search at commit 93f4bfe, the
last one at which the tuners could also search a continuous ``T``.

``golden_objectives.json`` holds every cell's objective, re-priced
independently of the tuner.  It is the parity reference that replaced the
scalar twin of the search: a cell whose objective rises above its golden
value is a bug in the search, not a re-pin.

``golden_tunings.json`` holds the tuning the search returned on each cell, as
it deploys (fluid bounds above ``T - 1`` clamped, which the model prices the
same), and its objective: the tuning must match exactly and the objective to
a relative 1e-14.  A speed-up of the search is exact up to the last bits of a
tilt sum; it moves no tuning.

Cells: the 15 Table-2 workloads × ρ ∈ {0, 0.25, 1, 2} × three policy spaces
on the default system, the five ``tune_sweep`` cells of ``bench/`` and its
k-vector cell on the 20k-entry simulator system.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.core import NominalTuner, RobustTuner, UncertaintyRegion
from repro.lsm import (
    ALL_POLICIES,
    CLASSIC_POLICIES,
    LSMCostModel,
    Policy,
    SystemConfig,
    simulator_system,
)
from repro.workloads import expected_workload

GOLDEN: dict[str, float] = json.loads(
    (Path(__file__).parent / "golden_objectives.json").read_text()
)
GOLDEN_TUNINGS: dict[str, dict] = json.loads(
    (Path(__file__).parent / "golden_tunings.json").read_text()
)

_SYSTEMS = {"default": SystemConfig(), "sim20k": simulator_system(num_entries=20_000)}

_SPACES: dict[str, dict] = {
    "classic": {"policies": CLASSIC_POLICIES},
    "all": {"policies": ALL_POLICIES},
    "fluid": {"policies": (Policy.FLUID,)},
    "kvector": {"policies": (Policy.FLUID,), "k_vector_search": True},
}


def _price(model: LSMCostModel, workload, rho: float, tuning) -> float:
    """The cell's objective at ``tuning``, evaluated without the tuner."""
    if rho == 0:
        return float(model.workload_cost(workload, tuning))
    region = UncertaintyRegion(expected=workload, rho=rho)
    return region.worst_case_cost(
        model.cost_vector(tuning, workload.long_range_fraction)
    )


@pytest.mark.parametrize("key", sorted(GOLDEN))
def test_search_is_no_worse_than_the_golden_objective(key: str):
    system_name, space, workload_name, rho_name = key.split("/")
    system = _SYSTEMS[system_name]
    model = LSMCostModel(system)
    workload = expected_workload(int(workload_name[1:])).workload
    rho = float(rho_name[3:])
    if rho == 0:
        tuner = NominalTuner(system=system, **_SPACES[space])
    else:
        tuner = RobustTuner(rho=rho, system=system, **_SPACES[space])
    result = tuner.tune(workload)

    tuning = result.tuning
    assert _price(model, workload, rho, tuning) <= GOLDEN[key] * (1.0 + 1e-6)
    # The winner deploys as itself …
    assert tuning.rounded() == tuning
    # … it sits on the side of its level cliff the search priced it on …
    assert (
        system.disk_levels(tuning.size_ratio, tuning.bits_per_entry)
        == result.solver_info["levels"]
    )
    # … and re-pricing it point by point agrees with the search's batched pass.
    assert result.objective == pytest.approx(
        _price(model, workload, rho, tuning), rel=1e-9
    )
    # … and the search returns the tuning it returned when the tables were made.
    expected = dict(GOLDEN_TUNINGS[key])
    assert result.objective == pytest.approx(expected.pop("objective"), rel=1e-14, abs=0)
    assert tuning.to_dict() == expected
