"""The golden gate of the cost model.

``golden_costs.json`` holds ``(Z0, Z1, Q, W)`` of 882 points as the scalar
twin of Equations 11–16 (the per-term methods ``empty_read_cost`` …
``write_cost``, commit 6d8b5ff) priced them, floats written with ``repr``.
It is the parity reference that replaced that twin: ``cost_points`` — the
one code that evaluates the equations — must reproduce every point to 1e-12
relative, at the depth the scalar path priced it at.

Grid: ``SystemConfig()`` and ``simulator_system(20_000)`` × ``h`` ∈ {0, 5,
a millionth below the budget} × ``T`` ∈ {2, 3, 7.75, 41.5, 100} plus the two
ratios 1e-9 either side of a level cliff × the four named policies, a scalar
fluid, a vector fluid and a fluid without ``Z`` × ``ν`` ∈ {0, 0.3, 1}.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro.lsm import (
    CompactionPolicy,
    LSMCostModel,
    LSMTuning,
    Policy,
    SystemConfig,
    simulator_system,
)

GOLDEN = json.loads((Path(__file__).parent / "golden_costs.json").read_text())

_SYSTEMS = {"default": SystemConfig(), "sim20k": simulator_system(num_entries=20_000)}

_POLICIES = {
    "leveling": CompactionPolicy.of(Policy.LEVELING),
    "tiering": CompactionPolicy.of(Policy.TIERING),
    "lazy-leveling": CompactionPolicy.of(Policy.LAZY_LEVELING),
    "1-leveling": CompactionPolicy.of(Policy.ONE_LEVELING),
    "fluid-scalar": CompactionPolicy.fluid((4.0,), 2.0),
    "fluid-vector": CompactionPolicy.fluid((8.0, 4.0, 2.0, 1.0), 2.0),
    "fluid-no-z": CompactionPolicy(Policy.FLUID, (3.0, 1.0, 5.0), in_place=True),
}

_CELLS = [
    pytest.param(system, nu, id=f"{system}/nu={nu}")
    for system in GOLDEN["systems"]
    for nu in GOLDEN["nu"]
]


def _golden(system: str, nu: float):
    entry = GOLDEN["systems"][system]
    return (
        np.array(entry["T"]),
        np.array(entry["h"]),
        np.array(entry["levels"], dtype=float),
        np.array(entry["costs"][repr(nu)]),
    )


def test_the_file_names_the_policies_in_stack_order():
    assert GOLDEN["policies"] == list(_POLICIES)


@pytest.mark.parametrize("system,nu", _CELLS)
def test_cost_points_reproduce_the_golden_costs(system: str, nu: float):
    ratios, bits, levels, want = _golden(system, nu)
    model = LSMCostModel(_SYSTEMS[system])
    got = model.cost_points(ratios[None], bits[None], tuple(_POLICIES.values()), nu)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)
    # Both systems scan nothing on a short range, so leveling's ν = 0 range
    # cost is one seek per level: the depth the kernel priced each point at.
    depth = model.cost_points(ratios[None], bits[None], (Policy.LEVELING,))[0, :, 2]
    np.testing.assert_array_equal(depth, levels)
    engine = [_SYSTEMS[system].disk_levels(t, h) for t, h in zip(ratios, bits)]
    np.testing.assert_array_equal(engine, levels)


@pytest.mark.parametrize("system,nu", _CELLS)
def test_cost_vector_is_the_one_point_view(system: str, nu: float):
    ratios, bits, _, want = _golden(system, nu)
    model = LSMCostModel(_SYSTEMS[system])
    for p, policy in enumerate(_POLICIES.values()):
        for i, (ratio, bits_per_entry) in enumerate(zip(ratios, bits)):
            got = model.cost_vector(LSMTuning(ratio, bits_per_entry, policy), nu)
            np.testing.assert_allclose(got, want[p, i], rtol=1e-12, atol=0.0)
