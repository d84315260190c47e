"""Properties of the band-by-band search shared by both tuners."""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import NominalTuner, RobustTuner, UncertaintyRegion
from repro.core.bands import LevelBands
from repro.lsm import ALL_POLICIES, LSMCostModel, Policy, SystemConfig, simulator_system
from repro.workloads import Workload, expected_workload

_SMALL = simulator_system(num_entries=20_000)


def _dump(result) -> str:
    return json.dumps(
        [result.tuning.to_dict(), result.objective, result.rho, result.solver_info],
        sort_keys=True,
    )


class TestLevelBands:
    """Every point the geometry hands out lies in the band it names —
    edges included, on both sides of every cliff."""

    @pytest.mark.parametrize("continuous", [True, False])
    @pytest.mark.parametrize("system", [SystemConfig(), _SMALL], ids=["default", "small"])
    def test_points_have_the_level_count_of_their_band(self, system, continuous):
        bands = LevelBands(system, np.arange(2.0, 101.0), continuous)
        levels, low, high = (column[:, None, None] for column in bands.regions)
        pinned = low + np.linspace(0.0, 1.0, 7)[:, None] * (high - low)
        fraction = np.array([0.0, 1e-12, 0.3, 1.0 - 1e-12, 1.0])
        ratios, bits = bands.points(levels, pinned, fraction)
        assert ratios.min() >= 2.0 and ratios.max() <= 100.0
        assert bits.min() >= bands.bits_bounds[0] and bits.max() <= bands.bits_bounds[1]
        counted = np.vectorize(system.num_levels)(ratios, bits)
        assert np.array_equal(counted, np.broadcast_to(levels, counted.shape))

    def test_regions_cover_every_level_count_of_the_design_box(self):
        system = SystemConfig()
        bands = LevelBands(system, np.arange(2.0, 101.0), True)
        levels, _, _ = bands.regions
        h_lo, h_hi = bands.bits_bounds
        assert levels.min() == system.num_levels(100.0, h_lo)
        assert levels.max() == system.num_levels(2.0, h_hi)
        assert np.array_equal(np.diff(levels), np.ones(levels.size - 1))


class TestDeterminism:
    """The search has nothing to seed: the same inputs print the same bytes."""

    @pytest.mark.parametrize(
        "options",
        [
            {},
            {"policies": ALL_POLICIES},
            {"policies": (Policy.FLUID,), "k_vector_search": True},
            {"polish": False},
        ],
    )
    def test_fresh_tuners_and_seeds_agree_byte_for_byte(self, options):
        workload = expected_workload(7).workload
        dumps = {
            _dump(tuner.tune(workload))
            for seed in (0, 0, 7)
            for tuner in (
                NominalTuner(system=_SMALL, seed=seed, **options),
                RobustTuner(rho=0.5, system=_SMALL, seed=seed, **options),
            )
        }
        assert len(dumps) == 2  # one nominal, one robust


@st.composite
def _workloads(draw) -> Workload:
    parts = np.array(
        [draw(st.floats(min_value=0.0, max_value=1.0)) for _ in range(4)]
    )
    if parts.sum() < 1e-3:
        parts = np.ones(4)
    return Workload.from_array(parts / parts.sum())


class TestSearchProperties:
    @given(workload=_workloads(), rho=st.floats(min_value=0.0, max_value=2.0))
    @settings(max_examples=25, deadline=None)
    def test_robust_objective_dominates_the_nominal_cost_of_its_tuning(
        self, workload, rho
    ):
        result = RobustTuner(rho=rho, system=_SMALL).tune(workload)
        nominal_cost = LSMCostModel(_SMALL).workload_cost(workload, result.tuning)
        assert result.objective >= nominal_cost * (1.0 - 1e-9)

    @given(workload=_workloads(), rho=st.floats(min_value=0.0, max_value=2.0))
    @settings(max_examples=25, deadline=None)
    def test_integer_rows_return_an_integer_size_ratio(self, workload, rho):
        result = RobustTuner(rho=rho, system=_SMALL, polish=False).tune(workload)
        assert result.tuning.size_ratio == round(result.tuning.size_ratio)
        assert result.tuning.rounded().size_ratio == result.tuning.size_ratio

    @pytest.mark.parametrize("polish", [False, True], ids=["rows", "bands"])
    def test_a_subnormal_weight_still_yields_a_tuning(self, polish):
        """The falsifying example that found a NaN in the tilt solve's start."""
        workload = Workload(
            z0=0.9999999999999982, z1=1.7763568394002473e-15, q=0.0, w=1.7800590868057597e-308
        )
        result = RobustTuner(rho=1.0, system=_SMALL, polish=polish).tune(workload)
        assert np.isfinite(result.objective)

    def test_continuous_search_is_no_worse_than_the_integer_rows(self):
        for index in range(15):
            workload = expected_workload(index).workload
            rows = NominalTuner(system=_SMALL, polish=False).tune(workload)
            bands = NominalTuner(system=_SMALL).tune(workload)
            assert bands.objective <= rows.objective * (1.0 + 1e-9)


class TestCanonicalTieBreak:
    """A flat objective has one answer: fewest levels, then smallest ``T``,
    then smallest ``h``.

    With ρ = 2 around the uniform workload the KL ball reaches the vertex of
    the costliest query type, so the robust objective is the largest cost
    component.  Under leveling with four levels that is the range cost — one
    seek per level, exactly 4 — wherever the write cost stays below it: a
    plateau in both ``T`` and ``h``.
    """

    def test_smallest_ratio_then_smallest_bits_win_the_plateau(self):
        system = SystemConfig()
        model = LSMCostModel(system)
        workload = expected_workload(0).workload
        result = RobustTuner(rho=2.0, system=system).tune(workload)
        assert result.objective == pytest.approx(4.0, rel=1e-9)
        assert result.solver_info["levels"] == 4

        region = UncertaintyRegion(expected=workload, rho=2.0)
        ratios = np.linspace(2.0, 12.0, 201)
        bits = np.linspace(0.0, 8.0, 33)
        values = region.worst_case_costs(
            model.cost_matrix(ratios, bits, result.tuning.policy)
        )
        tied = values <= result.objective * (1.0 + 1e-9)
        assert tied.sum() > 20, "the plateau is wide"
        assert result.tuning.size_ratio <= ratios[tied.any(axis=1)].min()
        assert result.tuning.bits_per_entry <= bits[tied.any(axis=0)].min()
