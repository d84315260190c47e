"""Properties of the band-by-band search shared by both tuners."""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import NominalTuner, RobustTuner, UncertaintyRegion
from repro.core.bands import LevelBands
from repro.core.base import objective
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

    @pytest.mark.parametrize(
        "rows",
        [np.arange(2.0, 101.0), np.array([2.0, 3.0, 5.0, 8.0, 13.0, 21.0, 34.0, 55.0, 89.0])],
        ids=["every-ratio", "fibonacci"],
    )
    @pytest.mark.parametrize("system", [SystemConfig(), _SMALL], ids=["default", "small"])
    def test_points_have_the_level_count_of_their_band(self, system, rows):
        bands = LevelBands(system, rows)
        levels, pinned = (column[:, None] for column in bands.regions)
        fraction = np.array([0.0, 1e-12, 0.3, 1.0 - 1e-12, 1.0])
        ratios, bits = bands.points(levels, pinned, fraction)
        assert np.isin(ratios, rows).all(), "every point lies on a searched row"
        assert bits.min() >= bands.bits_bounds[0] and bits.max() <= bands.bits_bounds[1]
        counted = system.disk_levels(ratios, bits)
        assert np.array_equal(counted, np.broadcast_to(levels, counted.shape))

    def test_regions_cover_every_level_count_of_the_design_box(self):
        system = SystemConfig()
        bands = LevelBands(system, np.arange(2.0, 101.0))
        levels, _ = bands.regions
        h_lo, h_hi = bands.bits_bounds
        assert levels.min() == system.disk_levels(100.0, h_lo)
        assert levels.max() == system.disk_levels(2.0, h_hi)
        assert np.array_equal(np.unique(levels), np.arange(levels.min(), levels.max() + 1))


class TestDeterminism:
    """The search has nothing to seed: the same inputs print the same bytes."""

    @pytest.mark.parametrize(
        "options",
        [
            {},
            {"policies": ALL_POLICIES},
            {"policies": (Policy.FLUID,), "k_vector_search": True},
            {"ratio_candidates": range(2, 21)},
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
        """The tuning deploys as itself, at the objective the search reports."""
        result = RobustTuner(rho=rho, system=_SMALL).tune(workload)
        tuning = result.tuning
        assert tuning.size_ratio == round(tuning.size_ratio)
        assert tuning.rounded() == tuning
        model = LSMCostModel(_SMALL)
        costs = model.cost_vector(tuning, workload.long_range_fraction)
        if rho > 0:
            repriced = UncertaintyRegion(expected=workload, rho=rho).worst_case_cost(costs)
        else:
            repriced = model.workload_cost(workload, tuning)
        assert result.objective == pytest.approx(repriced, rel=1e-12, abs=0)

    def test_a_subnormal_weight_still_yields_a_tuning(self):
        """The falsifying example that found a NaN in the tilt solve's start."""
        workload = Workload(
            z0=0.9999999999999982, z1=1.7763568394002473e-15, q=0.0, w=1.7800590868057597e-308
        )
        result = RobustTuner(rho=1.0, system=_SMALL).tune(workload)
        assert np.isfinite(result.objective)


class TestZeroWeightGuard:
    """A zero-weight query type never reaches the objective: an infinite
    range cost of a rangeless workload leaves every value as it was.  This
    module runs with RuntimeWarning as an error, so a ``0 · inf`` fails."""

    #: Workload with no range queries but a (vacuous) long-range fraction.
    NO_RANGES = Workload(0.3, 0.3, 0.0, 0.4, long_range_fraction=0.9)

    @pytest.mark.parametrize(
        "rho, bound, coarse",
        [(0.0, np.inf, True), (1.0, np.inf, True), (0.0, None, False)],
        # The band search's stage-1 call at ρ = 0 and ρ = 1; GridTuner's call.
        ids=["nominal", "robust", "grid"],
    )
    def test_objective_ignores_an_infinite_range_column(self, rho, bound, coarse):
        model = LSMCostModel(SystemConfig())
        costs = model.cost_matrix([4.0, 8.0], [3.0, 6.0], Policy.TIERING, 0.5)
        poisoned = costs.copy()
        poisoned[..., 2] = np.inf
        values = objective(poisoned, self.NO_RANGES, rho, bound, coarse)[0]
        assert not np.isnan(values).any() and np.isfinite(values.min())
        assert np.array_equal(values, objective(costs, self.NO_RANGES, rho, bound, coarse)[0])


class TestCanonicalTieBreak:
    """A flat objective has one answer: fewest levels, then smallest ``T``,
    then smallest ``h``.

    With ρ = 2 around the uniform workload the KL ball reaches the vertex of
    the costliest query type, so the robust objective is the largest cost
    component.  Under leveling with three levels that is the range cost — one
    seek per level, exactly 3 — wherever the write cost stays below it: with
    eight 512-byte entries to a page, a plateau in both ``T`` (7 to 9) and
    ``h``.
    """

    def test_smallest_ratio_then_smallest_bits_win_the_plateau(self):
        system = SystemConfig(entry_size_bytes=512)
        model = LSMCostModel(system)
        workload = expected_workload(0).workload
        result = RobustTuner(rho=2.0, system=system).tune(workload)
        assert result.objective == pytest.approx(3.0, rel=1e-9)
        assert result.solver_info["levels"] == 3

        region = UncertaintyRegion(expected=workload, rho=2.0)
        ratios = np.arange(2.0, 21.0)
        bits = np.linspace(0.0, 8.0, 33)
        values = region.worst_case_costs(
            model.cost_matrix(ratios, bits, result.tuning.policy)
        )[0]
        tied = values <= result.objective * (1.0 + 1e-9)
        assert tied.any(axis=1).sum() >= 3 and tied.sum() > 60, "the plateau is wide"
        assert result.tuning.size_ratio <= ratios[tied.any(axis=1)].min()
        assert result.tuning.bits_per_entry <= bits[tied.any(axis=0)].min()
