"""Tests for the exhaustive grid-search baseline tuner."""

import numpy as np
import pytest

from repro.core import GridTuner
from repro.lsm import LSMCostModel, Policy, SystemConfig
from repro.workloads import Workload


@pytest.fixture(scope="module")
def coarse_grid(request) -> GridTuner:
    system = SystemConfig()
    return GridTuner(
        system=system,
        size_ratios=np.array([2.0, 5.0, 10.0, 20.0, 50.0]),
        bits_grid_points=9,
    )


class TestGridTuner:
    def test_rejects_degenerate_bits_grid(self):
        with pytest.raises(ValueError):
            GridTuner(bits_grid_points=1)

    def test_reports_evaluation_count(self, coarse_grid, w0):
        result = coarse_grid.tune(w0)
        expected_count = 2 * 5 * 9  # policies x ratios x bits points
        assert result.solver_info["evaluated_configurations"] == expected_count

    def test_objective_matches_cost_model(self, coarse_grid, w0):
        result = coarse_grid.tune(w0)
        model = LSMCostModel(coarse_grid.system)
        assert result.objective == pytest.approx(
            model.workload_cost(w0, result.tuning)
        )

    def test_best_of_grid_is_minimal(self, coarse_grid, w11):
        result = coarse_grid.tune(w11)
        model = LSMCostModel(coarse_grid.system)
        for size_ratio in coarse_grid.size_ratios:
            for bits in coarse_grid.bits_grid:
                for policy in (Policy.LEVELING, Policy.TIERING):
                    from repro.lsm import LSMTuning

                    candidate = LSMTuning(float(size_ratio), float(bits), policy)
                    assert result.objective <= model.workload_cost(w11, candidate) + 1e-12

    def test_write_heavy_prefers_write_friendly_design(self, coarse_grid):
        write_heavy = Workload(0.01, 0.01, 0.01, 0.97)
        result = coarse_grid.tune(write_heavy)
        assert (
            result.tuning.policy is Policy.TIERING or result.tuning.size_ratio <= 5.0
        )

    def test_robust_grid_objective_exceeds_nominal(self, w11):
        system = SystemConfig()
        ratios = np.array([2.0, 5.0, 10.0, 20.0])
        nominal = GridTuner(system=system, size_ratios=ratios, bits_grid_points=7).tune(w11)
        robust = GridTuner(
            system=system, size_ratios=ratios, bits_grid_points=7, rho=1.0
        ).tune(w11)
        assert robust.objective >= nominal.objective
