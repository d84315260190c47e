"""Tests for the robust tuner (the paper's contribution)."""

import pytest

from repro.core import GridTuner, RobustTuner, UncertaintyRegion
from repro.lsm import LSMCostModel
from repro.workloads import expected_workload


class TestRobustTunerBasics:
    def test_rejects_negative_rho(self, system):
        with pytest.raises(ValueError):
            RobustTuner(rho=-0.5, system=system)

    def test_result_records_rho(self, robust_w11_rho1):
        assert robust_w11_rho1.rho == 1.0

    def test_tuning_respects_bounds(self, system, robust_w11_rho1):
        tuning = robust_w11_rho1.tuning
        assert 2.0 <= tuning.size_ratio <= system.max_size_ratio
        assert 0.0 <= tuning.bits_per_entry <= system.max_bits_per_entry

    def test_solver_reports_dual_variables(self, robust_w11_rho1):
        assert "lambda" in robust_w11_rho1.solver_info
        assert "dual_objective" in robust_w11_rho1.solver_info
        assert robust_w11_rho1.solver_info["lambda"] >= 0.0

    def test_objective_is_worst_case_cost(self, system, w11, robust_w11_rho1):
        model = LSMCostModel(system)
        region = UncertaintyRegion(expected=w11, rho=1.0)
        worst = region.worst_case_cost(model.cost_vector(robust_w11_rho1.tuning))
        assert robust_w11_rho1.objective == pytest.approx(worst, rel=1e-6)

    def test_dual_objective_close_to_primal_worst_case(self, robust_w11_rho1):
        """Strong duality at the solution found by SLSQP."""
        dual = robust_w11_rho1.solver_info["dual_objective"]
        assert dual == pytest.approx(robust_w11_rho1.objective, rel=0.05)


class TestRobustVersusNominal:
    def test_zero_rho_matches_nominal_cost(self, system, w11, nominal_w11):
        """With no uncertainty, the robust problem reduces to the nominal one."""
        robust = RobustTuner(rho=0.0, system=system, seed=1).tune(w11)
        model = LSMCostModel(system)
        robust_cost = model.workload_cost(w11, robust.tuning)
        assert robust_cost == pytest.approx(nominal_w11.objective, rel=0.02)

    def test_robust_has_lower_worst_case_than_nominal(
        self, system, w11, nominal_w11, robust_w11_rho1
    ):
        """The whole point of the robust tuning: a better worst case."""
        model = LSMCostModel(system)
        region = UncertaintyRegion(expected=w11, rho=1.0)
        nominal_worst = region.worst_case_cost(model.cost_vector(nominal_w11.tuning))
        robust_worst = region.worst_case_cost(model.cost_vector(robust_w11_rho1.tuning))
        assert robust_worst <= nominal_worst + 1e-9

    def test_robust_pays_little_on_expected_workload(
        self, system, w11, nominal_w11, robust_w11_rho1
    ):
        """On the expected workload itself the robust tuning loses only modestly."""
        model = LSMCostModel(system)
        nominal_cost = model.workload_cost(w11, nominal_w11.tuning)
        robust_cost = model.workload_cost(w11, robust_w11_rho1.tuning)
        assert robust_cost <= 4.0 * nominal_cost

    def test_robust_wins_on_shifted_workload(self, system, w11, nominal_w11, robust_w11_rho1):
        """A write-heavy shift hurts the nominal tuning far more than the robust."""
        model = LSMCostModel(system)
        shifted = expected_workload(12).workload  # adds 33% writes
        nominal_cost = model.workload_cost(shifted, nominal_w11.tuning)
        robust_cost = model.workload_cost(shifted, robust_w11_rho1.tuning)
        assert robust_cost < nominal_cost

    def test_matches_robust_grid_search(self, system, w11, robust_w11_rho1):
        grid = GridTuner(system=system, bits_grid_points=13, rho=1.0).tune(w11)
        assert robust_w11_rho1.objective <= grid.objective * 1.03

    def test_size_ratio_shrinks_with_rho_for_w11(self, system, w11):
        """Figure 5: increasing rho anticipates writes and limits the size ratio."""
        ratios = []
        for rho in (0.0, 1.0, 2.0):
            result = RobustTuner(
                rho=rho, system=system, seed=1
            ).tune(w11)
            ratios.append(result.tuning.size_ratio)
        assert ratios[1] < ratios[0]
        assert ratios[2] <= ratios[1] + 1.0

    def test_worst_case_objective_monotone_in_rho(self, system, w7):
        values = []
        for rho in (0.0, 0.5, 1.0, 2.0):
            result = RobustTuner(
                rho=rho, system=system, seed=1
            ).tune(w7)
            values.append(result.objective)
        assert all(b >= a - 1e-6 for a, b in zip(values, values[1:]))

    def test_leveling_chosen_for_w7_under_uncertainty(self, system, w7, robust_w7_rho1):
        """§8.4: leveling is more robust than tiering once uncertainty matters."""
        assert robust_w7_rho1.tuning.policy.value == "leveling"
