"""Tests for the nominal (classical) tuner."""

import pytest

from repro.core import GridTuner, NominalTuner
from repro.lsm import LSMCostModel, Policy
from repro.workloads import expected_workload


class TestNominalTunerBasics:
    def test_returns_result_with_zero_rho(self, nominal_w11):
        assert nominal_w11.rho == 0.0

    def test_tuning_respects_bounds(self, system, nominal_w11):
        tuning = nominal_w11.tuning
        assert 2.0 <= tuning.size_ratio <= system.max_size_ratio
        assert 0.0 <= tuning.bits_per_entry <= system.max_bits_per_entry

    def test_objective_matches_cost_model(self, system, w11, nominal_w11):
        model = LSMCostModel(system)
        assert nominal_w11.objective == pytest.approx(
            model.workload_cost(w11, nominal_w11.tuning), rel=1e-6
        )

    def test_solver_reports_per_policy_objectives(self, nominal_w11):
        per_policy = nominal_w11.solver_info["per_policy_objective"]
        assert set(per_policy) == {"leveling", "tiering"}

    def test_selected_policy_is_the_cheaper_one(self, nominal_w11):
        per_policy = nominal_w11.solver_info["per_policy_objective"]
        best = min(per_policy, key=per_policy.get)
        assert nominal_w11.tuning.policy.value == best

    @pytest.mark.parametrize(
        "ratios", [[], [2.5], [1.0, 2.0], [2.0, 3.0, 7.5], [2.0, float("inf")], [float("nan")]]
    )
    def test_only_integer_ratios_from_two_are_searched(self, system, ratios):
        """A ratio the search could not deploy as itself is refused."""
        with pytest.raises(ValueError, match="ratio_candidates"):
            NominalTuner(system=system, ratio_candidates=ratios)

    def test_restricted_policy_is_honoured(self, system, w7):
        result = NominalTuner(
            system=system, policies=(Policy.LEVELING,)
        ).tune(w7)
        assert result.tuning.policy is Policy.LEVELING


class TestNominalTunerQuality:
    def test_matches_grid_search_for_w11(self, system, w11, nominal_w11):
        """SLSQP should match an exhaustive grid search up to discretisation."""
        grid = GridTuner(system=system, bits_grid_points=17).tune(w11)
        assert nominal_w11.objective <= grid.objective * 1.02

    def test_matches_grid_search_for_write_heavy(self, system):
        workload = expected_workload(4).workload  # 97% writes
        solver = NominalTuner(system=system, seed=2).tune(workload)
        grid = GridTuner(system=system, bits_grid_points=17).tune(workload)
        assert solver.objective <= grid.objective * 1.02

    def test_write_heavy_workload_gets_write_friendly_tuning(self, system):
        workload = expected_workload(4).workload  # 97% writes
        result = NominalTuner(system=system, seed=2).tune(workload)
        model = LSMCostModel(system)
        # Writes dominate, so the chosen design must keep the write cost low:
        # either tiering, or leveling with a small size ratio.
        is_write_friendly = (
            result.tuning.policy is Policy.TIERING or result.tuning.size_ratio <= 6.0
        )
        assert is_write_friendly

    def test_read_heavy_workload_prefers_leveling(self, system):
        workload = expected_workload(5).workload  # 98% point lookups
        result = NominalTuner(system=system, seed=2).tune(workload)
        assert result.tuning.policy is Policy.LEVELING

    def test_range_heavy_workload_gets_shallow_tree(self, system):
        workload = expected_workload(3).workload  # 97% range queries
        result = NominalTuner(system=system, seed=2).tune(workload)
        # Range cost under leveling is the number of levels, so the optimum
        # pushes the size ratio up to flatten the tree.
        assert result.tuning.policy is Policy.LEVELING
        assert result.tuning.size_ratio >= 20.0

    def test_beats_arbitrary_fixed_tunings(self, system, w11, nominal_w11):
        from repro.lsm import LSMTuning

        model = LSMCostModel(system)
        for size_ratio in (2.0, 10.0, 50.0):
            for bits in (1.0, 8.0):
                for policy in (Policy.LEVELING, Policy.TIERING):
                    candidate = LSMTuning(size_ratio, bits, policy)
                    assert nominal_w11.objective <= model.workload_cost(
                        w11, candidate
                    ) + 1e-9

    def test_deterministic_given_seed(self, system, w7):
        first = NominalTuner(system=system, seed=9).tune(w7)
        second = NominalTuner(system=system, seed=9).tune(w7)
        assert first.tuning == second.tuning

    def test_uniform_workload_balanced_tuning(self, system, w0):
        result = NominalTuner(system=system, seed=2).tune(w0)
        # The uniform workload should yield a moderate size ratio (paper: ~5).
        assert 2.0 <= result.tuning.size_ratio <= 12.0
