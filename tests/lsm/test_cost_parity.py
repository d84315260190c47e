"""Parity regression tests tying the three policies' cost models together.

These pin the algebraic identities that keep the strategy layer honest:

* at ``T = 2`` tiering degenerates to leveling (one run per level, same
  merge amortisation), so their cost vectors must coincide exactly;
* with a single disk level lazy leveling *is* leveling;
* the vectorised ``cost_matrix`` grid pass must reproduce the scalar
  ``cost_vector`` path to ≤ 1e-9 across the whole design space.
"""

import numpy as np
import pytest

from repro.lsm import (
    ALL_POLICIES,
    CompactionPolicy,
    LSMCostModel,
    LSMTuning,
    Policy,
    SystemConfig,
    simulator_system,
)

BITS_SAMPLES = (0.0, 1.5, 5.0, 10.0)


@pytest.fixture(scope="module")
def model() -> LSMCostModel:
    return LSMCostModel(SystemConfig())


class TestTieringLevelingParityAtTTwo:
    @pytest.mark.parametrize("bits", BITS_SAMPLES)
    def test_cost_vectors_coincide(self, model, bits):
        leveling = model.cost_vector(LSMTuning(2.0, bits, Policy.LEVELING))
        tiering = model.cost_vector(LSMTuning(2.0, bits, Policy.TIERING))
        np.testing.assert_allclose(leveling, tiering, atol=1e-12)

    @pytest.mark.parametrize("bits", BITS_SAMPLES)
    def test_lazy_leveling_joins_the_degenerate_point(self, model, bits):
        """At T = 2 every policy keeps one run per level above the last."""
        leveling = model.cost_vector(LSMTuning(2.0, bits, Policy.LEVELING))
        lazy = model.cost_vector(LSMTuning(2.0, bits, Policy.LAZY_LEVELING))
        np.testing.assert_allclose(leveling, lazy, atol=1e-12)

    def test_parity_holds_component_by_component(self, model):
        leveling = model.cost_breakdown(LSMTuning(2.0, 4.0, Policy.LEVELING)).as_dict()
        tiering = model.cost_breakdown(LSMTuning(2.0, 4.0, Policy.TIERING)).as_dict()
        for component, value in leveling.items():
            assert tiering[component] == pytest.approx(value, abs=1e-12), component


class TestLazyLevelingSingleLevelReduction:
    def test_single_level_tree_costs_match_leveling(self):
        # A tiny store with a huge size ratio collapses to one disk level.
        system = simulator_system(num_entries=50)
        model = LSMCostModel(system)
        lazy = LSMTuning(60.0, 2.0, Policy.LAZY_LEVELING)
        leveled = LSMTuning(60.0, 2.0, Policy.LEVELING)
        assert model.num_levels(lazy) == 1
        np.testing.assert_allclose(
            model.cost_vector(lazy), model.cost_vector(leveled), atol=1e-12
        )

    def test_multi_level_tree_costs_sit_between_the_classical_policies(self, model):
        tuning = {p: LSMTuning(6.0, 4.0, p) for p in ALL_POLICIES}
        assert model.num_levels(tuning[Policy.LAZY_LEVELING]) > 1
        # Writes: lazy leveling is cheaper than leveling, dearer than tiering.
        assert (
            model.write_cost(tuning[Policy.TIERING])
            < model.write_cost(tuning[Policy.LAZY_LEVELING])
            < model.write_cost(tuning[Policy.LEVELING])
        )
        # Reads: lazy leveling is cheaper than tiering, dearer than leveling.
        assert (
            model.empty_read_cost(tuning[Policy.LEVELING])
            < model.empty_read_cost(tuning[Policy.LAZY_LEVELING])
            < model.empty_read_cost(tuning[Policy.TIERING])
        )
        assert (
            model.range_read_cost(tuning[Policy.LEVELING])
            < model.range_read_cost(tuning[Policy.LAZY_LEVELING])
            < model.range_read_cost(tuning[Policy.TIERING])
        )

    def test_lazy_non_empty_reads_track_leveling_closely(self, model):
        """The largest level dominates residence, so Z1 stays near leveling."""
        lazy = model.non_empty_read_cost(LSMTuning(6.0, 6.0, Policy.LAZY_LEVELING))
        leveled = model.non_empty_read_cost(LSMTuning(6.0, 6.0, Policy.LEVELING))
        tiered = model.non_empty_read_cost(LSMTuning(6.0, 6.0, Policy.TIERING))
        assert abs(lazy - leveled) < abs(tiered - leveled)


class TestCostMatrixMatchesScalarPath:
    @pytest.mark.parametrize("policy", ALL_POLICIES, ids=lambda p: p.value)
    def test_grid_parity_model_scale(self, model, policy):
        system = model.system
        ratios = np.arange(2.0, system.max_size_ratio + 1.0, 7.0)
        bits = np.linspace(0.0, system.max_bits_per_entry - 1e-6, 9)
        matrix = model.cost_matrix(ratios, bits, policy)
        assert matrix.shape == (ratios.size, bits.size, 4)
        for i, size_ratio in enumerate(ratios):
            for j, bits_per_entry in enumerate(bits):
                scalar = model.cost_vector(
                    LSMTuning(float(size_ratio), float(bits_per_entry), policy)
                )
                np.testing.assert_allclose(
                    matrix[i, j], scalar, atol=1e-9, rtol=1e-9
                )

    @pytest.mark.parametrize("policy", ALL_POLICIES, ids=lambda p: p.value)
    def test_grid_parity_simulator_scale(self, policy):
        system = simulator_system(num_entries=8_000)
        model = LSMCostModel(system)
        ratios = np.array([2.0, 3.0, 10.0, 42.0, 100.0])
        bits = np.linspace(0.0, system.max_bits_per_entry - 1e-6, 5)
        matrix = model.cost_matrix(ratios, bits, policy)
        for i, size_ratio in enumerate(ratios):
            for j, bits_per_entry in enumerate(bits):
                scalar = model.cost_vector(
                    LSMTuning(float(size_ratio), float(bits_per_entry), policy)
                )
                np.testing.assert_allclose(
                    matrix[i, j], scalar, atol=1e-9, rtol=1e-9
                )

    def test_workload_cost_matrix_is_the_dot_product(self, model):
        ratios = np.array([3.0, 9.0])
        bits = np.array([2.0, 6.0])
        weights = np.array([0.3, 0.3, 0.2, 0.2])
        costs = model.workload_cost_matrix(weights, ratios, bits, Policy.LAZY_LEVELING)
        for i, size_ratio in enumerate(ratios):
            for j, bits_per_entry in enumerate(bits):
                tuning = LSMTuning(size_ratio, bits_per_entry, Policy.LAZY_LEVELING)
                assert costs[i, j] == pytest.approx(
                    model.workload_cost(weights, tuning), rel=1e-12
                )

    def test_rejects_empty_grids(self, model):
        with pytest.raises(ValueError):
            model.cost_matrix(np.array([]), np.array([5.0]), Policy.LEVELING)

    def test_rejects_illegal_size_ratio(self, model):
        with pytest.raises(ValueError):
            model.cost_matrix(np.array([1.5]), np.array([5.0]), Policy.LEVELING)

    def test_rejects_over_budget_bits(self, model):
        too_many = model.system.total_bits_per_entry + 1.0
        with pytest.raises(ValueError):
            model.cost_matrix(np.array([4.0]), np.array([too_many]), Policy.LEVELING)


class TestCostPointsPairsPointsAndStacksPolicies:
    """``cost_points`` is the one implementation: paired ``(T_i, h_i)``
    points, with axis 0 of the points the policy axis."""

    _STACK = (
        CompactionPolicy.of(Policy.LEVELING),
        CompactionPolicy.of(Policy.LAZY_LEVELING),
        CompactionPolicy.fluid((4.0, 2.0, 1.0), 2.0),
    )
    _RATIOS = np.array([2.0, 3.7, 9.0, 41.5])
    _BITS = np.array([0.0, 2.5, 7.0, 11.0])

    @pytest.mark.parametrize("nu", [0.0, 0.4])
    def test_shared_points_match_the_scalar_path_under_every_policy(self, model, nu):
        costs = model.cost_points(self._RATIOS[None], self._BITS[None], self._STACK, nu)
        assert costs.shape == (len(self._STACK), self._RATIOS.size, 4)
        for p, policy in enumerate(self._STACK):
            for i, (size_ratio, bits) in enumerate(zip(self._RATIOS, self._BITS)):
                scalar = model.cost_vector(LSMTuning(size_ratio, bits, policy), nu)
                np.testing.assert_allclose(costs[p, i], scalar, rtol=1e-9)

    def test_a_leading_policy_axis_gives_each_policy_its_own_points(self, model):
        ratios = np.array([[2.0, 5.0], [3.0, 8.0], [6.0, 30.0]])
        bits = np.array([[1.0, 4.0], [0.0, 9.0], [2.0, 6.0]])
        costs = model.cost_points(ratios, bits, self._STACK)
        assert costs.shape == (3, 2, 4)
        for p, policy in enumerate(self._STACK):
            for i in range(2):
                scalar = model.cost_vector(LSMTuning(ratios[p, i], bits[p, i], policy))
                np.testing.assert_allclose(costs[p, i], scalar, rtol=1e-9)

    def test_rejects_points_that_do_not_line_up_with_the_policies(self, model):
        with pytest.raises(ValueError):
            model.cost_points(np.full((2, 3), 4.0), np.full((2, 3), 1.0), self._STACK)
        with pytest.raises(ValueError):
            model.cost_points(np.float64(4.0), np.float64(1.0), self._STACK)
