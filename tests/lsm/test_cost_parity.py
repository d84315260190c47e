"""Parity regression tests tying the three policies' cost models together.

These pin the algebraic identities that keep the strategy layer honest:

* at ``T = 2`` tiering degenerates to leveling (one run per level, same
  merge amortisation), so their cost vectors must coincide exactly;
* with a single disk level lazy leveling *is* leveling;
* ``cost_matrix`` is the outer product and ``cost_points`` the paired,
  policy-stacked form of one kernel (its values are pinned by
  ``test_golden_costs.py``).
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

#: Indices of ``(Z0, Z1, Q, W)`` in a cost vector.
Z0, Z1, Q, W = range(4)


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
        leveling = model.cost_vector(LSMTuning(2.0, 4.0, Policy.LEVELING))
        tiering = model.cost_vector(LSMTuning(2.0, 4.0, Policy.TIERING))
        for component, name in enumerate(("Z0", "Z1", "Q", "W")):
            assert tiering[component] == pytest.approx(leveling[component], abs=1e-12), name


class TestLazyLevelingSingleLevelReduction:
    def test_single_level_tree_costs_match_leveling(self):
        # A tiny store with a huge size ratio collapses to one disk level.
        system = simulator_system(num_entries=50)
        model = LSMCostModel(system)
        lazy = LSMTuning(60.0, 2.0, Policy.LAZY_LEVELING)
        leveled = LSMTuning(60.0, 2.0, Policy.LEVELING)
        assert system.disk_levels(60.0, 2.0) == 1
        np.testing.assert_allclose(
            model.cost_vector(lazy), model.cost_vector(leveled), atol=1e-12
        )

    def test_multi_level_tree_costs_sit_between_the_classical_policies(self, model):
        tuning = {p: LSMTuning(6.0, 4.0, p) for p in ALL_POLICIES}
        assert model.system.disk_levels(6.0, 4.0) > 1
        costs = {policy: model.cost_vector(t) for policy, t in tuning.items()}
        leveled, lazy, tiered = (
            costs[Policy.LEVELING], costs[Policy.LAZY_LEVELING], costs[Policy.TIERING]
        )
        # Writes: lazy leveling is cheaper than leveling, dearer than tiering.
        assert tiered[W] < lazy[W] < leveled[W]
        # Reads: lazy leveling is cheaper than tiering, dearer than leveling.
        assert leveled[Z0] < lazy[Z0] < tiered[Z0]
        assert leveled[Q] < lazy[Q] < tiered[Q]

    def test_lazy_non_empty_reads_track_leveling_closely(self, model):
        """The largest level dominates residence, so Z1 stays near leveling."""
        lazy = model.cost_vector(LSMTuning(6.0, 6.0, Policy.LAZY_LEVELING))[Z1]
        leveled = model.cost_vector(LSMTuning(6.0, 6.0, Policy.LEVELING))[Z1]
        tiered = model.cost_vector(LSMTuning(6.0, 6.0, Policy.TIERING))[Z1]
        assert abs(lazy - leveled) < abs(tiered - leveled)


class TestCostMatrix:
    @pytest.mark.parametrize("policy", ALL_POLICIES, ids=lambda p: p.value)
    def test_the_outer_product_has_one_cost_vector_per_cell(self, model, policy):
        ratios = np.array([2.0, 3.0, 10.0, 42.0, 100.0])
        bits = np.linspace(0.0, model.system.max_bits_per_entry - 1e-6, 9)
        matrix = model.cost_matrix(ratios, bits, policy)
        assert matrix.shape == (ratios.size, bits.size, 4)
        np.testing.assert_array_equal(
            matrix[3, 7], model.cost_vector(LSMTuning(42.0, bits[7], policy))
        )

    def test_cost_matrix_dotted_with_a_workload_is_its_cost(self, model):
        ratios = np.array([3.0, 9.0])
        bits = np.array([2.0, 6.0])
        weights = np.array([0.3, 0.3, 0.2, 0.2])
        costs = model.cost_matrix(ratios, bits, Policy.LAZY_LEVELING) @ weights
        for i, size_ratio in enumerate(ratios):
            for j, bits_per_entry in enumerate(bits):
                tuning = LSMTuning(size_ratio, bits_per_entry, Policy.LAZY_LEVELING)
                assert costs[i, j] == pytest.approx(
                    model.workload_cost(weights, tuning), rel=1e-12
                )

    def test_landscape_shape_and_positivity(self, model):
        """The ``(T, h)`` cost surface of one workload is positive everywhere."""
        from repro.workloads import expected_workload

        ratios = np.arange(2.0, model.system.max_size_ratio + 1.0)
        bits = np.linspace(0.0, model.system.max_bits_per_entry * 0.999, 7)
        weights = expected_workload(0).workload.as_array()
        costs = model.cost_matrix(ratios, bits, Policy.LAZY_LEVELING) @ weights
        assert costs.shape == (ratios.size, bits.size)
        assert np.all(costs > 0)

    def test_landscape_minimum_matches_grid_tuner(self, model):
        from repro.core import GridTuner
        from repro.workloads import expected_workload

        ratios = np.arange(2.0, model.system.max_size_ratio + 1.0)
        bits = np.linspace(
            model.system.min_bits_per_entry, model.system.max_bits_per_entry * 0.999, 33
        )
        workload = expected_workload(11).workload
        costs = model.cost_matrix(ratios, bits, Policy.LEVELING) @ workload.as_array()
        grid = GridTuner(
            system=model.system, bits_grid_points=33, policies=(Policy.LEVELING,)
        ).tune(workload)
        assert float(costs.min()) == pytest.approx(grid.objective, rel=1e-9)

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

    @pytest.mark.parametrize(
        "ratio,bits,field",
        [
            (np.nan, 5.0, "size ratio"),
            (np.inf, 5.0, "size ratio"),
            (4.0, np.nan, "bits_per_entry"),
            (4.0, np.inf, "bits_per_entry"),
        ],
        ids=["T=nan", "T=inf", "h=nan", "h=inf"],
    )
    def test_rejects_non_finite_points(self, model, ratio, bits, field):
        """A NaN fails the guard of its own field instead of slipping past
        it, and an infinite T no longer prices a one-level tree."""
        with pytest.raises(ValueError, match=field):
            model.cost_matrix(np.array([ratio]), np.array([bits]), Policy.LEVELING)
        with pytest.raises(ValueError, match=field):
            model.cost_points(
                np.array([[4.0, ratio]]), np.array([[1.0, bits]]), (Policy.TIERING,)
            )


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
    def test_shared_points_are_priced_under_every_policy(self, model, nu):
        costs = model.cost_points(self._RATIOS[None], self._BITS[None], self._STACK, nu)
        assert costs.shape == (len(self._STACK), self._RATIOS.size, 4)
        for p, policy in enumerate(self._STACK):
            alone = model.cost_points(self._RATIOS[None], self._BITS[None], (policy,), nu)
            np.testing.assert_allclose(costs[p], alone[0], rtol=1e-14)

    def test_a_leading_policy_axis_gives_each_policy_its_own_points(self, model):
        ratios = np.array([[2.0, 5.0], [3.0, 8.0], [6.0, 30.0]])
        bits = np.array([[1.0, 4.0], [0.0, 9.0], [2.0, 6.0]])
        costs = model.cost_points(ratios, bits, self._STACK)
        assert costs.shape == (3, 2, 4)
        for p, policy in enumerate(self._STACK):
            alone = model.cost_points(ratios[p][None], bits[p][None], (policy,))
            np.testing.assert_allclose(costs[p], alone[0], rtol=1e-14)

    def test_rejects_points_that_do_not_line_up_with_the_policies(self, model):
        with pytest.raises(ValueError):
            model.cost_points(np.full((2, 3), 4.0), np.full((2, 3), 1.0), self._STACK)
        with pytest.raises(ValueError):
            model.cost_points(np.float64(4.0), np.float64(1.0), self._STACK)
