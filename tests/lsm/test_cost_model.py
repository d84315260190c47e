"""Tests for the analytical cost model (Equations 2, 12, 14, 15, 16)."""

import numpy as np
import pytest

from repro.lsm import LSMCostModel, LSMTuning, Policy, SystemConfig
from repro.lsm.bloom import monkey_false_positive_rates
from repro.workloads import Workload, expected_workload

#: Indices of ``(Z0, Z1, Q, W)`` in a cost vector.
Z0, Z1, Q, W = range(4)


@pytest.fixture()
def model(system: SystemConfig) -> LSMCostModel:
    return LSMCostModel(system)


class TestCostVector:
    def test_cost_vector_has_four_components(self, model, leveling_tuning):
        assert model.cost_vector(leveling_tuning).shape == (4,)

    def test_all_costs_positive(self, model, leveling_tuning, tiering_tuning):
        for tuning in (leveling_tuning, tiering_tuning):
            assert np.all(model.cost_vector(tuning) > 0.0)


class TestEmptyReadCost:
    def test_tiering_costs_more_than_leveling(self, model):
        leveling = LSMTuning(5.0, 5.0, Policy.LEVELING)
        tiering = LSMTuning(5.0, 5.0, Policy.TIERING)
        assert model.cost_vector(tiering)[Z0] > model.cost_vector(leveling)[Z0]

    def test_tiering_multiplier_is_t_minus_one(self, model):
        leveling = LSMTuning(6.0, 5.0, Policy.LEVELING)
        tiering = LSMTuning(6.0, 5.0, Policy.TIERING)
        assert model.cost_vector(tiering)[Z0] == pytest.approx(
            5.0 * model.cost_vector(leveling)[Z0]
        )

    def test_more_filter_memory_reduces_cost(self, model):
        low = LSMTuning(5.0, 1.0, Policy.LEVELING)
        high = LSMTuning(5.0, 10.0, Policy.LEVELING)
        assert model.cost_vector(high)[Z0] < model.cost_vector(low)[Z0]

    def test_equals_sum_of_false_positive_rates_for_leveling(self, model):
        tuning = LSMTuning(5.0, 5.0, Policy.LEVELING)
        rates = monkey_false_positive_rates(5.0, 5.0, tuning.num_levels(model.system))
        assert model.cost_vector(tuning)[Z0] == pytest.approx(float(np.sum(rates)))

    def test_zero_filter_memory_cost_bounded_by_level_count(self, model):
        # With no filter memory an empty lookup may probe every level; the
        # clipped Monkey closed form keeps the cost within (0, L].
        tuning = LSMTuning(5.0, 0.0, Policy.LEVELING)
        levels = tuning.num_levels(model.system)
        cost = model.cost_vector(tuning)[Z0]
        assert 1.0 <= cost <= float(levels)


class TestNonEmptyReadCost:
    def test_at_least_one_io(self, model, leveling_tuning, tiering_tuning):
        # A successful lookup always pays the I/O that fetches the entry.
        assert model.cost_vector(leveling_tuning)[Z1] >= 1.0
        assert model.cost_vector(tiering_tuning)[Z1] >= 1.0

    def test_close_to_one_with_ample_filters(self, model):
        tuning = LSMTuning(5.0, 16.0, Policy.LEVELING)
        assert model.cost_vector(tuning)[Z1] == pytest.approx(1.0, abs=0.05)

    def test_leveling_cheaper_than_tiering(self, model):
        leveling = LSMTuning(8.0, 3.0, Policy.LEVELING)
        tiering = LSMTuning(8.0, 3.0, Policy.TIERING)
        assert model.cost_vector(leveling)[Z1] < model.cost_vector(tiering)[Z1]

    def test_bounded_by_empty_read_plus_one(self, model):
        # A successful lookup can waste at most what an empty one wastes.
        for policy in (Policy.LEVELING, Policy.TIERING):
            tuning = LSMTuning(6.0, 4.0, policy)
            assert model.cost_vector(tuning)[Z1] <= model.cost_vector(tuning)[Z0] + 1.0


class TestRangeCost:
    def test_leveling_pays_one_seek_per_level(self, model):
        tuning = LSMTuning(5.0, 5.0, Policy.LEVELING)
        assert model.cost_vector(tuning)[Q] == pytest.approx(
            float(tuning.num_levels(model.system))
        )

    def test_tiering_pays_t_minus_one_seeks_per_level(self, model):
        tuning = LSMTuning(5.0, 5.0, Policy.TIERING)
        assert model.cost_vector(tuning)[Q] == pytest.approx(
            float(tuning.num_levels(model.system)) * 4.0
        )

    def test_selectivity_adds_scan_pages(self):
        selective = SystemConfig(range_selectivity=0.001)
        model = LSMCostModel(selective)
        tuning = LSMTuning(5.0, 5.0, Policy.LEVELING)
        scan_pages = 0.001 * selective.num_entries / selective.entries_per_page
        assert model.cost_vector(tuning)[Q] == pytest.approx(
            tuning.num_levels(model.system) + scan_pages
        )

    def test_larger_size_ratio_reduces_leveling_range_cost(self, model):
        shallow = LSMTuning(50.0, 5.0, Policy.LEVELING)
        deep = LSMTuning(3.0, 5.0, Policy.LEVELING)
        assert model.cost_vector(shallow)[Q] <= model.cost_vector(deep)[Q]


class TestWriteCost:
    def test_leveling_write_cost_grows_with_t(self, model):
        small = LSMTuning(3.0, 5.0, Policy.LEVELING)
        large = LSMTuning(30.0, 5.0, Policy.LEVELING)
        assert model.cost_vector(large)[W] > model.cost_vector(small)[W]

    def test_tiering_writes_cheaper_than_leveling(self, model):
        leveling = LSMTuning(10.0, 5.0, Policy.LEVELING)
        tiering = LSMTuning(10.0, 5.0, Policy.TIERING)
        assert model.cost_vector(tiering)[W] < model.cost_vector(leveling)[W]

    def test_policies_agree_at_t_equals_two(self, model):
        leveling = LSMTuning(2.0, 5.0, Policy.LEVELING)
        tiering = LSMTuning(2.0, 5.0, Policy.TIERING)
        assert model.cost_vector(leveling)[W] == pytest.approx(model.cost_vector(tiering)[W])

    def test_asymmetry_scales_write_cost(self):
        symmetric = LSMCostModel(SystemConfig(read_write_asymmetry=1.0))
        asymmetric = LSMCostModel(SystemConfig(read_write_asymmetry=3.0))
        tuning = LSMTuning(5.0, 5.0, Policy.LEVELING)
        assert asymmetric.cost_vector(tuning)[W] == pytest.approx(
            2.0 * symmetric.cost_vector(tuning)[W]
        )

    def test_matches_closed_form_for_leveling(self, model, system):
        tuning = LSMTuning(8.0, 5.0, Policy.LEVELING)
        levels = tuning.num_levels(model.system)
        expected = levels / system.entries_per_page * (8.0 - 1.0) / 2.0 * 2.0
        assert model.cost_vector(tuning)[W] == pytest.approx(expected)


class TestWorkloadCost:
    def test_is_dot_product_of_vector(self, model, leveling_tuning, w11):
        manual = float(np.dot(w11.as_array(), model.cost_vector(leveling_tuning)))
        assert model.workload_cost(w11, leveling_tuning) == pytest.approx(manual)

    def test_accepts_raw_sequences(self, model, leveling_tuning):
        cost = model.workload_cost([0.25, 0.25, 0.25, 0.25], leveling_tuning)
        assert cost > 0

    def test_rejects_wrong_length(self, model, leveling_tuning):
        with pytest.raises(ValueError):
            model.workload_cost([0.5, 0.5], leveling_tuning)

    def test_rejects_negative_weights(self, model, leveling_tuning):
        with pytest.raises(ValueError):
            model.workload_cost([-0.1, 0.4, 0.4, 0.3], leveling_tuning)

    def test_throughput_is_reciprocal_cost(self, model, leveling_tuning, w11):
        cost = model.workload_cost(w11, leveling_tuning)
        assert model.throughputs([w11], leveling_tuning)[0] == pytest.approx(1.0 / cost)

    def test_write_heavy_workload_prefers_tiering(self, model):
        write_heavy = expected_workload(4).workload  # 97% writes
        leveling = LSMTuning(5.0, 2.0, Policy.LEVELING)
        tiering = LSMTuning(5.0, 2.0, Policy.TIERING)
        assert model.workload_cost(write_heavy, tiering) < model.workload_cost(
            write_heavy, leveling
        )

    def test_read_heavy_workload_prefers_leveling(self, model):
        read_heavy = expected_workload(5).workload  # 98% point reads
        leveling = LSMTuning(5.0, 2.0, Policy.LEVELING)
        tiering = LSMTuning(5.0, 2.0, Policy.TIERING)
        assert model.workload_cost(read_heavy, leveling) < model.workload_cost(
            read_heavy, tiering
        )


class TestMotivatingExample:
    def test_range_shift_degrades_point_read_tuning(self, model):
        """Figure 1: a range-heavy shift hurts a tuning optimised for point reads."""
        expected = Workload(z0=0.20, z1=0.20, q=0.06, w=0.54)
        shifted = Workload(z0=0.02, z1=0.02, q=0.41, w=0.55)
        # A tuning that is good for the expected workload (large T, leveling).
        point_read_tuning = LSMTuning(30.0, 8.0, Policy.LEVELING)
        degradation = model.workload_cost(shifted, point_read_tuning) / model.workload_cost(
            expected, point_read_tuning
        )
        assert degradation > 1.05  # the shift visibly degrades performance
