"""Tests for the Bloom-filter model (Monkey allocation)."""

import numpy as np
import pytest

from repro.lsm import (
    monkey_bits_per_level,
    monkey_false_positive_rates,
    optimal_hash_count,
)
from repro.lsm.bloom import LN2_SQUARED


class TestOptimalHashCount:
    def test_at_least_one_hash(self):
        assert optimal_hash_count(0.0) == 1
        assert optimal_hash_count(0.5) == 1

    def test_ten_bits_gives_seven_hashes(self):
        assert optimal_hash_count(10.0) == 7

    def test_grows_with_bits(self):
        assert optimal_hash_count(20.0) > optimal_hash_count(5.0)


class TestMonkeyRates:
    def test_shape_matches_levels(self):
        rates = monkey_false_positive_rates(10.0, 5.0, 4)
        assert rates.shape == (4,)

    def test_all_rates_within_unit_interval(self):
        rates = monkey_false_positive_rates(10.0, 5.0, 6)
        assert np.all(rates >= 0.0)
        assert np.all(rates <= 1.0)

    def test_smaller_levels_get_lower_rates(self):
        # Monkey skews memory to smaller levels: f_1 < f_2 < ... < f_L.
        rates = monkey_false_positive_rates(10.0, 8.0, 5)
        assert np.all(np.diff(rates) >= 0.0)

    def test_rates_drop_with_more_memory(self):
        low = monkey_false_positive_rates(10.0, 2.0, 4)
        high = monkey_false_positive_rates(10.0, 10.0, 4)
        assert np.all(high <= low)

    def test_zero_memory_saturates_deepest_level(self):
        # Equation (11) with zero filter memory: the closed form saturates the
        # deepest (largest) level at a false-positive rate of 1, while the
        # clipped formula still assigns sub-unit rates to smaller levels.
        rates = monkey_false_positive_rates(10.0, 0.0, 4)
        assert rates[-1] == 1.0
        assert np.all(rates <= 1.0)

    def test_consecutive_levels_scale_by_t(self):
        # Below saturation, Monkey rates satisfy f_{i+1} = T * f_i.
        size_ratio = 4.0
        rates = monkey_false_positive_rates(size_ratio, 12.0, 5)
        interior = rates[rates < 1.0]
        ratios = interior[1:] / interior[:-1]
        assert np.allclose(ratios, size_ratio, rtol=1e-9)

    def test_rejects_invalid_arguments(self):
        with pytest.raises(ValueError):
            monkey_false_positive_rates(1.0, 5.0, 3)
        with pytest.raises(ValueError):
            monkey_false_positive_rates(10.0, 5.0, 0)
        with pytest.raises(ValueError):
            monkey_false_positive_rates(10.0, -1.0, 3)


class TestMonkeyBitsPerLevel:
    def test_inverts_rates(self):
        size_ratio, bits, levels = 5.0, 8.0, 4
        rates = monkey_false_positive_rates(size_ratio, bits, levels)
        per_level = monkey_bits_per_level(size_ratio, bits, levels)
        recovered = np.exp(-per_level * LN2_SQUARED)
        assert np.allclose(recovered[rates < 1.0], rates[rates < 1.0], rtol=1e-9)

    def test_saturated_levels_get_zero_bits(self):
        per_level = monkey_bits_per_level(5.0, 0.0, 3)
        # The deepest level is saturated (rate 1) and therefore keeps no filter.
        assert per_level[-1] == 0.0
        assert np.all(per_level >= 0.0)

    def test_smaller_levels_get_more_bits(self):
        per_level = monkey_bits_per_level(5.0, 8.0, 4)
        assert np.all(np.diff(per_level) <= 0.0)
