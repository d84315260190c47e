"""Tests for the system-parameter configuration."""

import dataclasses
import math

import pytest

from repro.lsm import SystemConfig, simulator_system
from repro.lsm.system import BITS_PER_BYTE, MIB


class TestValidation:
    def test_default_configuration_is_valid(self):
        config = SystemConfig()
        assert config.num_entries == 10_000_000

    def test_rejects_non_positive_entry_size(self):
        with pytest.raises(ValueError):
            SystemConfig(entry_size_bytes=0)

    def test_rejects_page_smaller_than_entry(self):
        with pytest.raises(ValueError):
            SystemConfig(entry_size_bytes=4096, page_size_bytes=1024)

    def test_rejects_non_positive_entries(self):
        with pytest.raises(ValueError):
            SystemConfig(num_entries=0)

    def test_rejects_non_positive_memory(self):
        with pytest.raises(ValueError):
            SystemConfig(total_memory_bytes=0)

    def test_rejects_negative_asymmetry(self):
        with pytest.raises(ValueError):
            SystemConfig(read_write_asymmetry=-0.5)

    def test_rejects_out_of_range_selectivity(self):
        with pytest.raises(ValueError):
            SystemConfig(range_selectivity=1.5)

    def test_rejects_tiny_size_ratio_bound(self):
        with pytest.raises(ValueError):
            SystemConfig(max_size_ratio=1.5)

    def test_rejects_memory_budget_with_no_buffer_room(self):
        # 1 KiB of memory for 10M entries cannot hold even one buffer page.
        with pytest.raises(ValueError):
            SystemConfig(total_memory_bytes=1024)


class TestDerivedQuantities:
    def test_entries_per_page(self):
        config = SystemConfig(entry_size_bytes=1024, page_size_bytes=4096)
        assert config.entries_per_page == 4

    def test_entries_per_page_never_zero(self):
        config = SystemConfig(entry_size_bytes=4096, page_size_bytes=4096)
        assert config.entries_per_page == 1

    def test_total_memory_bits(self):
        config = SystemConfig(total_memory_bytes=10 * MIB)
        assert config.total_memory_bits == 10 * MIB * BITS_PER_BYTE

    def test_total_bits_per_entry(self):
        config = SystemConfig()
        expected = config.total_memory_bits / config.num_entries
        assert config.total_bits_per_entry == pytest.approx(expected)

    def test_max_bits_per_entry_leaves_buffer_page(self):
        config = SystemConfig()
        leftover_bits = config.total_memory_bits - config.max_bits_per_entry * config.num_entries
        assert leftover_bits >= config.entries_per_page * config.entry_size_bits


class TestMemorySplit:
    def test_filter_plus_buffer_equals_total(self):
        config = SystemConfig()
        bits = 5.0
        total = config.filter_memory_bits(bits) + config.buffer_memory_bits(bits)
        assert total == pytest.approx(config.total_memory_bits)

    def test_buffer_memory_rejects_oversized_filters(self):
        config = SystemConfig()
        with pytest.raises(ValueError):
            config.buffer_memory_bits(config.total_bits_per_entry + 1.0)

    def test_buffer_entries_consistent_with_bytes(self):
        config = SystemConfig()
        entries = config.buffer_entries(4.0)
        bytes_ = config.buffer_memory_bytes(4.0)
        assert entries == pytest.approx(bytes_ / config.entry_size_bytes)


class TestTreeShape:
    def test_num_levels_matches_formula(self):
        config = SystemConfig()
        bits = 5.0
        size_ratio = 10.0
        buffer_bits = config.buffer_memory_bits(bits)
        expected = math.ceil(
            math.log(config.num_entries * config.entry_size_bits / buffer_bits + 1)
            / math.log(size_ratio)
        )
        assert config.num_levels(size_ratio, bits) == expected

    def test_num_levels_decreases_with_size_ratio(self):
        config = SystemConfig()
        shallow = config.num_levels(50.0, 5.0)
        deep = config.num_levels(3.0, 5.0)
        assert shallow <= deep

    def test_num_levels_at_least_one(self):
        config = SystemConfig()
        assert config.num_levels(config.max_size_ratio, 0.0) >= 1

    def test_num_levels_rejects_small_ratio(self):
        with pytest.raises(ValueError):
            SystemConfig().num_levels(1.5, 5.0)


class TestScalingAndSerialisation:
    def test_scaled_preserves_bits_per_entry(self):
        config = SystemConfig()
        scaled = config.scaled(1_000_000)
        assert scaled.total_bits_per_entry == pytest.approx(config.total_bits_per_entry)

    def test_scaled_rejects_non_positive(self):
        with pytest.raises(ValueError):
            SystemConfig().scaled(0)

    def test_round_trip_dict(self):
        config = SystemConfig(read_write_asymmetry=2.0, range_selectivity=0.001)
        assert SystemConfig(**dataclasses.asdict(config)) == config

    def test_simulator_system_is_small(self):
        config = simulator_system(num_entries=5_000)
        assert config.num_entries == 5_000
        assert config.total_bits_per_entry == pytest.approx(16.0)

    def test_simulator_system_floors_the_memory_at_two_buffer_pages(self):
        """A store too small for 16 bits per entry still gets a write buffer."""
        config = simulator_system(num_entries=10)
        assert config.total_memory_bytes == 2 * config.page_size_bytes
        assert config.total_bits_per_entry > 16.0

