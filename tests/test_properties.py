"""Property-based tests (hypothesis) for the core invariants.

These cover the mathematical heart of the reproduction: the cost model's
monotonicity and positivity, KL-divergence properties, the uncertainty
region's worst-case machinery, Bloom filters' no-false-negative guarantee and
the LSM simulator's key-preservation invariants.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.core import UncertaintyRegion
from repro.lsm import LSMCostModel, LSMTuning, Policy, SystemConfig, simulator_system
from repro.storage import BloomFilter, LSMTree, SortedRun
from repro.storage.run import consolidate_versions
from repro.workloads import Workload, kl_divergence

_SYSTEM = SystemConfig()
_MODEL = LSMCostModel(_SYSTEM)

#: Strategy for legal design points of the default system.
size_ratios = st.floats(min_value=2.0, max_value=100.0, allow_nan=False)
bits = st.floats(min_value=0.0, max_value=_SYSTEM.max_bits_per_entry - 0.01, allow_nan=False)
policies = st.sampled_from(list(Policy))


@st.composite
def tunings(draw) -> LSMTuning:
    return LSMTuning(
        size_ratio=draw(size_ratios), bits_per_entry=draw(bits), policy=draw(policies)
    )


@st.composite
def workloads(draw) -> Workload:
    raw = draw(
        st.lists(st.floats(min_value=0.001, max_value=1.0), min_size=4, max_size=4)
    )
    arr = np.asarray(raw)
    return Workload.from_array(arr / arr.sum())


class TestCostModelProperties:
    @given(tuning=tunings())
    @settings(max_examples=60, deadline=None)
    def test_cost_vector_always_positive_and_finite(self, tuning):
        vector = _MODEL.cost_vector(tuning)
        assert np.all(vector > 0)
        assert np.all(np.isfinite(vector))

    @given(tuning=tunings(), workload=workloads())
    @settings(max_examples=60, deadline=None)
    def test_workload_cost_is_convex_combination_of_components(self, tuning, workload):
        vector = _MODEL.cost_vector(tuning)
        cost = _MODEL.workload_cost(workload, tuning)
        assert vector.min() - 1e-9 <= cost <= vector.max() + 1e-9

    @given(size_ratio=size_ratios, policy=policies, low=bits, high=bits)
    @settings(max_examples=60, deadline=None)
    def test_empty_read_cost_monotone_in_filter_memory(self, size_ratio, policy, low, high):
        assume(abs(high - low) > 1e-6)
        lo, hi = sorted((low, high))
        cheap = LSMTuning(size_ratio, hi, policy)
        expensive = LSMTuning(size_ratio, lo, policy)
        assert _MODEL.cost_vector(cheap)[0] <= _MODEL.cost_vector(expensive)[0] + 1e-9

    @given(tuning=tunings())
    @settings(max_examples=40, deadline=None)
    def test_non_empty_read_at_least_one_io(self, tuning):
        assert _MODEL.cost_vector(tuning)[1] >= 1.0 - 1e-9

    @given(tuning=tunings())
    @settings(max_examples=40, deadline=None)
    def test_tiering_reads_cost_at_least_leveling(self, tuning):
        ratio, h = tuning.size_ratio, tuning.bits_per_entry
        leveled = LSMTuning(ratio, h, Policy.LEVELING)
        tiered = LSMTuning(ratio, h, Policy.TIERING)
        tiered_costs, leveled_costs = _MODEL.cost_vector(tiered), _MODEL.cost_vector(leveled)
        assert tiered_costs[0] >= leveled_costs[0] - 1e-9  # Z0
        assert tiered_costs[3] <= leveled_costs[3] + 1e-9  # W

    @given(tuning=tunings())
    @settings(max_examples=40, deadline=None)
    def test_lazy_leveling_sits_between_the_classical_policies(self, tuning):
        """Component-wise, lazy leveling is sandwiched between its parents."""
        ratio, h = tuning.size_ratio, tuning.bits_per_entry
        leveled = _MODEL.cost_vector(LSMTuning(ratio, h, Policy.LEVELING))
        tiered = _MODEL.cost_vector(LSMTuning(ratio, h, Policy.TIERING))
        lazy = _MODEL.cost_vector(LSMTuning(ratio, h, Policy.LAZY_LEVELING))
        # Reads (Z0, Z1, Q): leveling <= lazy <= tiering.
        assert np.all(leveled[:3] - 1e-9 <= lazy[:3])
        assert np.all(lazy[:3] <= tiered[:3] + 1e-9)
        # Writes: tiering <= lazy <= leveling.
        assert tiered[3] - 1e-9 <= lazy[3] <= leveled[3] + 1e-9

    @given(tuning=tunings())
    @settings(max_examples=30, deadline=None)
    def test_cost_matrix_cell_matches_cost_vector(self, tuning):
        matrix = _MODEL.cost_matrix(
            np.array([tuning.size_ratio]),
            np.array([tuning.bits_per_entry]),
            tuning.policy,
        )
        np.testing.assert_allclose(
            matrix[0, 0], _MODEL.cost_vector(tuning), atol=1e-9, rtol=1e-9
        )


class TestKLProperties:
    @given(p=workloads(), q=workloads())
    @settings(max_examples=80, deadline=None)
    def test_kl_divergence_non_negative(self, p, q):
        assert kl_divergence(p.as_array(), q.as_array()) >= -1e-12

    @given(p=workloads())
    @settings(max_examples=40, deadline=None)
    def test_kl_divergence_zero_on_identity(self, p):
        assert kl_divergence(p.as_array(), p.as_array()) == pytest.approx(0.0, abs=1e-9)

    @given(p=workloads(), q=workloads(), weight=st.floats(0.0, 1.0))
    @settings(max_examples=60, deadline=None)
    def test_mix_stays_a_distribution(self, p, q, weight):
        mixed = p.mix(q, weight)
        assert sum(mixed.as_tuple()) == pytest.approx(1.0)
        assert min(mixed.as_tuple()) >= 0.0


class TestUncertaintyRegionProperties:
    @given(
        expected=workloads(),
        rho=st.floats(min_value=0.0, max_value=3.0),
        costs=st.lists(st.floats(min_value=0.1, max_value=50.0), min_size=4, max_size=4),
    )
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_worst_case_is_feasible_and_dominates_nominal(self, expected, rho, costs):
        region = UncertaintyRegion(expected=expected, rho=rho)
        cost_vector = np.asarray(costs)
        worst = region.worst_case_workload(cost_vector)
        assert region.contains(worst, tolerance=1e-5)
        nominal_cost = float(np.dot(expected.as_array(), cost_vector))
        assert region.worst_case_cost(cost_vector) >= nominal_cost - 1e-8

    @given(
        expected=workloads(),
        costs=st.lists(st.floats(min_value=0.1, max_value=50.0), min_size=4, max_size=4),
        rho_small=st.floats(min_value=0.0, max_value=1.0),
        rho_large=st.floats(min_value=1.0, max_value=3.0),
    )
    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_worst_case_cost_monotone_in_rho(self, expected, costs, rho_small, rho_large):
        cost_vector = np.asarray(costs)
        small = UncertaintyRegion(expected=expected, rho=rho_small).worst_case_cost(cost_vector)
        large = UncertaintyRegion(expected=expected, rho=rho_large).worst_case_cost(cost_vector)
        assert large >= small - 1e-7


class TestBloomFilterProperties:
    @given(
        keys=st.lists(st.integers(min_value=0, max_value=2**40), min_size=1, max_size=300, unique=True),
        bits=st.floats(min_value=2.0, max_value=16.0),
        seed=st.integers(min_value=0, max_value=1_000),
    )
    @settings(max_examples=40, deadline=None)
    def test_no_false_negatives(self, keys, bits, seed):
        bf = BloomFilter(expected_entries=len(keys), bits_per_entry=bits, seed=seed)
        bf.add_many(np.asarray(keys, dtype=np.uint64))
        assert all(bf.might_contain(key) for key in keys)


class TestSortedRunProperties:
    @given(
        keys=st.lists(st.integers(min_value=0, max_value=10_000), min_size=1, max_size=400, unique=True)
    )
    @settings(max_examples=40, deadline=None)
    def test_every_key_is_found_and_lookup_reads_at_most_one_page(self, keys):
        run = SortedRun(
            np.array(sorted(keys), dtype=np.int64), entries_per_page=4, bits_per_entry=8.0
        )
        for key in keys:
            found, _, pages = run.lookup(key)
            assert found
            assert pages == 1

    @given(
        keys_a=st.lists(st.integers(0, 5_000), min_size=1, max_size=200, unique=True),
        keys_b=st.lists(st.integers(0, 5_000), min_size=1, max_size=200, unique=True),
    )
    @settings(max_examples=40, deadline=None)
    def test_consolidation_preserves_key_set(self, keys_a, keys_b):
        parts = [np.array(sorted(keys), dtype=np.int64) for keys in (keys_a, keys_b)]
        keys, tombstones = consolidate_versions(
            parts, [np.zeros(part.size, dtype=bool) for part in parts]
        )
        assert keys.tolist() == sorted(set(keys_a) | set(keys_b))
        assert not tombstones.any()


class TestLSMTreeProperties:
    @given(
        keys=st.lists(st.integers(min_value=0, max_value=100_000), min_size=1, max_size=400),
        policy=policies,
    )
    @settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_every_inserted_key_is_readable(self, keys, policy):
        system = simulator_system(num_entries=1_000)
        tree = LSMTree(LSMTuning(3.0, 4.0, policy), system)
        for key in keys:
            tree.put(key)
        for key in set(keys):
            assert tree.get(key)

    @given(
        keys=st.lists(st.integers(min_value=0, max_value=100_000), min_size=1, max_size=300),
        policy=policies,
    )
    @settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_entry_count_bounded_by_insertions(self, keys, policy):
        """Re-inserted keys may transiently exist in several runs (one version
        per run) until compaction consolidates them, so the resident entry
        count is bounded by the unique keys below and the total puts above."""
        system = simulator_system(num_entries=1_000)
        tree = LSMTree(LSMTuning(4.0, 4.0, policy), system)
        for key in keys:
            tree.put(key)
        assert len(set(keys)) <= tree.num_entries <= len(keys)
