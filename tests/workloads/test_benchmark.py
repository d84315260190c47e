"""Tests for Table 2 expected workloads and the uncertainty bench_set."""

import numpy as np
import pytest

from repro.workloads import (
    UncertaintyBenchmark,
    WorkloadCategory,
    expected_workload,
    expected_workloads,
    rho_grid,
)


class TestExpectedWorkloads:
    def test_there_are_fifteen(self):
        assert len(expected_workloads()) == 15

    def test_indices_are_sequential(self):
        assert [w.index for w in expected_workloads()] == list(range(15))

    def test_names_follow_paper_convention(self):
        assert expected_workload(0).name == "w0"
        assert expected_workload(14).name == "w14"

    def test_all_sum_to_one(self):
        for expected in expected_workloads():
            assert sum(expected.workload.as_tuple()) == pytest.approx(1.0)

    def test_every_query_type_has_at_least_one_percent(self):
        for expected in expected_workloads():
            assert min(expected.workload.as_tuple()) >= 0.01 - 1e-12

    def test_category_counts_match_table2(self):
        categories = [expected.category for expected in expected_workloads()]
        assert categories.count(WorkloadCategory.UNIFORM) == 1
        assert categories.count(WorkloadCategory.UNIMODAL) == 4
        assert categories.count(WorkloadCategory.BIMODAL) == 6
        assert categories.count(WorkloadCategory.TRIMODAL) == 4

    def test_specific_rows_match_table2(self):
        assert expected_workload(0).workload.as_tuple() == (0.25, 0.25, 0.25, 0.25)
        assert expected_workload(1).workload.as_tuple() == (0.97, 0.01, 0.01, 0.01)
        assert expected_workload(7).workload.as_tuple() == (0.49, 0.01, 0.01, 0.49)
        assert expected_workload(11).workload.as_tuple() == (0.33, 0.33, 0.33, 0.01)

    def test_out_of_range_index_rejected(self):
        with pytest.raises(IndexError):
            expected_workload(15)

    def test_describe_contains_name_and_category(self):
        text = expected_workload(11).describe()
        assert "w11" in text
        assert "trimodal" in text


class TestUncertaintyBenchmark:
    def test_size_and_iteration(self, bench_set):
        assert len(bench_set) == 500
        assert len(list(bench_set)) == 500

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            UncertaintyBenchmark(size=0)
        with pytest.raises(ValueError):
            UncertaintyBenchmark(max_queries=1)

    def test_workloads_are_valid_distributions(self, bench_set):
        matrix = bench_set.as_matrix()
        assert np.allclose(matrix.sum(axis=1), 1.0)
        assert np.all(matrix >= 0.0)

    def test_reproducible_with_same_seed(self):
        a = UncertaintyBenchmark(size=50, seed=7)
        b = UncertaintyBenchmark(size=50, seed=7)
        assert np.allclose(a.as_matrix(), b.as_matrix())

    def test_different_seeds_differ(self):
        a = UncertaintyBenchmark(size=50, seed=7)
        b = UncertaintyBenchmark(size=50, seed=8)
        assert not np.allclose(a.as_matrix(), b.as_matrix())

    def test_query_counts_within_range(self, bench_set):
        counts = bench_set.query_counts
        assert counts.shape == (500, 4)
        assert counts.min() >= 1
        assert counts.max() < bench_set.max_queries

    def test_counts_normalise_to_workloads(self, bench_set):
        counts = bench_set.query_counts
        normalised = counts / counts.sum(axis=1, keepdims=True)
        assert np.allclose(normalised, bench_set.as_matrix())

    def test_sample_returns_requested_count(self, bench_set):
        assert len(bench_set.sample(10, seed=1)) == 10

    def test_sample_rejects_non_positive(self, bench_set):
        with pytest.raises(ValueError):
            bench_set.sample(0)


class TestBenchmarkDivergences:
    def test_divergences_non_negative(self, bench_set, w0):
        divergences = bench_set.kl_divergences(w0)
        assert np.all(divergences >= -1e-12)

    def test_uniform_reference_has_small_divergences(self, bench_set, w0, w7):
        """Figure 3: divergences w.r.t. the uniform workload are much smaller
        than w.r.t. a highly skewed workload."""
        uniform_divs = bench_set.kl_divergences(w0)
        skewed_divs = bench_set.kl_divergences(expected_workload(1).workload)
        assert uniform_divs.mean() < skewed_divs.mean()

    def test_uniform_divergences_mostly_below_half(self, bench_set, w0):
        divergences = bench_set.kl_divergences(w0)
        assert np.quantile(divergences, 0.9) < 0.5

    def test_within_divergence_filters(self, bench_set, w0):
        subset = bench_set.within_divergence(w0, 0.1)
        assert 0 < len(subset) < len(bench_set)
        for workload in subset:
            assert workload.distance_to(w0) <= 0.1 + 1e-9

    def test_within_divergence_rejects_negative_rho(self, bench_set, w0):
        with pytest.raises(ValueError):
            bench_set.within_divergence(w0, -0.1)

    def test_mean_divergence_is_reasonable_rho(self, bench_set, w11):
        mean = float(np.mean(bench_set.kl_divergences(w11)))
        assert 0.0 < mean < 4.0

    def test_zippydb_like_workload_is_in_benchmark_spirit(self, bench_set):
        """§6: a 78% get / 19% write / 3% range workload has a close neighbour."""
        from repro.workloads import Workload

        zippydb = Workload(0.39, 0.39, 0.03, 0.19)
        divergences = bench_set.kl_divergences(zippydb)
        assert divergences.min() < 0.2


class TestRhoGrid:
    def test_default_grid_matches_paper(self):
        grid = rho_grid()
        assert grid[0] == 0.0
        assert grid[-1] == 4.0
        assert len(grid) == 17
        assert np.allclose(np.diff(grid), 0.25)

    def test_custom_grid(self):
        grid = rho_grid(0.5, 2.0, 0.5)
        assert np.allclose(grid, [0.5, 1.0, 1.5, 2.0])

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            rho_grid(step=0.0)
        with pytest.raises(ValueError):
            rho_grid(2.0, 1.0)
