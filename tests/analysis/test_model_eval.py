"""Tests for the tuning catalog and Table 3 (``analysis.model_eval``).

The figure drivers that reduce the catalog's vectors are tested in
``tests/test_figure_rows.py``, on the same small catalog.
"""

import pytest

from repro.analysis import TuningCatalog, tuning_table
from repro.workloads import UncertaintyBenchmark, expected_workload


class TestTuningCatalog:
    def test_nominal_is_cached(self, catalog):
        expected = expected_workload(11)
        first = catalog.nominal(expected)
        second = catalog.nominal(expected)
        assert first is second

    def test_robust_is_cached_per_rho(self, catalog):
        expected = expected_workload(11)
        first = catalog.robust(expected, 1.0)
        again = catalog.robust(expected, 1.0)
        other = catalog.robust(expected, 0.5)
        assert first is again
        assert other is not first

    def test_robust_records_rho(self, catalog):
        assert catalog.robust(expected_workload(7), 0.5).rho == 0.5

    def test_throughputs_are_cached_per_tuning_and_read_only(self, catalog, small_benchmark):
        expected = expected_workload(11)
        vector = catalog.throughputs(expected, 1.0)
        assert catalog.throughputs(expected, 1.0) is vector
        assert vector.shape == (len(small_benchmark),)
        assert not vector.flags.writeable
        tuning = catalog.robust(expected, 1.0).tuning
        assert vector.tolist() == catalog.cost_model.throughputs(small_benchmark, tuning).tolist()

    def test_two_benchmark_sets_never_share_a_vector(self, catalog):
        other = TuningCatalog(benchmark=UncertaintyBenchmark(size=50, seed=17))
        expected = expected_workload(11)
        assert other.throughputs(expected).shape == (50,)
        assert catalog.throughputs(expected).shape == (200,)

    def test_a_catalog_without_a_benchmark_serves_tunings_only(self):
        bare = TuningCatalog()
        assert bare.nominal(expected_workload(11)).tuning is not None
        with pytest.raises(ValueError, match="benchmark"):
            bare.throughputs(expected_workload(11))


class TestTableAndWinRate:
    def test_tuning_table_covers_all_workloads(self, catalog):
        rows = tuning_table(catalog, rho=1.0)
        assert len(rows) == 15
        assert {row["workload"] for row in rows} == {f"w{i}" for i in range(15)}

    def test_tuning_table_reports_costs(self, catalog):
        rows = tuning_table(catalog, rho=1.0)
        for row in rows:
            assert row["robust_worst_case_cost"] >= row["nominal_cost"] - 1e-6
