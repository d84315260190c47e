"""Tests for the model-based evaluation (``analysis.model_eval``).

The Figure 3–7, Table 3 and §8.4 functions also back rows of
``benchmarks/figures.py``, whose claims check them at figure scale; the cases
here run them on a small benchmark set and with the arguments no row passes
(custom bins, category and expected-workload subsets, two-ρ grids).
"""

import numpy as np
import pytest

from repro.analysis import (
    TuningCatalog,
    figure3_kl_histograms,
    figure4_delta_by_category,
    figure5_rho_impact,
    figure6_throughput_histograms,
    figure6_throughput_range,
    figure7_contour,
    section84_win_rate,
    tuning_table,
)
from repro.workloads import UncertaintyBenchmark, WorkloadCategory, expected_workload


@pytest.fixture(scope="module")
def catalog():
    return TuningCatalog()


@pytest.fixture(scope="module")
def small_benchmark():
    return UncertaintyBenchmark(size=200, seed=17)


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


class TestFigure3:
    def test_histogram_structure(self, small_benchmark):
        result = figure3_kl_histograms(small_benchmark, reference_indices=(0, 1), bins=20)
        assert set(result) == {"w0", "w1"}
        assert result["w0"]["density"].shape == (20,)
        assert result["w0"]["bin_edges"].shape == (21,)


class TestFigure4:
    def test_shape_and_keys(self, catalog, small_benchmark):
        result = figure4_delta_by_category(
            catalog,
            small_benchmark,
            rhos=[1.0],
            categories=[WorkloadCategory.UNIFORM, WorkloadCategory.TRIMODAL],
        )
        assert set(result) == {"uniform", "trimodal"}
        assert set(result["trimodal"]) == {1.0}

    def test_skewed_categories_benefit_from_robustness(self, catalog, small_benchmark):
        """The paper's headline: robust tunings help the non-uniform categories."""
        result = figure4_delta_by_category(
            catalog,
            small_benchmark,
            rhos=[1.0],
            categories=[WorkloadCategory.UNIFORM, WorkloadCategory.TRIMODAL],
        )
        assert result["trimodal"][1.0] > result["uniform"][1.0]
        assert result["trimodal"][1.0] > 0.2


class TestFigure5:
    def test_structure(self, catalog, small_benchmark):
        result = figure5_rho_impact(
            catalog, small_benchmark, expected_index=11, rhos=(0.0, 1.0)
        )
        assert set(result) == {0.0, 1.0}
        assert result[1.0]["kl"].shape == (len(small_benchmark),)
        assert result[1.0]["delta"].shape == (len(small_benchmark),)


class TestFigure6:
    def test_histogram_keys(self, catalog, small_benchmark):
        result = figure6_throughput_histograms(
            catalog, small_benchmark, expected_index=11, rhos=(1.0,)
        )
        assert "nominal" in result
        assert "robust_rho_1" in result

    def test_robust_narrows_throughput_range(self, catalog, small_benchmark):
        """Figure 6b: the robust throughput range shrinks as rho grows."""
        result = figure6_throughput_range(
            catalog,
            small_benchmark,
            rhos=[0.25, 2.0],
            expected_indices=[7, 11],
        )
        assert result["robust"][2.0] <= result["robust"][0.25] + 1e-9
        assert result["robust"][2.0] <= result["nominal"][2.0]


class TestFigure7:
    def test_grid_shape(self, catalog, small_benchmark):
        result = figure7_contour(
            catalog, small_benchmark, expected_index=11, rhos=[0.5, 1.0], kl_bins=4
        )
        assert result["delta"].shape == (2, 4)
        assert result["rho_values"].shape == (2,)
        assert result["kl_edges"].shape == (5,)

    def test_moderate_rho_high_divergence_cell_is_positive(self, catalog, small_benchmark):
        result = figure7_contour(
            catalog, small_benchmark, expected_index=11, rhos=[1.0], kl_bins=4
        )
        row = result["delta"][0]
        finite = row[~np.isnan(row)]
        assert finite[-1] > 0  # the highest-divergence bin favours robustness


class TestTableAndWinRate:
    def test_tuning_table_covers_all_workloads(self, catalog):
        rows = tuning_table(catalog, rho=1.0)
        assert len(rows) == 15
        assert {row["workload"] for row in rows} == {f"w{i}" for i in range(15)}

    def test_tuning_table_reports_costs(self, catalog):
        rows = tuning_table(catalog, rho=1.0)
        for row in rows:
            assert row["robust_worst_case_cost"] >= row["nominal_cost"] - 1e-6

    def test_win_rate_exceeds_half_for_skewed_workloads(self, catalog, small_benchmark):
        """§8.4 (scaled down): the robust tuning wins the majority of
        comparisons for non-uniform expected workloads."""
        result = section84_win_rate(
            catalog,
            small_benchmark,
            rhos=[1.0],
            expected_indices=[7, 11],
        )
        assert result["win_rate"] > 0.5
        assert result["comparisons"] == 2 * len(small_benchmark)


class TestCostLandscape:
    def test_landscape_shape_and_positivity(self):
        from repro.analysis import cost_landscape
        from repro.lsm import Policy

        workload = expected_workload(0).workload
        surface = cost_landscape(workload, Policy.LAZY_LEVELING, bits_grid_points=7)
        assert surface["cost"].shape == (
            surface["size_ratios"].size,
            surface["bits_per_entry"].size,
        )
        assert np.all(surface["cost"] > 0)

    def test_landscape_minimum_matches_grid_tuner(self):
        from repro.analysis import cost_landscape
        from repro.core import GridTuner
        from repro.lsm import Policy

        workload = expected_workload(11).workload
        surface = cost_landscape(workload, Policy.LEVELING, bits_grid_points=33)
        grid = GridTuner(bits_grid_points=33, policies=(Policy.LEVELING,)).tune(workload)
        assert float(surface["cost"].min()) == pytest.approx(grid.objective, rel=1e-9)


class TestPolicyTable:
    def test_rows_cover_every_policy(self, catalog):
        from repro.analysis import policy_table

        rows = policy_table(catalog, expected_indices=(4, 11))
        assert len(rows) == 2
        for row in rows:
            for key in (
                "leveling_cost",
                "tiering_cost",
                "lazy-leveling_cost",
                "best_policy",
            ):
                assert key in row
            costs = {
                p: row[f"{p}_cost"]
                for p in ("leveling", "tiering", "lazy-leveling")
            }
            assert row["best_policy"] == min(costs, key=costs.get)


class TestKVectorFrontier:
    def test_rows_compare_uniform_and_vector_optima(self):
        from repro.analysis import kvector_frontier
        from repro.workloads import Workload

        rows = kvector_frontier(
            [
                ("mixed", Workload(0.05, 0.25, 0.05, 0.65, long_range_fraction=0.3)),
                ("reads", Workload(0.4, 0.4, 0.1, 0.1)),
            ],
            ratio_candidates=np.arange(2.0, 9.0),
        )
        assert [row["workload"] for row in rows] == ["mixed", "reads"]
        for row in rows:
            # The vector family contains every uniform design.
            assert 0.0 <= row["vector_advantage"] < 1.0
            assert row["vector_cost"] <= row["uniform_cost"]
            if row["vector_k_bounds"] is not None:
                assert all(b >= 1.0 for b in row["vector_k_bounds"])
