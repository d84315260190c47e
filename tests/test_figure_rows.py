"""Tests for the figure drivers of ``repro.figures``.

``benchmarks/test_figures.py`` checks every row's claim at figure scale; the
cases here run the drivers on a small benchmark set and with the arguments no
row passes (custom bins, expected-workload subsets, two-ρ grids, small sizes).
"""

from collections import Counter

import numpy as np

from repro.analysis import TuningCatalog, delta_throughputs
from repro.figures import (
    BENCH_SET_SIZE,
    CONTOUR_MAX_KL,
    FIGURES,
    KL_HISTOGRAM_MAX,
    figure3_kl_histograms,
    figure4_delta_by_category,
    figure5_rho_impact,
    figure6_throughput_histograms,
    figure6_throughput_range,
    figure7_contour,
    kvector_frontier,
    policy_frontier,
    scaling_experiment,
    section84_win_rate,
)
from repro.lsm import SystemConfig
from repro.workloads import UncertaintyBenchmark, Workload, expected_workload, expected_workloads


class TestFigure3:
    def test_histogram_structure(self, small_benchmark):
        result = figure3_kl_histograms(small_benchmark, bins=20)
        assert set(result) == {"w0", "w1"}
        assert result["w0"]["density"].shape == (20,)
        assert result["w0"]["bin_edges"].shape == (21,)

    def test_every_finite_divergence_is_binned(self):
        """The last bin is open: the benchmark set B of the table has one
        workload past KL 4.0 from w1, and the densities count it as the
        printed mean does."""
        benchmark = UncertaintyBenchmark(size=BENCH_SET_SIZE, seed=42)
        result = figure3_kl_histograms(benchmark, bins=16)
        width = KL_HISTOGRAM_MAX / 16
        for index in (0, 1):
            data = result[f"w{index}"]
            divergences = benchmark.kl_divergences(expected_workload(index).workload)
            finite = divergences[np.isfinite(divergences)]
            np.testing.assert_allclose(
                data["density"][-1] * width, np.mean(finite >= KL_HISTOGRAM_MAX - width)
            )
            np.testing.assert_allclose(data["density"].sum() * width, 1.0)
        assert np.nanmax(divergences) > KL_HISTOGRAM_MAX  # w1's, the case under test
        assert data["bin_edges"].shape == (17,) and data["bin_edges"][-1] == np.inf


class TestFigure4:
    def test_shape_and_keys(self, catalog, small_benchmark):
        result = figure4_delta_by_category(catalog, rhos=[1.0])
        assert set(result) == {"uniform", "unimodal", "bimodal", "trimodal"}
        assert set(result["trimodal"]) == {1.0}

    def test_skewed_categories_benefit_from_robustness(self, catalog, small_benchmark):
        """The paper's headline: robust tunings help the non-uniform categories."""
        result = figure4_delta_by_category(catalog, rhos=[1.0])
        assert result["trimodal"][1.0] > result["uniform"][1.0]
        assert result["trimodal"][1.0] > 0.2


class TestFigure5:
    def test_structure(self, catalog, small_benchmark):
        result = figure5_rho_impact(catalog, rhos=(0.0, 1.0))
        assert set(result) == {0.0, 1.0}
        assert result[1.0]["kl"].shape == (len(small_benchmark),)
        assert result[1.0]["delta"].shape == (len(small_benchmark),)


class TestFigure6:
    def test_histogram_keys(self, catalog, small_benchmark):
        result = figure6_throughput_histograms(catalog, rhos=(1.0,))
        assert set(result) == {"nominal", "robust_rho_1"}

    def test_robust_narrows_throughput_range(self, catalog, small_benchmark):
        """Figure 6b: the robust throughput range shrinks as rho grows."""
        result = figure6_throughput_range(catalog, rhos=[0.25, 2.0], expected_indices=[7, 11])
        assert result["robust"][2.0] <= result["robust"][0.25] + 1e-9
        assert result["robust"][2.0] <= result["nominal"][2.0]


class TestFigure7:
    def test_grid_shape(self, catalog, small_benchmark):
        result = figure7_contour(catalog, expected_index=11, rhos=[0.5, 1.0], kl_bins=4)
        assert result["delta"].shape == (2, 4)
        assert result["rho_values"].shape == (2,)
        assert result["kl_edges"].shape == (5,)

    def test_moderate_rho_high_divergence_cell_is_positive(self, catalog, small_benchmark):
        result = figure7_contour(catalog, expected_index=11, rhos=[1.0], kl_bins=4)
        row = result["delta"][0]
        finite = row[~np.isnan(row)]
        assert finite[-1] > 0  # the highest-divergence bin favours robustness

    def test_the_last_column_is_open_ended(self):
        """A divergence past the last edge is averaged in the last column, and
        that column's header has no right edge."""
        catalog = TuningCatalog(benchmark=_W7AndAFarMix(size=2))
        w7 = expected_workload(7)
        divergences = catalog.benchmark.kl_divergences(w7.workload)
        assert divergences[0] < 0.8 and divergences[1] > CONTOUR_MAX_KL
        result = figure7_contour(catalog, expected_index=7, rhos=[1.0], kl_bins=4)
        deltas = delta_throughputs(catalog.throughputs(w7), catalog.throughputs(w7, 1.0))
        assert result["delta"][0, 0] == deltas[0]
        assert np.isnan(result["delta"][0, 1:3]).all()
        assert result["delta"][0, -1] == deltas[1]
        render = next(figure.render for figure in FIGURES if figure.name == "fig07_contour_w7")
        header = render(result).splitlines()[1].split()
        assert header == ["rho", "[0.0,0.8)", "[0.8,1.6)", "[1.6,2.4)", "[2.4,inf)"]


class _W7AndAFarMix(UncertaintyBenchmark):
    """w7's own mix, and a point-lookup mix at KL 4.4 from it."""

    def _sample(self):
        counts = np.array([[49.0, 1.0, 1.0, 49.0], [1.0, 97.0, 1.0, 1.0]])
        return counts, [Workload.from_counts(row) for row in counts]


class TestSection84:
    def test_win_rate_exceeds_half_for_skewed_workloads(self, catalog, small_benchmark):
        """§8.4 (scaled down): the robust tuning wins the majority of
        comparisons for non-uniform expected workloads."""
        result = section84_win_rate(catalog, rhos=[1.0], expected_indices=[7, 11])
        assert result["win_rate"] > 0.5
        assert result["comparisons"] == 2 * len(small_benchmark)


class TestOneCostVectorPerTuning:
    def test_figs_4_6b_and_84_build_one_vector_per_tuning(self, count_cost_vectors):
        """Figs 4, 6b and §8.4 over 1 000 workloads price each (expected
        workload, tuning) once, however many figures reduce its vector."""
        rhos = (0.5, 1.0)
        catalog = TuningCatalog(benchmark=UncertaintyBenchmark(size=1_000, seed=42))
        calls = count_cost_vectors(catalog.cost_model)
        figure4_delta_by_category(catalog, rhos=rhos)
        figure6_throughput_range(catalog, rhos=rhos, expected_indices=(7, 11))
        section84_win_rate(catalog, rhos=rhos, expected_indices=range(15))
        tunings = {
            result.tuning
            for expected in expected_workloads()
            for result in (catalog.nominal(expected), *(catalog.robust(expected, r) for r in rhos))
        }
        assert Counter(calls) == Counter((tuning, 0.0) for tuning in tunings)
        assert len(calls) <= len(expected_workloads()) * (1 + len(rhos))


class TestPolicyTable:
    def test_rows_cover_every_policy(self, catalog):
        """``policy_frontier`` over Table 2 rows, one policy at a time."""
        rows = policy_frontier(
            [(f"w{i}", expected_workload(i).workload) for i in (4, 11)],
            system=catalog.system,
        )
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
        rows = kvector_frontier(
            [
                ("mixed", Workload(0.05, 0.25, 0.05, 0.65, long_range_fraction=0.3)),
                ("reads", Workload(0.4, 0.4, 0.1, 0.1)),
            ],
            system=SystemConfig(),
            ratio_candidates=np.arange(2.0, 9.0),
        )
        assert [row["workload"] for row in rows] == ["mixed", "reads"]
        for row in rows:
            # The vector family contains every uniform design.
            assert 0.0 <= row["vector_advantage"] < 1.0
            assert row["vector_cost"] <= row["uniform_cost"]
            if row["vector_k_bounds"] is not None:
                assert all(b >= 1.0 for b in row["vector_k_bounds"])


class TestScalingExperiment:
    def test_figure16_gap_is_stable_across_sizes(self):
        rows = scaling_experiment(
            sizes=(4_000, 12_000),
            queries_per_workload=200,
            seed=7,
        )
        assert len(rows) == 2
        for row in rows:
            assert row["nominal_io_per_query"] >= 0.0
            assert row["robust_io_per_query"] >= 0.0
        # Buffer memory grows with the database size for both tunings.
        assert rows[1]["nominal_buffer_bytes"] > rows[0]["nominal_buffer_bytes"]
        assert rows[1]["robust_buffer_bytes"] > rows[0]["robust_buffer_bytes"]
