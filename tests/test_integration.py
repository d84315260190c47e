"""End-to-end integration tests: tuner -> cost model -> simulator.

These tests exercise the full pipeline the paper describes: compute nominal
and robust tunings for an expected workload, evaluate them analytically over
the uncertainty bench_set, then deploy them on the simulated storage engine
and confirm that the analytical predictions carry over to measured I/O.
"""

import numpy as np
import pytest

from repro.analysis import SystemExperiment, delta_throughputs, win_rate
from repro.core import NominalTuner, RobustTuner, UncertaintyRegion
from repro.lsm import LSMCostModel, LSMTuning, Policy, simulator_system
from repro.storage import ExecutorConfig, WorkloadExecutor
from repro.workloads import UncertaintyBenchmark, Workload, expected_workload
from repro.workloads.sessions import Session, SessionSequence, SessionType


class TestModelPipeline:
    """Endure's model-based claims on a reduced bench_set."""

    def test_robust_beats_nominal_on_most_noisy_workloads(
        self, system, w11, nominal_w11, robust_w11_rho1, bench_set
    ):
        """Headline claim (§7.3): for a skewed expected workload the robust
        tuning outperforms the nominal one on the bulk of the bench_set."""
        model = LSMCostModel(system)
        rate = win_rate(
            model.throughputs(bench_set, nominal_w11.tuning),
            model.throughputs(bench_set, robust_w11_rho1.tuning),
        )
        assert rate > 0.6

    def test_average_delta_throughput_is_large_for_w11(
        self, system, nominal_w11, robust_w11_rho1, bench_set
    ):
        """§7.3 reports >95% average improvement for skewed workloads with
        rho >= 0.5; require a substantial improvement on the reduced set."""
        model = LSMCostModel(system)
        deltas = delta_throughputs(
            model.throughputs(bench_set, nominal_w11.tuning),
            model.throughputs(bench_set, robust_w11_rho1.tuning),
        )
        assert float(np.mean(deltas)) > 0.3

    def test_nominal_slightly_better_when_workload_matches(
        self, system, w11, nominal_w11, robust_w11_rho1
    ):
        """On the exact expected workload the nominal tuning must win (it is
        the optimum there) but the robust loss stays bounded."""
        model = LSMCostModel(system)
        (delta,) = delta_throughputs(
            model.throughputs([w11], nominal_w11.tuning),
            model.throughputs([w11], robust_w11_rho1.tuning),
        )
        assert delta <= 0.0
        assert delta > -0.9

    def test_worst_case_ordering_holds_for_all_expected_workloads(self, system):
        """For every Table 2 workload, the robust tuning's worst case is no
        worse than the nominal tuning's worst case (the defining property)."""
        model = LSMCostModel(system)
        for index in (1, 4, 7, 11):
            expected = expected_workload(index).workload
            nominal = NominalTuner(system=system, seed=4).tune(expected)
            robust = RobustTuner(rho=1.0, system=system, seed=4).tune(expected)
            region = UncertaintyRegion(expected=expected, rho=1.0)
            nominal_worst = region.worst_case_cost(model.cost_vector(nominal.tuning))
            robust_worst = region.worst_case_cost(model.cost_vector(robust.tuning))
            assert robust_worst <= nominal_worst + 1e-6


class TestModelSimulatorAgreement:
    """Measured I/Os per operation vs the analytical prediction, per policy.

    One fixed trace per query type is replayed under every registered policy
    (including a fluid tuning with interior run bounds) and the measured
    I/Os per operation are compared against the corresponding component of
    ``LSMCostModel``'s prediction.  The model is a *steady-state worst case*
    — runs per level at their bound, every qualifying run seeked — while the
    simulator is an average case with fence pointers and partially filled
    levels, so the tolerance is per query type:

    * non-empty reads are tightly predicted (every lookup really pays its
      residence-level page),
    * writes agree within the compaction-amortisation noise of a short
      session,
    * empty reads and range seeks are upper-bounded by the model (Bloom
      filters and fence pointers only ever remove I/Os) but must stay within
      a constant factor, or the model would be useless for tuning.
    """

    #: Policies deployed on the simulator, exercising every runtime hook.
    POLICY_TUNINGS = [
        LSMTuning(6.0, 6.0, Policy.LEVELING),
        LSMTuning(6.0, 6.0, Policy.TIERING),
        LSMTuning(6.0, 6.0, Policy.LAZY_LEVELING),
        LSMTuning(6.0, 6.0, Policy.ONE_LEVELING),
        LSMTuning(6.0, 6.0, Policy.FLUID, k_bound=3, z_bound=1),
        LSMTuning(6.0, 6.0, Policy.FLUID, k_bound=2, z_bound=2),
    ]

    #: (measured / predicted) bands per query-type session.
    TOLERANCES = {
        "z1": (0.75, 1.25),
        "w": (0.4, 1.3),
        "z0": (0.25, 1.25),
        "q": (0.1, 1.1),
    }

    SESSION_WORKLOADS = {
        "z0": Workload(0.98, 0.01, 0.0, 0.01),
        "z1": Workload(0.01, 0.98, 0.0, 0.01),
        "q": Workload(0.01, 0.01, 0.97, 0.01),
        "w": Workload(0.01, 0.01, 0.0, 0.98),
    }

    @pytest.fixture(scope="class")
    def harness(self):
        system = simulator_system(num_entries=6_000)
        executor = WorkloadExecutor(
            system, ExecutorConfig(queries_per_workload=800, seed=17)
        )
        return system, executor, LSMCostModel(system)

    @pytest.mark.parametrize(
        "tuning", POLICY_TUNINGS, ids=lambda t: t.describe().replace(" ", "")
    )
    def test_measured_ios_track_model_predictions(self, harness, tuning):
        _, executor, model = harness
        for name, workload in self.SESSION_WORKLOADS.items():
            session = Session(SessionType.EXPECTED, name, (workload,))
            sequence = SessionSequence(expected=workload, sessions=(session,))
            measured = executor.run_sequence(tuning, sequence).sessions[0].ios_per_query
            predicted = model.workload_cost(workload, tuning)
            ratio = measured / predicted
            lo, hi = self.TOLERANCES[name]
            assert lo <= ratio <= hi, (
                f"{tuning.describe()} {name}: measured {measured:.3f} vs "
                f"predicted {predicted:.3f} (ratio {ratio:.2f} outside [{lo}, {hi}])"
            )

    def test_fluid_write_cost_interpolates_on_the_simulator(self, harness):
        """Measured write I/O of fluid (K = 3) lies between its leveling and
        tiering corners — the runtime really executes the bounded-K merge
        schedule the analytics amortise."""
        _, executor, _ = harness
        workload = self.SESSION_WORKLOADS["w"]
        session = Session(SessionType.EXPECTED, "w", (workload,))
        sequence = SessionSequence(expected=workload, sessions=(session,))

        def measured(tuning):
            return executor.run_sequence(tuning, sequence).sessions[0].ios_per_query

        leveled = measured(LSMTuning(6.0, 6.0, Policy.FLUID, k_bound=1, z_bound=1))
        interior = measured(LSMTuning(6.0, 6.0, Policy.FLUID, k_bound=3, z_bound=1))
        tiered = measured(LSMTuning(6.0, 6.0, Policy.FLUID, k_bound=5, z_bound=5))
        assert tiered < interior < leveled


class TestLongRangeAgreementUnderChurn:
    """Long-range simulator-vs-model agreement under obsolete versions.

    The long-range cost model charges *every resident run* of a level with
    the scan selectivity's share of the level's capacity — a worst case
    driven by obsolete versions: after heavy updates, each run on a key's
    path holds its own stale copy and a long scan pays to read them all.
    Fresh-key traces cannot exhibit that (every key exists exactly once, so
    all policies measure alike and the model's per-policy spread looks like
    pure pessimism); the update-heavy trace generator closes the gap.

    Pinned here, per compaction policy:

    * churn strictly amplifies the measured long-scan cost,
    * the churned measurements *rank* the policies exactly as the model's
      long-range term does (tiering worst, leveling best, the hybrids in
      between) — the ordering a tuner needs,
    * measured/predicted stays within a constant-factor band (the model is
      a steady-state worst case; the simulator is an average case).
    """

    POLICY_TUNINGS = [
        LSMTuning(6.0, 6.0, Policy.TIERING),
        LSMTuning(6.0, 6.0, Policy.LEVELING),
        LSMTuning(6.0, 6.0, Policy.LAZY_LEVELING),
        LSMTuning(6.0, 6.0, Policy.FLUID, k_bound=3, z_bound=1),
    ]

    #: (measured / predicted) band for churned long scans, per policy family:
    #: worst-case run counts are rarely all resident at once, so the model
    #: upper-bounds the simulator — but within a useful constant factor.
    AGREEMENT_BAND = (0.10, 1.1)

    @pytest.fixture(scope="class")
    def harness(self):
        system = simulator_system(num_entries=6_000)
        long_keys = max(
            16, int(system.long_range_selectivity * system.num_entries)
        )
        churn = Workload(0.0, 0.0, 0.0, 1.0)
        scan = Workload(0.0, 0.0, 1.0, 0.0, long_range_fraction=1.0)
        sequence = SessionSequence(
            expected=scan,
            sessions=(
                Session(SessionType.WRITE, "churn", (churn,)),
                Session(SessionType.RANGE, "scan", (scan,)),
            ),
        )

        def measure(tuning: LSMTuning, update_fraction: float) -> float:
            executor = WorkloadExecutor(
                system,
                ExecutorConfig(
                    queries_per_workload=600,
                    seed=17,
                    update_fraction=update_fraction,
                    long_scan_keys=long_keys,
                ),
            )
            return executor.run_sequence(tuning, sequence).sessions[1].read_ios_per_query

        return LSMCostModel(system), measure

    def test_churn_amplifies_and_model_band_holds(self, harness):
        model, measure = harness
        lo, hi = self.AGREEMENT_BAND
        for tuning in self.POLICY_TUNINGS:
            fresh = measure(tuning, update_fraction=0.0)
            churned = measure(tuning, update_fraction=0.9)
            assert churned > fresh, (
                f"{tuning.describe()}: update churn must amplify long scans "
                f"(fresh {fresh:.2f}, churned {churned:.2f})"
            )
            predicted = model.cost_vector(tuning, 1.0)[2]  # Q at ν = 1
            ratio = churned / predicted
            assert lo <= ratio <= hi, (
                f"{tuning.describe()}: churned long scans measured "
                f"{churned:.2f} vs predicted {predicted:.2f} "
                f"(ratio {ratio:.2f} outside [{lo}, {hi}])"
            )

    def test_churned_measurements_rank_policies_like_the_model(self, harness):
        model, measure = harness
        predicted = [model.cost_vector(t, 1.0)[2] for t in self.POLICY_TUNINGS]
        churned = [measure(t, update_fraction=0.9) for t in self.POLICY_TUNINGS]
        model_order = sorted(range(len(predicted)), key=predicted.__getitem__)
        measured_order = sorted(range(len(churned)), key=churned.__getitem__)
        assert measured_order == model_order, (
            "obsolete-version amplification must rank the policies exactly "
            f"as the long-range model does (model {model_order}, "
            f"measured {measured_order})"
        )


class TestSystemPipeline:
    """Model predictions versus simulator measurements."""

    @pytest.fixture(scope="class")
    def experiment(self):
        return SystemExperiment(
            system=simulator_system(num_entries=6_000),
            executor_config=ExecutorConfig(queries_per_workload=400, seed=19),
            benchmark=UncertaintyBenchmark(size=300, seed=19),
            seed=19,
        )

    @pytest.fixture(scope="class")
    def comparison(self, experiment):
        return experiment.run(
            expected_workload(11).workload, rho=1.0, include_writes=True,
            workloads_per_session=1,
        )

    def test_model_and_system_agree_on_who_wins_overall(self, comparison):
        """§8.3: the cost model accurately captures the *relative* performance
        of tunings — the tuning the model prefers over the whole sequence is
        also the one the simulator measures as cheaper."""
        model_nominal = sum(comparison.model_ios["nominal"])
        model_robust = sum(comparison.model_ios["robust"])
        system_nominal = sum(comparison.system_ios("nominal"))
        system_robust = sum(comparison.system_ios("robust"))
        assert (model_robust < model_nominal) == (system_robust < system_nominal)

    def test_robust_reduces_io_for_w11(self, comparison):
        assert comparison.summary["io_reduction"] > 0.0

    def test_summary_means_are_the_sequence_averages(self, comparison):
        """One definition of a sequence mean: the summary reads each
        column's ``average_ios_per_query`` rather than re-averaging."""
        summary = comparison.summary
        for name in ("nominal", "robust"):
            column = comparison.measurements[name]
            assert summary[f"{name}_mean_io_per_query"] == column.average_ios_per_query
