"""The paper's tables and figures, one row each.

A row of ``FIGURES`` is one table under ``benchmarks/results/``: its name,
the experiment call that computes it from the shared ``SessionState``, the
claim the paper (or this repository) makes about it — a predicate on that
call's result — and the renderer that prints it.  ``benchmarks/test_figures.py``
runs every row once, asserts its claim and writes ``results/<name>.txt``; the
committed copies are the paper-vs-measured record (README.md,
"Paper-reproduction notes").

Scale knobs (benchmark-set size, queries per session, ρ grid) default to
laptop-friendly values; the paper's own settings are noted next to each.
"""

from __future__ import annotations

import tempfile
from dataclasses import dataclass
from functools import cached_property
from typing import Any, Callable, Sequence

import numpy as np

from .analysis import (
    AdaptiveExperiment,
    SystemExperiment,
    TuningCatalog,
    delta_throughputs,
    endurance,
    format_adaptive_comparison,
    format_comparison,
    format_endurance_comparison,
    throughput_range,
    tuning_table,
    win_rate,
)
from .analysis.comparison import ADAPTIVE_RHO, FULL, INCREMENTAL
from .core import NominalTuner
from .lsm import LSMCostModel, LSMTuning, Policy, SystemConfig, simulator_system
from .lsm.system import MIB
from .online import OnlineConfig
from .serving import partition_keys, shard_operations
from .storage import ExecutorConfig, FileStore, IOCounters, LSMTree, WorkloadExecutor
from .storage.lsm_tree import execute_operation, execute_operations_batched
from .workloads import (
    KeySpace,
    Session,
    SessionGenerator,
    SessionSequence,
    SessionType,
    TraceGenerator,
    UncertaintyBenchmark,
    Workload,
    WorkloadCategory,
    expected_workload,
    expected_workloads,
)

#: Reduced ρ grid reused across model-based figures (paper: 0…4 step 0.25).
RHO_VALUES = (0.25, 0.5, 1.0, 2.0)

#: The ρ of each panel of Figures 5 and 6a, and their expected workload.
PANEL_RHOS = (0.0, 0.25, 1.0, 2.0)
PANEL_INDEX = 11

#: Largest divergence the Figure 3 histograms bin.
KL_HISTOGRAM_MAX = 4.0

#: Figure 16's expected workload and ρ.
SCALING_INDEX = 11
SCALING_RHO = 0.25

#: Samples in the uncertainty benchmark B (paper: 10 000).
BENCH_SET_SIZE = 1_000


@dataclass(frozen=True)
class Figure:
    """One paper artefact: its table name, how it is computed, what it
    claims and how it prints."""

    name: str
    run: Callable[[SessionState], Any]
    claim: Callable[[Any], bool]
    render: Callable[[Any], str]


class SessionState:
    """The expensive state rows share, each piece built on first use.

    Tunings computed for one figure are reused by the others, mirroring how
    the paper's experiment pipeline runs.
    """

    @cached_property
    def catalog(self) -> TuningCatalog:
        """Nominal and robust tunings on the model-scale (paper default)
        system, and their throughputs over the benchmark set."""
        return TuningCatalog(system=SystemConfig(), benchmark=self.bench_set)

    @cached_property
    def bench_set(self) -> UncertaintyBenchmark:
        """The sampled uncertainty benchmark B."""
        return UncertaintyBenchmark(size=BENCH_SET_SIZE, seed=42)

    @cached_property
    def system_experiment(self) -> SystemExperiment:
        """The simulator experiment behind Figures 1 and 8–18."""
        return SystemExperiment(
            system=simulator_system(num_entries=20_000),
            executor_config=ExecutorConfig(queries_per_workload=1_000, seed=29),
            benchmark=UncertaintyBenchmark(size=500, seed=29),
            seed=29,
        )


# ----------------------------------------------------------------------
# Figure 1 — expected tuning vs per-session perfect tuning
# ----------------------------------------------------------------------
def _motivation(state: SessionState) -> list[tuple[str, float, float]]:
    """A database tuned for a point-read-heavy workload meets a session whose
    reads shift to short range queries: ``(session, model cost of the
    expected tuning, model cost of that session's perfect tuning)``."""
    expected = Workload(z0=0.20, z1=0.20, q=0.06, w=0.54)
    shifted = Workload(z0=0.02, z1=0.02, q=0.41, w=0.55)
    experiment = state.system_experiment
    sequence = SessionGenerator(experiment.benchmark, seed=experiment.seed).motivation_sequence(
        expected, shifted, workloads_per_session=2
    )
    deployed = experiment.tunings_for(expected, 1.0)["nominal"]
    tuner = NominalTuner(system=experiment.system)
    perfect = {
        "expected workload": tuner.tune(expected).tuning,
        "uncertain workload": tuner.tune(shifted).tuning,
    }
    cost = experiment.cost_model.workload_cost
    return [
        (session.label, cost(session.average, deployed),
         cost(session.average, perfect[session.label]))
        for session in sequence
    ]


def _motivation_claim(rows) -> bool:
    # Paper shape: the shifted middle session costs the statically tuned
    # system noticeably more than the surrounding expected sessions.
    costs = [cost for _, cost, _ in rows]
    return len(costs) == 3 and costs[1] > costs[0] and costs[1] > costs[2]


def _render_motivation(rows) -> str:
    return "\n".join([
        "Figure 1: expected tuning vs per-session perfect tuning (model I/Os per query)",
        f"{'session':<22}{'expected tuning':<18}{'perfect tuning':<18}",
        *(f"{label:<22}{cost:<18.2f}{perfect:<18.2f}" for label, cost, perfect in rows),
    ])


# ----------------------------------------------------------------------
# Figures 3–7 — the model-based evaluation over the benchmark set
# ----------------------------------------------------------------------
def figure3_kl_histograms(
    benchmark: UncertaintyBenchmark, bins: int
) -> dict[str, dict[str, np.ndarray]]:
    """Histogram the KL divergence of the benchmark from w0 and from w1."""
    result = {}
    edges = np.linspace(0.0, KL_HISTOGRAM_MAX, bins + 1)
    for index in (0, 1):
        reference = expected_workload(index)
        divergences = benchmark.kl_divergences(reference.workload)
        finite = divergences[np.isfinite(divergences)]
        density, _ = np.histogram(finite, bins=edges, density=True)
        result[reference.name] = {
            "density": density,
            "bin_edges": edges,
            "mean": np.array([finite.mean()]),
        }
    return result


def _kl_histograms_claim(result) -> bool:
    # The uniform reference w0 produces a tight histogram near zero, the
    # highly skewed w1 spreads out to divergences > 1.
    return (
        set(result) == {"w0", "w1"}
        and all(
            data["density"].shape == (16,) and data["bin_edges"].shape == (17,)
            for data in result.values()
        )
        and result["w0"]["mean"][0] < result["w1"]["mean"][0]
    )


def _render_kl_histograms(result) -> str:
    lines = ["Figure 3: histogram of I_KL(w_hat, w) over the benchmark set B"]
    for name, data in result.items():
        lines.append(f"\nreference {name} (mean divergence {data['mean'][0]:.3f})")
        edges = data["bin_edges"]
        for i, density in enumerate(data["density"]):
            bar = "#" * int(round(40 * density / max(data["density"].max(), 1e-9)))
            lines.append(f"  [{edges[i]:.2f}, {edges[i + 1]:.2f}) {density:6.3f} {bar}")
    return "\n".join(lines)


def figure4_delta_by_category(
    catalog: TuningCatalog, rhos: Sequence[float]
) -> dict[str, dict[float, float]]:
    """Mean ``Δ_ŵ(Φ_N, Φ_R)`` per expected-workload category and ρ."""
    result = {}
    for category in WorkloadCategory:
        members = [w for w in expected_workloads() if w.category is category]
        result[category.value] = {
            float(rho): float(np.mean([
                float(np.mean(delta_throughputs(
                    catalog.throughputs(expected), catalog.throughputs(expected, rho)
                )))
                for expected in members
            ]))
            for rho in rhos
        }
    return result


def _delta_by_category_claim(result) -> bool:
    # Unimodal/bimodal/trimodal categories gain substantially from robust
    # tuning for ρ >= 0.5; the uniform category does not.
    return (
        set(result) == {"uniform", "unimodal", "bimodal", "trimodal"}
        and all(set(per_rho) == set(RHO_VALUES) for per_rho in result.values())
        and all(result[category][1.0] > 0.2 for category in ("unimodal", "bimodal", "trimodal"))
        and result["uniform"][1.0] < result["trimodal"][1.0]
    )


def _render_delta_by_category(result) -> str:
    return "\n".join([
        "Figure 4: mean delta throughput Delta(Phi_N, Phi_R) by category",
        f"{'category':<12}" + "".join(f"rho={rho:<8g}" for rho in RHO_VALUES),
        *(
            f"{category:<12}" + "".join(f"{per_rho[rho]:<12.3f}" for rho in RHO_VALUES)
            for category, per_rho in result.items()
        ),
    ])


def figure5_rho_impact(
    catalog: TuningCatalog, rhos: Sequence[float]
) -> dict[float, dict[str, np.ndarray | str]]:
    """Per ρ, ``Δ_ŵ(Φ_N, Φ_R)`` against ``I_KL(ŵ, w)`` over the benchmark."""
    expected = expected_workload(PANEL_INDEX)
    nominal = catalog.throughputs(expected)
    divergences = catalog.benchmark.kl_divergences(expected.workload)
    return {
        float(rho): {
            "kl": divergences.copy(),
            "delta": delta_throughputs(nominal, catalog.throughputs(expected, rho)),
            "tuning": catalog.robust(expected, rho).tuning.describe(),
        }
        for rho in rhos
    }


def _rho_impact_claim(result) -> bool:
    # At ρ = 0 the robust tuning matches the nominal; for larger ρ the
    # advantage grows with the observed divergence.
    kl, delta = result[1.0]["kl"], result[1.0]["delta"]
    return (
        set(result) == set(PANEL_RHOS)
        and all(
            data["kl"].shape == data["delta"].shape == (BENCH_SET_SIZE,)
            for data in result.values()
        )
        and np.abs(np.median(result[0.0]["delta"])) < 0.25
        and np.mean(delta[kl > 1.0]) > 0.0
        and delta[kl > np.median(kl)].mean() > delta[kl <= np.median(kl)].mean()
    )


def _render_rho_impact(result) -> str:
    lines = ["Figure 5: delta throughput vs I_KL(w_hat, w11) for increasing rho"]
    edges = np.linspace(0.0, 4.0, 9)
    for rho, data in result.items():
        kl, delta = data["kl"], data["delta"]
        lines.append(f"\nrho = {rho:g}  robust tuning: {data['tuning']}")
        lines.append(f"{'KL bin':<16}{'mean delta':<12}{'samples':<8}")
        for lo, hi in zip(edges[:-1], edges[1:]):
            mask = (kl >= lo) & (kl < hi)
            if mask.any():
                lines.append(
                    f"[{lo:.1f}, {hi:.1f})      {np.mean(delta[mask]):<12.3f}{int(mask.sum()):<8}"
                )
    return "\n".join(lines)


def figure6_throughput_histograms(
    catalog: TuningCatalog, rhos: Sequence[float]
) -> dict[str, dict]:
    """The nominal and each robust tuning's throughput over the benchmark."""
    expected = expected_workload(PANEL_INDEX)
    result = {
        "nominal": {
            "throughput": catalog.throughputs(expected),
            "tuning": catalog.nominal(expected).tuning.describe(),
        }
    }
    for rho in rhos:
        result[f"robust_rho_{rho:g}"] = {
            "throughput": catalog.throughputs(expected, rho),
            "tuning": catalog.robust(expected, rho).tuning.describe(),
        }
    return result


def _throughput_histograms_claim(result) -> bool:
    # At ρ = 0 the robust tuning is the nominal one, workload for workload;
    # every ρ > 0 lifts the worst-case throughput above the nominal's.
    nominal = result["nominal"]["throughput"]
    robust = {rho: result[f"robust_rho_{rho:g}"]["throughput"] for rho in PANEL_RHOS}
    return (
        set(result) == {"nominal", *(f"robust_rho_{rho:g}" for rho in PANEL_RHOS)}
        and np.array_equal(robust[0.0], nominal)
        and all(tp.min() > nominal.min() for rho, tp in robust.items() if rho > 0)
    )


def _render_throughput_histograms(result) -> str:
    lines = ["Figure 6a: throughput distribution 1/C(w_hat, Phi) for w11 tunings"]
    for name, data in result.items():
        tp = data["throughput"]
        lines.append(
            f"{name:<18} tuning[{data['tuning']}]  "
            f"min={tp.min():.3f} median={np.median(tp):.3f} max={tp.max():.3f}"
        )
    return "\n".join(lines)


def figure6_throughput_range(
    catalog: TuningCatalog, rhos: Sequence[float], expected_indices: Sequence[int]
) -> dict[str, dict[float, float]]:
    """Mean throughput range ``Θ_B`` over the expected workloads, per ρ; the
    nominal range does not depend on ρ and is repeated in every column."""
    members = [expected_workload(index) for index in expected_indices]

    def mean_range(rho: float | None) -> float:
        return float(np.mean([
            throughput_range(catalog.throughputs(expected, rho)) for expected in members
        ]))

    nominal = mean_range(None)
    return {
        "nominal": {float(rho): nominal for rho in rhos},
        "robust": {float(rho): mean_range(rho) for rho in rhos},
    }


def _throughput_range_claim(result) -> bool:
    # The robust throughput range shrinks as ρ grows and ends below the
    # nominal range.
    robust, nominal = result["robust"], result["nominal"]
    return (
        robust[RHO_VALUES[-1]] <= robust[RHO_VALUES[0]] + 1e-9
        and robust[RHO_VALUES[-1]] <= nominal[RHO_VALUES[-1]]
    )


def _render_throughput_range(result) -> str:
    return "\n".join([
        "Figure 6b: throughput range Theta_B(Phi) vs rho (mean over workloads)",
        f"{'rho':<8}{'nominal':<12}{'robust':<12}",
        *(
            f"{rho:<8g}{result['nominal'][rho]:<12.3f}{result['robust'][rho]:<12.3f}"
            for rho in RHO_VALUES
        ),
    ])


#: ρ rows and observed-divergence columns of the Figure 7 contours.
CONTOUR_RHOS = (0.25, 0.5, 1.0, 2.0, 3.0)
CONTOUR_KL_BINS = 6
CONTOUR_MAX_KL = 3.2


def figure7_contour(
    catalog: TuningCatalog, expected_index: int, rhos: Sequence[float], kl_bins: int
) -> dict[str, np.ndarray]:
    """Mean ``Δ_ŵ(Φ_N, Φ_R)`` binned over (ρ, observed KL divergence):
    ``delta[i, j]`` averages the benchmark workloads in KL bin ``j`` under the
    robust tuning for ``rho_values[i]``."""
    expected = expected_workload(expected_index)
    nominal = catalog.throughputs(expected)
    divergences = catalog.benchmark.kl_divergences(expected.workload)
    kl_edges = np.linspace(0.0, CONTOUR_MAX_KL, kl_bins + 1)
    kl_edges[-1] = np.inf  # the last column holds every divergence past its left edge
    bin_index = np.clip(np.digitize(divergences, kl_edges) - 1, 0, kl_bins - 1)

    grid = np.full((len(rhos), kl_bins), np.nan)
    for i, rho in enumerate(rhos):
        deltas = delta_throughputs(nominal, catalog.throughputs(expected, rho))
        for j in range(kl_bins):
            mask = bin_index == j
            if np.any(mask):
                grid[i, j] = float(np.mean(deltas[mask]))
    return {
        "rho_values": np.asarray(list(rhos), dtype=float),
        "kl_edges": kl_edges,
        "delta": grid,
    }


def _contour_claim(result) -> bool:
    # Once ρ is past ~0.25 and the observed divergence is substantial, the
    # robust tuning wins (positive delta in the upper-right region).
    grid = result["delta"]
    last_column = grid[:, -1][~np.isnan(grid[:, -1])]
    at_rho_1 = grid[CONTOUR_RHOS.index(1.0)]
    return (
        grid.shape == (len(CONTOUR_RHOS), CONTOUR_KL_BINS)
        and result["rho_values"].shape == (len(CONTOUR_RHOS),)
        and result["kl_edges"].shape == (CONTOUR_KL_BINS + 1,)
        and (last_column.size == 0 or last_column.max() > 0.0)
        and at_rho_1[~np.isnan(at_rho_1)][-1] > 0.0
    )


def _contour(index: int) -> Figure:
    def render(result) -> str:
        grid, edges = result["delta"], result["kl_edges"]
        header = f"{'rho':<8}" + "".join(
            f"[{edges[j]:.1f},{edges[j + 1]:.1f})".ljust(12) for j in range(grid.shape[1])
        )
        rows = (
            f"{rho:<8g}"
            + "".join(("   nan      " if np.isnan(v) else f"{v:<12.3f}") for v in row)
            for rho, row in zip(result["rho_values"], grid)
        )
        return "\n".join(
            [f"Figure 7: mean delta throughput over (rho, KL) for w{index}", header, *rows]
        )

    return Figure(
        f"fig07_contour_w{index}",
        lambda s: figure7_contour(
            s.catalog, expected_index=index, rhos=CONTOUR_RHOS, kl_bins=CONTOUR_KL_BINS,
        ),
        _contour_claim,
        render,
    )


# ----------------------------------------------------------------------
# Figures 8–18 — the six-session sequences on the storage engine
# ----------------------------------------------------------------------
def _model_io(comparison, tuning: str, session: str) -> float:
    return comparison.model_ios[tuning][comparison.labels.index(session)]


def _system_io(comparison, tuning: str, session: str) -> float:
    return comparison.system_ios(tuning)[comparison.labels.index(session)]


def _sane_sequence(comparison, max_ios: float = 1e5) -> bool:
    """Six sessions, each with finite, non-negative measurements under both
    tunings."""
    return len(comparison.labels) == 6 and all(
        0.0 <= ios < max_ios
        for tuning in ("nominal", "robust")
        for ios in comparison.system_ios(tuning)
    )


def _orderings_agree(comparison) -> bool:
    """Whether the model ranks the two tunings over the whole sequence the
    way the engine does.  Reported, not asserted: the paper itself reports
    discrepancies (fence pointers on short range queries in Figure 8,
    tree-structure changes after the write session for w9/w10 in §8.3)."""
    model = {tuning: sum(comparison.model_ios[tuning]) for tuning in ("nominal", "robust")}
    system = {tuning: sum(comparison.system_ios(tuning)) for tuning in ("nominal", "robust")}
    return (model["robust"] < model["nominal"]) == (system["robust"] < system["nominal"])


def _range_priced_no_dearer(c) -> bool:
    # w7 expects half point reads / half writes, so its nominal tuning leans
    # on tiering; under a read-only sequence the model must price the robust
    # leveling tuning no dearer on range queries.
    return _model_io(c, "robust", "range") <= _model_io(c, "nominal", "range")


def _no_compaction_storm(c) -> bool:
    # Read-only sessions keep the tree shape fixed, so per-session measured
    # I/Os stay modest for both tunings.
    return max(c.system_ios("nominal")) < 50 and max(c.system_ios("robust")) < 50


def _robust_wins_the_write_session(c) -> bool:
    # The nominal tuning for w11 uses a very large size ratio; once the write
    # session arrives its compactions cost much more than the robust
    # tuning's (the paper reports up to 90% I/O and latency reduction).
    return (
        c.summary["io_reduction"] > 0.0
        and _system_io(c, "robust", "write") < _system_io(c, "nominal", "write")
    )


def _tunings_coincide(c) -> bool:
    # With the uniform workload and essentially no uncertainty the two
    # tunings produce similar designs and similar performance.
    nominal, robust = c.tunings["nominal"], c.tunings["robust"]
    return (
        nominal.policy == robust.policy
        and abs(nominal.size_ratio - robust.size_ratio) <= 2.0
        and abs(c.summary["io_reduction"]) < 0.5
    )


def _protects_worst_session(c) -> bool:
    # Unimodal expected workloads produce strongly specialised nominal
    # tunings, so the *model* must predict that the robust tuning protects
    # the worst session.  (Measured session costs can be lumpy because a
    # single deep compaction lands in one session — the paper makes the same
    # observation for w3/w4 in §8.3.)
    return max(c.model_ios["robust"]) <= max(c.model_ios["nominal"]) * 1.05


def _protects_write_session(c) -> bool:
    # Robust tunings sacrifice a little on the expected mix but must protect
    # the write-dominated session for read-leaning expected workloads.
    # (Measured costs are lumpier, as the paper notes for w9/w10 in §8.3.)
    return _model_io(c, "robust", "write") <= _model_io(c, "nominal", "write") * 1.05


def _bounded_sessions(c) -> bool:
    return _sane_sequence(c, max_ios=1e4)


#: (table, Table 2 index, ρ, include the write session, claim).  The paper
#: matches ρ to the observed divergence of the executed sessions.
SYSTEM_FIGURES = (
    ("fig08_w7_readonly", 7, 2.0, False, _range_priced_no_dearer),
    ("fig09_w11_readonly", 11, 0.25, False, _no_compaction_storm),
    ("fig11_w11_writes", 11, 0.25, True, _robust_wins_the_write_session),
    ("fig12_uniform", 0, 0.01, True, _tunings_coincide),
    ("fig13_w1_unimodal", 1, 1.5, True, _protects_worst_session),
    ("fig13_w2_unimodal", 2, 1.5, True, _protects_worst_session),
    ("fig14_w3_unimodal", 3, 1.75, True, _protects_worst_session),
    ("fig14_w4_unimodal", 4, 1.75, True, _protects_worst_session),
    ("fig15_w5_bimodal", 5, 0.8, True, _protects_write_session),
    ("fig15_w6_bimodal", 6, 1.0, True, _protects_write_session),
    ("fig17_w8_bimodal", 8, 1.0, True, _protects_write_session),
    ("fig17_w9_bimodal", 9, 1.0, True, _protects_write_session),
    ("fig17_w10_bimodal", 10, 1.2, True, _protects_write_session),
    ("fig18_w12_trimodal", 12, 0.4, True, _bounded_sessions),
    ("fig18_w13_trimodal", 13, 0.6, True, _bounded_sessions),
    ("fig18_w14_trimodal", 14, 0.6, True, _bounded_sessions),
)


def _system_figure(name, index, rho, include_writes, claim) -> Figure:
    expected = expected_workload(index)
    return Figure(
        name,
        lambda s: s.system_experiment.run(
            expected.workload, rho=rho, include_writes=include_writes
        ),
        lambda c: _sane_sequence(c) and claim(c),
        lambda c: (
            f"{name}: expected workload {expected.name} {expected.workload.describe()}\n"
            f"{format_comparison(c)}\n"
            f"  model/system ordering agree: {_orderings_agree(c)}"
        ),
    )


#: Figure 10's write-heavy expected workload (not a Table 2 row).
_WRITE_HEAVY = Workload(0.10, 0.10, 0.10, 0.70)


def _write_session_close(c) -> bool:
    # A write-heavy expected workload leads both tunings to write-friendly
    # designs, so neither collapses during the write session.
    nominal, robust = _system_io(c, "nominal", "write"), _system_io(c, "robust", "write")
    return _sane_sequence(c) and abs(nominal - robust) <= max(2.0 * robust, 10.0)


def scaling_experiment(
    sizes: Sequence[int], queries_per_workload: int, seed: int
) -> list[dict[str, float | str]]:
    """Average I/Os per query as the database size ``N`` grows (Figure 16).

    Each size gets its own ``simulator_system(size)`` and its own
    :class:`SystemExperiment`, so the nominal and robust tunings are solved
    anew on every simulator and deployed there; the paper's observation is
    that the performance gap is stable across sizes.
    """
    expected = expected_workload(SCALING_INDEX).workload
    rows = []
    for size in sizes:
        system = simulator_system(num_entries=size)
        experiment = SystemExperiment(
            system=system,
            executor_config=ExecutorConfig(queries_per_workload=queries_per_workload),
            benchmark=UncertaintyBenchmark(size=500, seed=seed),
            seed=seed,
        )
        comparison = experiment.run(expected, rho=SCALING_RHO, include_writes=True)
        summary = comparison.summary
        buffer_bytes = {
            name: system.buffer_memory_bytes(tuning.bits_per_entry)
            for name, tuning in comparison.tunings.items()
        }
        rows.append(
            {
                "num_entries": float(size),
                "nominal_io_per_query": summary["nominal_mean_io_per_query"],
                "robust_io_per_query": summary["robust_mean_io_per_query"],
                "nominal_tuning": comparison.tunings["nominal"].describe(),
                "robust_tuning": comparison.tunings["robust"].describe(),
                "nominal_buffer_bytes": float(buffer_bytes["nominal"]),
                "robust_buffer_bytes": float(buffer_bytes["robust"]),
            }
        )
    return rows


def _render_scaling(rows) -> str:
    return "\n".join([
        "Figure 16: average I/Os per query vs database size (expected workload w11)",
        f"{'N':<12}{'nominal io/q':<15}{'robust io/q':<15}"
        f"{'nominal tuning':<30}{'robust tuning':<30}",
        *(
            f"{int(row['num_entries']):<12}{row['nominal_io_per_query']:<15.2f}"
            f"{row['robust_io_per_query']:<15.2f}{row['nominal_tuning']:<30}"
            f"{row['robust_tuning']:<30}"
            for row in rows
        ),
    ])


# ----------------------------------------------------------------------
# Design-space frontiers: fluid (K, Z) and per-level K_i
# ----------------------------------------------------------------------
#: Paper-default memory (10 bits/entry) with a mild write asymmetry: ample
#: bloom memory makes shallow-level runs nearly free for reads, so the
#: per-level trade-off is non-uniform.
_KVECTOR_SYSTEM = SystemConfig(read_write_asymmetry=2.0)

#: ``write-point`` is the acceptance workload; the corner rows pin uniform
#: recovery.
_KVECTOR_WORKLOADS = [
    ("write-point", Workload(0.05, 0.25, 0.05, 0.65, long_range_fraction=0.3)),
    ("write-scan", Workload(0.02, 0.38, 0.10, 0.50, long_range_fraction=0.5)),
    ("read-heavy", Workload(0.30, 0.45, 0.15, 0.10, long_range_fraction=0.1)),
    ("write-only", Workload(0.02, 0.03, 0.01, 0.94, long_range_fraction=0.0)),
]


def kvector_frontier(
    workloads: Sequence[tuple[str, Workload]],
    system: SystemConfig,
    ratio_candidates: Sequence[float] | None = None,
) -> list[dict[str, object]]:
    """Where a non-uniform per-level ``K_i`` ladder beats every uniform hybrid.

    Two fluid tuners run per workload on the integer size ratios
    (``polish=False``), the deployable space, where no bound is relaxed and
    both arms get the same refinement: the scalar ``(K, Z)`` search, and the
    same search plus the ``K_i`` families and the coordinate descent over
    integer bounds (``k_vector_search=True``).  A positive ``1 − vector_cost /
    uniform_cost`` means no uniform ``(K, Z)`` pair, hence no classical
    policy, matches the per-level ladder.
    """
    rows = []
    common = dict(
        system=system,
        policies=(Policy.FLUID,),
        ratio_candidates=ratio_candidates,
        polish=False,
    )
    for name, workload in workloads:
        uniform = NominalTuner(**common).tune(workload)
        vector = NominalTuner(**common, k_vector_search=True).tune(workload)
        uniform_cost = float(uniform.objective)
        # Every uniform design is a member of the vector space, so the
        # vector-space winner is whichever of the two solves came out ahead
        # — the reported tuning always achieves the reported cost, and a
        # vector-search regression surfaces as a zero advantage with the
        # uniform design reported, never as a phantom cost.
        if float(vector.objective) > uniform_cost:
            vector = uniform
        vector_cost = float(vector.objective)
        deployed = vector.tuning.rounded()
        rows.append(
            {
                "workload": name,
                "composition": workload.describe(),
                "uniform_cost": uniform_cost,
                "uniform_tuning": uniform.tuning.describe(),
                "vector_cost": vector_cost,
                "vector_tuning": vector.tuning.describe(),
                "vector_advantage": 1.0 - vector_cost / uniform_cost,
                # Machine-readable *deployable* bounds of the vector winner
                # (``None`` when it stayed scalar), rounded and clamped
                # exactly as the simulator would deploy them.
                "vector_k_bounds": deployed.to_dict().get("k_bounds"),
                "vector_z_bound": deployed.z_bound,
            }
        )
    return rows


def _kvector_claim(rows) -> bool:
    """Full Dostoevsky generality gives every upper level its own run bound.
    Monkey makes extra runs nearly free for point lookups on shallow levels
    and the long-scan worst case charges them by level capacity, while writes
    are saved equally anywhere — so on a write-heavy workload that still pays
    for point lookups and long scans the optimum is a front-loaded ladder no
    uniform (K, Z) pair can represent."""
    by_name = {row["workload"]: row for row in rows}
    pinned = by_name["write-point"]
    ladder = pinned["vector_k_bounds"]
    return (
        len(rows) == len(_KVECTOR_WORKLOADS)
        # The vector family contains every uniform design.
        and all(row["vector_advantage"] >= 0.0 for row in rows)
        # A strict (>= 1.5%) win of a non-uniform, front-loaded ladder.
        and pinned["vector_cost"] < 0.985 * pinned["uniform_cost"]
        and ladder is not None
        and len(set(ladder)) > 1
        and ladder == sorted(ladder, reverse=True)
        and ladder[0] > 1.0
        and ladder[-1] == 1.0
        # Where one shared bound is optimal the search hallucinates no structure.
        and all(
            by_name[corner]["vector_advantage"] <= 5e-4
            and (
                by_name[corner]["vector_k_bounds"] is None
                or len(set(by_name[corner]["vector_k_bounds"])) == 1
            )
            for corner in ("read-heavy", "write-only")
        )
    )


def _render_kvector(rows) -> str:
    return "\n".join([
        "K-vector frontier on the paper-default system "
        "(10 bits/entry memory, write cost 2x read): per-level K_i ladders "
        "vs the best uniform fluid (K, Z) tuning",
        "",
        f"{'workload':<12}{'composition':<46}{'uniform cost':>14}"
        f"{'vector cost':>14}{'advantage':>11}  "
        f"{'uniform tuning':<42}{'vector tuning (tuner-selected K_i)'}",
        *(
            f"{row['workload']:<12}{row['composition']:<46}"
            f"{row['uniform_cost']:>14.4f}{row['vector_cost']:>14.4f}"
            f"{row['vector_advantage'] * 100:>10.2f}%  "
            f"{row['uniform_tuning']:<42}{row['vector_tuning']}"
            for row in rows
        ),
    ])


#: Flash-constrained system: 4 MiB of memory for 10M entries (~3.3 bits per
#: entry shared by buffer and filters) and write I/O 4x the cost of a read.
_POLICY_SYSTEM = SystemConfig(
    total_memory_bytes=4 * MIB,
    read_write_asymmetry=4.0,
    long_range_selectivity=2e-5,
)

#: Classical corners plus mixed short/long-range points; ``mixed-pw`` is the
#: acceptance workload.
_POLICY_WORKLOADS = [
    ("read-heavy", Workload(0.30, 0.45, 0.15, 0.10, long_range_fraction=0.0)),
    ("write-heavy", Workload(0.05, 0.10, 0.01, 0.84, long_range_fraction=0.0)),
    ("mixed-pw", Workload(0.05, 0.15, 0.05, 0.75, long_range_fraction=0.2)),
    ("mixed-scan", Workload(0.10, 0.20, 0.30, 0.40, long_range_fraction=0.5)),
    ("long-scan", Workload(0.05, 0.10, 0.60, 0.25, long_range_fraction=0.8)),
]


def policy_frontier(
    workloads: Sequence[tuple[str, Workload]],
    system: SystemConfig,
    ratio_candidates: Sequence[float] | None = None,
) -> list[dict[str, str | float]]:
    """Best nominal tuning of each named workload under every policy alone.

    For ``Policy.FLUID`` the tuner selects the run bounds ``K``/``Z`` itself,
    so the table shows where in the workload space the hybrids pay off —
    Dostoevsky's frontier, evaluated under this model's short/long range
    split.
    """
    rows = []
    for name, workload in workloads:
        row: dict[str, str | float] = {"workload": name, "composition": workload.describe()}
        best_policy, best_cost = None, np.inf
        for policy in Policy:
            tuner = NominalTuner(
                system=system, policies=(policy,), ratio_candidates=ratio_candidates
            )
            result = tuner.tune(workload)
            row[f"{policy.value}_tuning"] = result.tuning.describe()
            row[f"{policy.value}_cost"] = result.objective
            if result.objective < best_cost:
                best_policy, best_cost = policy, result.objective
        row["best_policy"] = best_policy.value
        rows.append(row)
    return rows


def _policy_claim(rows) -> bool:
    """Dostoevsky's argument: on a flash-constrained system, leveling pays
    too much for writes and tiering pays the multi-run largest level on long
    scans, so the fluid policy's run bounds land in the interior."""
    by_name = {row["workload"]: row for row in rows}
    pinned = by_name["mixed-pw"]
    return (
        len(rows) == len(_POLICY_WORKLOADS)
        # Fluid contains every other policy as a (K, Z) corner.
        and all(
            row["fluid_cost"] <= min(row["leveling_cost"], row["tiering_cost"]) * (1.0 + 1e-9)
            for row in rows
        )
        # A strict (>= 2%) win with an interior K > 1 and a single-run
        # largest level: a true hybrid, not a classical corner rediscovered.
        and pinned["fluid_cost"] < 0.98 * min(pinned["leveling_cost"], pinned["tiering_cost"])
        and pinned["best_policy"] in {"fluid", "lazy-leveling"}
        and ", K: " in pinned["fluid_tuning"]
        and ", Z: 1" in pinned["fluid_tuning"]
        and ", K: 1," not in pinned["fluid_tuning"]
        # The classical corners still own their home turf.
        and by_name["read-heavy"]["leveling_cost"] <= by_name["read-heavy"]["tiering_cost"]
        and by_name["write-heavy"]["tiering_cost"] <= by_name["write-heavy"]["leveling_cost"]
    )


def _render_policy(rows) -> str:
    policies = [p.value for p in Policy]
    return "\n".join([
        "Policy frontier on a flash-constrained system "
        "(4 MiB / 10M entries, write cost 4x read, long-scan selectivity 2e-5)",
        "",
        f"{'workload':<12}{'composition':<46}"
        + "".join(f"{p + ' cost':>20}" for p in policies)
        + f"  {'best':<14}{'fluid tuning (tuner-selected K, Z)'}",
        *(
            f"{row['workload']:<12}{row['composition']:<46}"
            + "".join(f"{row[f'{p}_cost']:>20.4f}" for p in policies)
            + f"  {row['best_policy']:<14}{row['fluid_tuning']}"
            for row in rows
        ),
    ])


# ----------------------------------------------------------------------
# Online tuning over drifting sequences
# ----------------------------------------------------------------------
def _adaptive_claim(c) -> bool:
    # A read-heavy w11 drifts into a sustained write phase: the adaptive
    # executor detects it, migrates (its pages charged to the measured
    # stream), beats the static nominal tuning outright and, once converged,
    # tracks the hindsight per-phase tuning within simulator noise (~20-30%
    # between identically shaped runs).
    adaptive = c.measurements["adaptive"]
    return (
        adaptive.num_migrations >= 1
        and adaptive.migration_pages > 0
        and c.summary["adaptive_mean_io_per_query"] < c.summary["nominal_mean_io_per_query"]
        and c.summary["adaptive_vs_oracle_converged"] <= 1.5
    )


#: Knobs every endurance variant shares.  The confirmation span covers ~3
#: estimator windows, so the detector re-centres on the settled phase mix
#: rather than a transient blend (a blended centre sits between the phases
#: and masks the returning drift entirely).
_ENDURANCE_BASE = dict(
    window=300,
    check_interval=64,
    min_observations=256,
    cooldown=2_048,
    confirm_checks=14,
    rho=0.75,
    horizon_ops=12_000,
)

#: ~128-page steps every 128 operations spread one rebuild over roughly two
#: sessions (and let both plans complete well before the stream ends).
_INCREMENTAL = dict(migration="incremental", migration_step_ops=128, migration_step_pages=128)


def _endurance(state: SessionState):
    """A→B→A: range-heavy, write-heavy, range-heavy again, under full and
    incremental migration and under a drift-aware radius."""
    variants = {
        FULL: OnlineConfig(**_ENDURANCE_BASE, mode="nominal", migration="full"),
        INCREMENTAL: OnlineConfig(**_ENDURANCE_BASE, mode="nominal", **_INCREMENTAL),
        ADAPTIVE_RHO: OnlineConfig(
            **_ENDURANCE_BASE, mode="robust", **_INCREMENTAL, rho_adaptive=True
        ),
    }
    return AdaptiveExperiment(seed=29).run_variants(
        expected_workload(11).workload,
        rho=0.5,
        variants=variants,
        phases=("range", "write", "range"),
        sessions_per_phase=3,
    ).claiming(endurance)


def _endurance_claim(c) -> bool:
    full, incremental = c.measurements[FULL], c.measurements[INCREMENTAL]
    adaptive_rho = c.measurements[ADAPTIVE_RHO]
    widened = [e.decision.rho for e in adaptive_rho.events if e.migrated]
    return (
        # The cyclic trace thrashes the fixed-radius executors: into the write
        # tuning at phase B, back out when phase A returns.
        full.num_migrations == 2
        and incremental.num_migrations == 2
        # Incremental migration spreads the spike, it does not discount the work.
        and incremental.migration_pages == full.migration_pages
        and c.summary["incremental_worst_session_io"] < c.summary["full_worst_session_io"]
        and c.summary["incremental_vs_oracle_ratio"] <= 1.5
        # The drift-aware radius tunes once for the whole cycle, for a
        # genuinely widened ball.
        and adaptive_rho.num_migrations < incremental.num_migrations
        and bool(widened)
        and all(rho > _ENDURANCE_BASE["rho"] for rho in widened)
    )


# ----------------------------------------------------------------------
# The engine: files vs the model, batched vs scalar replay, shards
# ----------------------------------------------------------------------
_ENGINE_SYSTEM = simulator_system(num_entries=20_000)

#: The middle-of-the-road deployment the engine tables replay on.
_LEVELING_T6_H8 = LSMTuning(6.0, 8.0, Policy.LEVELING)


def _loaded_tree(keys) -> LSMTree:
    tree = LSMTree(_LEVELING_T6_H8, _ENGINE_SYSTEM, seed=7)
    tree.bulk_load(keys)
    tree.disk.reset()
    return tree


#: Operations per simple_bench phase and per ranking trace.
_SIMPLE_BENCH_OPS = 5_000
_RANKING_OPS = 20_000

#: The two deployments the model must rank: the read-tuned tree spends memory
#: on Bloom filters and merges eagerly; the write-tuned tree stacks runs with
#: near-useless filters.
_RANKED_TUNINGS = (
    ("read-tuned", LSMTuning(6.0, 10.0, Policy.LEVELING)),
    ("write-tuned", LSMTuning(8.0, 1.0, Policy.TIERING)),
)
_RANKED_WORKLOADS = (
    ("read-heavy", Workload(z0=0.30, z1=0.55, q=0.11, w=0.04)),
    ("write-heavy", Workload(z0=0.05, z1=0.15, q=0.05, w=0.75)),
)


def _file_tree(tuning, compaction_enabled=True) -> LSMTree:
    store = FileStore(tempfile.mkdtemp(prefix="bench-tree-"))
    tree = LSMTree(tuning, _ENGINE_SYSTEM, seed=7, store=store)
    tree.compaction_enabled = compaction_enabled
    return tree


def _persistent_backend(_: SessionState):
    """The tree on real files, lsmtreedb ``simple_bench`` style — fillrandom
    then readrandom with compaction on and off — and the cost model ranking
    a read-tuned and a write-tuned deployment the way the pages they moved
    do.  Every line is deterministic; how long the files take is
    ``bench/``'s ``persistent_mixed``."""
    rng = np.random.default_rng(17)
    fill_keys = rng.choice(
        np.arange(4 * _ENGINE_SYSTEM.num_entries), size=_SIMPLE_BENCH_OPS, replace=False
    )
    read_keys = rng.choice(fill_keys, size=_SIMPLE_BENCH_OPS, replace=True)
    bench_rows = []
    for compaction in (True, False):
        tree = _file_tree(_LEVELING_T6_H8, compaction_enabled=compaction)
        try:
            for key in fill_keys.tolist():
                tree.put(key)
            for key in read_keys.tolist():
                tree.get(key)
            bench_rows.append({
                "compaction": compaction,
                "counters": tree.disk.counters.snapshot(),
                "num_runs": sum(len(runs) for runs in tree.levels),
            })
        finally:
            tree.dispose()

    space = KeySpace.build(_ENGINE_SYSTEM.num_entries, seed=29)
    generator = TraceGenerator(space, seed=29)
    model = LSMCostModel(_ENGINE_SYSTEM)
    traces = {
        label: generator.operations(workload, _RANKING_OPS) for label, workload in _RANKED_WORKLOADS
    }
    cells = {}
    for tuning_label, tuning in _RANKED_TUNINGS:
        for workload_label, workload in _RANKED_WORKLOADS:
            tree = _file_tree(tuning)
            try:
                tree.bulk_load(space.existing)
                tree.disk.reset()
                for operation in traces[workload_label]:
                    execute_operation(tree, operation)
                cells[tuning_label, workload_label] = {
                    "model_cost": float(workload.as_array() @ model.cost_vector(tuning)),
                    "counters": tree.disk.counters.snapshot(),
                    "pages": tree.disk.counters.total,
                }
            finally:
                tree.dispose()
    return bench_rows, cells


def _winner(cells, workload_label, field) -> str:
    read = cells["read-tuned", workload_label][field]
    write = cells["write-tuned", workload_label][field]
    return "read-tuned" if read < write else "write-tuned"


def _persistent_claim(result) -> bool:
    bench_rows, cells = result
    off = next(row for row in bench_rows if not row["compaction"])
    return (
        all(
            _winner(cells, label, "model_cost") == _winner(cells, label, "pages")
            for label, _ in _RANKED_WORKLOADS
        )
        # Compaction-off must actually skip compaction I/O.
        and off["counters"].compaction_writes == 0
    )


def _render_persistent(result) -> str:
    bench_rows, cells = result
    lines = [
        "persistent SSTable backend — simple_bench + model-vs-measured ranking",
        f"simple_bench: {_SIMPLE_BENCH_OPS} fillrandom puts then "
        f"{_SIMPLE_BENCH_OPS} readrandom gets, leveling T=6 h=8, WAL buffered",
    ]
    for row in bench_rows:
        c = row["counters"]
        mode = "on " if row["compaction"] else "off"
        lines.append(
            f"compaction={mode} runs={row['num_runs']:>3} "
            f"query_reads={c.query_reads:>7} flush_writes={c.flush_writes:>6} "
            f"compaction_reads={c.compaction_reads:>7} "
            f"compaction_writes={c.compaction_writes:>7}"
        )
    lines.append(
        f"ranking traces: {_RANKING_OPS} ops over a bulk-loaded 20k-entry tree; "
        "tunings read-tuned=leveling T=6 h=10, write-tuned=tiering T=8 h=1"
    )
    for workload_label, _ in _RANKED_WORKLOADS:
        costs = " ".join(
            f"{tuning_label}={cells[tuning_label, workload_label]['model_cost']:.3f}"
            for tuning_label, _ in _RANKED_TUNINGS
        )
        lines.append(
            f"model cost/op {workload_label:<11} {costs} "
            f"-> {_winner(cells, workload_label, 'model_cost')} first"
        )
    for tuning_label, _ in _RANKED_TUNINGS:
        for workload_label, _ in _RANKED_WORKLOADS:
            c = cells[tuning_label, workload_label]["counters"]
            lines.append(
                f"counters {tuning_label:<11} {workload_label:<11} "
                f"reads={c.total_reads:>7} writes={c.total_writes:>7}"
            )
    return "\n".join(lines)


_COUNTER_FIELDS = (
    "query_reads", "query_writes", "flush_writes", "compaction_reads", "compaction_writes",
)
_COUNTER_HEADER = (
    f"{'query_reads':>13}{'query_writes':>14}"
    f"{'flush_writes':>14}{'compaction_reads':>18}{'compaction_writes':>19}"
)


def _counter_cells(counters: IOCounters) -> str:
    return "".join(f"{getattr(counters, field):>{len(field) + 2}}" for field in _COUNTER_FIELDS)


#: An endurance-style read phase (98% point reads, the stream an online
#: tuner idles through between drift events) at 1M ops, and a mixed trace.
_REPLAYED_TRACES = (
    ("read-heavy", Workload(z0=0.30, z1=0.68, q=0.01, w=0.01), 1_000_000),
    ("mixed", Workload(z0=0.20, z1=0.30, q=0.20, w=0.30), 200_000),
)


def _replay_both_ways(_: SessionState) -> list[dict[str, Any]]:
    """Each trace replayed row by row through ``execute_operation`` and
    through the one batched loop, whose contract is bit identity.  How fast
    either runs is ``bench/``'s business (``point_read``, ``write_ingest``)."""
    space = KeySpace.build(_ENGINE_SYSTEM.num_entries, seed=29)
    generator = TraceGenerator(space, seed=29)
    rows = []
    for label, workload, num_ops in _REPLAYED_TRACES:
        trace = generator.operations(workload, num_ops)
        scalar = _loaded_tree(space.existing)
        for operation in trace:
            execute_operation(scalar, operation)
        batched = _loaded_tree(space.existing)
        execute_operations_batched(batched, trace)
        rows.append({
            "trace": label,
            "ops": num_ops,
            "counters": scalar.disk.counters,
            "parity": batched.disk.counters == scalar.disk.counters
            and batched.stats() == scalar.stats(),
        })
    return rows


def _render_replay(rows) -> str:
    return "\n".join([
        f"{'trace':<12}{'ops':>10}{_COUNTER_HEADER}",
        *(
            f"{row['trace']:<12}{row['ops']:>10}{_counter_cells(row['counters'])}"
            for row in rows
        ),
        "io parity: batched == scalar, counter for counter",
    ])


#: The read-heavy endurance trace of ``vectorized_execute``, served at 1, 2
#: and 4 hash shards.
_SERVING_WORKLOAD, _SERVING_OPS = _REPLAYED_TRACES[0][1:]
_SHARD_COUNTS = (1, 2, 4)

#: Admission section: calm read sessions alternating with write bursts that
#: drive the online controller into incremental migrations.
_CALM = Workload(z0=0.45, z1=0.45, q=0.05, w=0.05)
_BURST = Workload(z0=0.05, z1=0.05, q=0.0, w=0.90)
_QUERIES_PER_SESSION = 2_000


def _sharded_serving(_: SessionState):
    """Each shard replays its hash-partitioned slice of the stream on a tree
    holding its partition of the keys (what sharding buys in time is
    ``bench/``'s ``serving.critical_path_s``); then an adaptive run over a
    bursty drift sequence under the fixed step cadence and under
    ``queue-depth`` admission, where a due step waits for its chunk to drain
    and a lull between sessions finishes the plan."""
    space = KeySpace.build(_ENGINE_SYSTEM.num_entries, seed=29)
    operations = TraceGenerator(space, seed=29).operations(_SERVING_WORKLOAD, _SERVING_OPS)
    scaling = []
    for num_shards in _SHARD_COUNTS:
        streams = [shard_operations(operations, shard, num_shards) for shard in range(num_shards)]
        trees = [_loaded_tree(part) for part in partition_keys(space.existing, num_shards)]
        for tree, stream in zip(trees, streams):
            execute_operations_batched(tree, stream)
        scaling.append({
            "num_shards": num_shards,
            "merged": IOCounters(**{
                field: sum(getattr(tree.disk.counters, field) for tree in trees)
                for field in _COUNTER_FIELDS
            }),
            "ops_per_shard": [len(stream) for stream in streams],
        })

    calm = Session(SessionType.EXPECTED, "calm", (_CALM,))
    burst = Session(SessionType.WRITE, "burst", (_BURST,))
    sequence = SessionSequence(expected=_CALM, sessions=(calm, burst, calm, burst, calm))
    executor = WorkloadExecutor(
        _ENGINE_SYSTEM, ExecutorConfig(queries_per_workload=_QUERIES_PER_SESSION, seed=29)
    )
    admission = {
        mode: executor.run_sequence_adaptive(
            _LEVELING_T6_H8,
            sequence,
            online=OnlineConfig(
                window=600, check_interval=64, min_observations=256, cooldown=4_000,
                confirm_checks=2, mode="nominal", horizon_ops=200_000,
                migration="incremental", migration_step_ops=32,
                migration_step_pages=8, admission=mode,
            ),
        )
        for mode in ("fixed", "queue-depth")
    }
    return scaling, admission


def _worst_session(measurement) -> float:
    return max(s.ios_per_query for s in measurement.sessions)


def _sharded_claim(result) -> bool:
    # Admission pacing strictly improves the worst session.
    _, admission = result
    return _worst_session(admission["queue-depth"]) < _worst_session(admission["fixed"])


def _render_sharded(result) -> str:
    scaling, admission = result
    worst = {mode: _worst_session(m) for mode, m in admission.items()}
    w = _SERVING_WORKLOAD
    lines = [
        f"sharded serving — {_SERVING_OPS} ops, read-heavy "
        f"(z0={w.z0} z1={w.z1} q={w.q} w={w.w}), 20k entries, leveling T=6 h=8",
        f"{'shards':>6}{'ops/shard':>30}{_COUNTER_HEADER}",
        *(
            f"{row['num_shards']:>6}{'/'.join(map(str, row['ops_per_shard'])):>30}"
            f"{_counter_cells(row['merged'])}"
            for row in scaling
        ),
        # True by construction (a 1-shard fleet is one bare ``run_shard``:
        # no partition, no route, no merge; tests/serving pins it); kept so
        # the table does not move.
        "single-shard parity: counters, stats and tree fingerprint identical "
        "to the classic batched executor replay",
        f"admission pacing — 5 sessions x {_QUERIES_PER_SESSION} queries "
        "(calm/burst alternating), incremental migration step_ops=32 "
        "step_pages=8, queue-depth: a due step waits for its chunk to drain",
    ]
    for mode, measurement in admission.items():
        ios = " ".join(f"{s.ios_per_query:.4f}" for s in measurement.sessions)
        lines.append(
            f"admission={mode:<12} session io/q: {ios}  worst={worst[mode]:.4f}  "
            f"migrations={measurement.num_migrations} "
            f"pages={measurement.migration_pages}"
        )
    lines.append(
        f"admission win: queue-depth worst {worst['queue-depth']:.4f} < "
        f"fixed worst {worst['fixed']:.4f}"
    )
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Tables 2 and 3, §8.4
# ----------------------------------------------------------------------
def _render_expected_workloads(rows) -> str:
    return "\n".join([
        f"{'index':<6}{'(z0, z1, q, w)':<28}{'type':<10}",
        *(
            f"{row.index:<6}{row.workload.describe():<28}{row.category.value:<10}"
            for row in rows
        ),
    ])


def _tunings_claim(rows) -> bool:
    # The robust worst case of the chosen tuning can never undercut the
    # nominal optimum evaluated on the expected workload itself.
    return [row["workload"] for row in rows] == [f"w{i}" for i in range(15)] and all(
        row["robust_worst_case_cost"] >= row["nominal_cost"] - 1e-6 for row in rows
    )


def _render_tunings(rows) -> str:
    return "\n".join([
        f"{'workload':<10}{'composition':<28}{'category':<10}"
        f"{'nominal tuning':<34}{'robust tuning (rho=1)':<34}",
        *(
            f"{row['workload']:<10}{row['composition']:<28}{row['category']:<10}"
            f"{row['nominal']:<34}{row['robust']:<34}"
            for row in rows
        ),
    ])


def section84_win_rate(
    catalog: TuningCatalog, rhos: Sequence[float], expected_indices: Sequence[int]
) -> dict[str, float]:
    """Share of (workload, ρ, ŵ) comparisons the robust tuning wins (§8.4)."""
    rates = [
        win_rate(catalog.throughputs(expected), catalog.throughputs(expected, rho))
        for expected in map(expected_workload, expected_indices)
        for rho in rhos
    ]
    return {
        "win_rate": float(np.mean(rates)),
        "comparisons": float(len(rates) * len(catalog.benchmark)),
    }


def _win_rate_claim(result) -> bool:
    # Paper: robust tunings win over 80% of ~8.6M comparisons.  On the
    # reduced grid we still expect a clear majority.
    return (
        result["win_rate"] > 0.6
        and result["comparisons"] == 15 * len(RHO_VALUES) * BENCH_SET_SIZE
    )


FIGURES: tuple[Figure, ...] = (
    Figure("fig01_motivation", _motivation, _motivation_claim, _render_motivation),
    Figure(
        "fig03_kl_histograms",
        lambda s: figure3_kl_histograms(s.bench_set, bins=16),
        _kl_histograms_claim,
        _render_kl_histograms,
    ),
    Figure(
        "fig04_delta_by_category",
        lambda s: figure4_delta_by_category(s.catalog, rhos=RHO_VALUES),
        _delta_by_category_claim,
        _render_delta_by_category,
    ),
    Figure(
        "fig05_rho_impact",
        lambda s: figure5_rho_impact(s.catalog, rhos=PANEL_RHOS),
        _rho_impact_claim,
        _render_rho_impact,
    ),
    Figure(
        "fig06a_throughput_histograms",
        lambda s: figure6_throughput_histograms(s.catalog, rhos=PANEL_RHOS),
        _throughput_histograms_claim,
        _render_throughput_histograms,
    ),
    Figure(
        "fig06b_throughput_range",
        # A representative subset of expected workloads (paper: all 15).
        lambda s: figure6_throughput_range(
            s.catalog, rhos=RHO_VALUES, expected_indices=(1, 5, 7, 11)
        ),
        _throughput_range_claim,
        _render_throughput_range,
    ),
    *(_contour(index) for index in (7, 11)),
    *(_system_figure(*row) for row in SYSTEM_FIGURES),
    Figure(
        "fig10_write_expected",
        lambda s: s.system_experiment.run(_WRITE_HEAVY, rho=0.5, include_writes=True),
        _write_session_close,
        lambda c: "fig10: expected workload (10%, 10%, 10%, 70%)\n" + format_comparison(c),
    ),
    Figure(
        "fig16_scaling",
        lambda _: scaling_experiment(
            sizes=(10_000, 30_000, 100_000), queries_per_workload=500, seed=31
        ),
        # The write-buffer allocation grows with the database size.
        lambda rows: len(rows) == 3
        and [r["robust_buffer_bytes"] for r in rows]
        == sorted(r["robust_buffer_bytes"] for r in rows),
        _render_scaling,
    ),
    Figure(
        "kvector_frontier",
        lambda _: kvector_frontier(
            _KVECTOR_WORKLOADS, system=_KVECTOR_SYSTEM, ratio_candidates=np.arange(2.0, 21.0)
        ),
        _kvector_claim,
        _render_kvector,
    ),
    Figure(
        "online_adaptive",
        lambda _: AdaptiveExperiment(seed=29).run(expected_workload(11).workload, rho=0.5),
        _adaptive_claim,
        format_adaptive_comparison,
    ),
    Figure("online_endurance", _endurance, _endurance_claim, format_endurance_comparison),
    Figure("persistent_backend", _persistent_backend, _persistent_claim, _render_persistent),
    Figure(
        "policy_frontier",
        lambda _: policy_frontier(
            _POLICY_WORKLOADS, system=_POLICY_SYSTEM, ratio_candidates=np.arange(2.0, 41.0)
        ),
        _policy_claim,
        _render_policy,
    ),
    Figure(
        "sec84_win_rate",
        lambda s: section84_win_rate(s.catalog, rhos=RHO_VALUES, expected_indices=range(15)),
        _win_rate_claim,
        lambda result: (
            "Section 8.4: robust vs nominal comparisons over the benchmark set\n"
            f"comparisons: {int(result['comparisons'])}\n"
            f"robust win rate: {100 * result['win_rate']:.1f}% (paper reports > 80%)"
        ),
    ),
    Figure("sharded_serving", _sharded_serving, _sharded_claim, _render_sharded),
    Figure(
        "table2_expected_workloads",
        lambda _: expected_workloads(),
        lambda rows: len(rows) == 15,
        _render_expected_workloads,
    ),
    Figure(
        "table3_tunings",
        lambda s: tuning_table(s.catalog, rho=1.0),
        _tunings_claim,
        _render_tunings,
    ),
    Figure(
        "vectorized_execute",
        _replay_both_ways,
        lambda rows: all(row["parity"] for row in rows),
        _render_replay,
    ),
)
