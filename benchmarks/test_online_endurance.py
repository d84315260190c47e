"""A→B→A endurance regression: incremental migrations + drift-aware radii.

Real drifting workloads are cyclic (HTAP-style phase alternation): a
range-heavy phase A gives way to a write-heavy phase B, and then *A returns*.
This benchmark replays exactly that sequence and pins the two online-tuning
behaviours PR 2's all-at-once executor could not deliver:

* **Bounded migration spikes.**  The ``full`` executor migrates twice (into
  the write tuning, then back) and concentrates each rebuild in the session
  the detector fired in; the ``incremental`` executor moves the *same* total
  pages through a level-by-level plan spread over the stream, so its worst
  per-session I/O stays strictly below full migration's — while the whole
  run lands within a pinned factor of the per-phase oracle.
* **Tuned once for the cycle.**  The fixed-radius executor thrashes: phase B
  triggers a migration and the returning phase A triggers a second one.  The
  drift-aware executor widens its robust radius with the observed
  KL-trajectory volatility at the first firing, covers the whole cycle with
  one robust tuning, and performs strictly fewer migrations.

The regenerated table is committed to ``results/online_endurance.txt`` and
drift-checked by the ``online-endurance`` CI job.
"""

from conftest import run_once

from repro.analysis import endurance, format_endurance_comparison
from repro.analysis.comparison import ADAPTIVE_RHO, FULL, INCREMENTAL
from repro.analysis.online_eval import AdaptiveExperiment
from repro.online import OnlineConfig
from repro.workloads import expected_workload

#: Expected workload of the static tunings (w11: read-heavy trimodal).
EXPECTED_INDEX = 11

#: Radius of the static robust baseline.
RHO = 0.5

#: The A→B→A phase script: range-heavy, write-heavy, range-heavy again.
PHASES = ("range", "write", "range")

#: Incremental runs must stay within this factor of the per-phase oracle.
ORACLE_FACTOR = 1.5

#: Shared knobs of every executor variant.  The confirmation span covers ~3
#: estimator windows, so the detector re-centres on the settled phase mix
#: rather than a transient blend (a blended centre sits between the phases
#: and masks the returning drift entirely).
_BASE = dict(
    window=300,
    check_interval=64,
    min_observations=256,
    cooldown=2_048,
    confirm_checks=14,
    rho=0.75,
    horizon_ops=12_000,
)

#: Incremental-migration knobs: ~128-page steps every 128 operations spread
#: one rebuild over roughly two sessions (and let both plans complete well
#: before the stream ends).
_INCREMENTAL = dict(
    migration="incremental", migration_step_ops=128, migration_step_pages=128
)


def _variants() -> dict[str, OnlineConfig]:
    return {
        FULL: OnlineConfig(
            **_BASE, mode="nominal", migration="full"
        ),
        INCREMENTAL: OnlineConfig(
            **_BASE, mode="nominal", **_INCREMENTAL
        ),
        ADAPTIVE_RHO: OnlineConfig(
            **_BASE,
            mode="robust",
            **_INCREMENTAL,
            rho_adaptive=True,
            volatility_gain=2.0,
        ),
    }


def test_endurance_a_b_a(benchmark, report):
    experiment = AdaptiveExperiment(seed=29)
    comparison = run_once(
        benchmark,
        lambda: experiment.run_variants(
            expected_workload(EXPECTED_INDEX).workload,
            rho=RHO,
            variants=_variants(),
            phases=PHASES,
            sessions_per_phase=3,
        ).claiming(endurance),
    )
    summary = comparison.summary
    full = comparison.measurements[FULL]
    incremental = comparison.measurements[INCREMENTAL]
    adaptive_rho = comparison.measurements[ADAPTIVE_RHO]

    # The cyclic trace really thrashes the fixed-radius executors: into the
    # write tuning at phase B, back out when phase A returns.
    assert full.num_migrations == 2
    assert incremental.num_migrations == 2

    # Incremental migration moves exactly the pages full migration moves —
    # it spreads the spike, it does not discount the work.
    assert incremental.migration_pages == full.migration_pages

    # Claim 1: the worst per-session I/O spike is strictly below full
    # migration's on the same trace.
    assert (
        summary["incremental_worst_session_io"] < summary["full_worst_session_io"]
    ), (
        f"incremental worst session {summary['incremental_worst_session_io']:.2f}"
        f" must undercut full migration's {summary['full_worst_session_io']:.2f}"
    )

    # Claim 2: spreading the migration does not cost overall performance —
    # the incremental run lands within the pinned factor of the per-phase
    # oracle (hindsight static tunings, one per phase occurrence).
    assert summary["incremental_vs_oracle_ratio"] <= ORACLE_FACTOR, (
        f"incremental mean is {summary['incremental_vs_oracle_ratio']:.2f}x "
        f"the per-phase oracle (pinned at {ORACLE_FACTOR}x)"
    )

    # Claim 3: the drift-aware radius tunes once for the whole cycle.
    assert adaptive_rho.num_migrations < incremental.num_migrations, (
        "adaptive-rho must migrate strictly less often than fixed-rho on the "
        f"cyclic trace ({adaptive_rho.num_migrations} vs "
        f"{incremental.num_migrations})"
    )
    # Its single migration was solved for a genuinely widened ball.
    widened = [e.decision.rho for e in adaptive_rho.events if e.migrated]
    assert widened and all(rho > _BASE["rho"] for rho in widened)

    text = format_endurance_comparison(comparison)
    report("online_endurance", text)
    print("\n" + text)
