"""The one comparison: held once (the executor's grid), printed one way."""

import json

import pytest

from repro.analysis import (
    AdaptiveExperiment,
    Comparison,
    SystemExperiment,
    endurance,
    format_adaptive_comparison,
    format_comparison,
    format_endurance_comparison,
)
from repro.analysis.comparison import adaptive_vs_static, robust_vs_nominal
from repro.lsm import LSMTuning, Policy, simulator_system
from repro.online import OnlineConfig, RetuningDecision, RetuningEvent
from repro.storage import (
    AdaptiveSequenceMeasurement,
    ExecutorConfig,
    SequenceMeasurement,
    SessionMeasurement,
)
from repro.workloads import UncertaintyBenchmark, Workload

_EXPECTED = Workload(0.25, 0.25, 0.25, 0.25)
_NOMINAL = LSMTuning(20.0, 6.0, Policy.LEVELING)
_ROBUST = LSMTuning(6.0, 4.0, Policy.TIERING)


def _column(tuning, labels, ios, events=None):
    """A hand-built column: ``ios[i]`` pages per query over 100 queries.
    ``events`` makes it an adaptive one."""
    sessions = tuple(
        SessionMeasurement(label, _EXPECTED, 100, round(100 * io), 0, 0, 0, 0)
        for label, io in zip(labels, ios)
    )
    if events is None:
        return SequenceMeasurement(tuning, sessions)
    return AdaptiveSequenceMeasurement(tuning, sessions, final_tuning=_ROBUST, events=events)


def _event(position, migrated, steps=1):
    decision = RetuningDecision(_NOMINAL, _ROBUST, 3.0, 1.5, 400.0, 10_000, rho=0.5)
    pages = (150, 250) if migrated else (0, 0)
    return RetuningEvent(position, 1.25, _EXPECTED, decision, migrated, *pages, steps)


def _grid(labels, columns, **extra):
    tunings = {name: c.tuning for name, c in columns.items() if type(c) is SequenceMeasurement}
    return Comparison(
        expected=_EXPECTED,
        rho=0.5,
        observed_divergence=0.125,
        tunings=tunings,
        measurements=columns,
        model_ios={name: tuple(0.5 + i for i in range(len(labels))) for name in tunings},
        **extra,
    )


class TestTables:
    def test_paper_table_repeated_labels_print_unnumbered(self):
        labels = ("read", "read", "range")
        comparison = _grid(
            labels,
            {
                "nominal": _column(_NOMINAL, labels, (1.0, 2.0, 4.0)),
                "robust": _column(_ROBUST, labels, (1.5, 1.0, 1.0)),
            },
        ).claiming(robust_vs_nominal)
        assert format_comparison(comparison) == "\n".join([
            "expected workload: (25%, 25%, 25%, 25%)  rho=0.5  observed KL=0.12",
            "  nominal: π: leveling, T: 20.0, h: 6.0",
            "  robust:  π: tiering, T: 6.0, h: 4.0",
            "  session           model N  model R    sys N    sys R",
            "  read                 0.50     0.50     1.00     1.50",
            "  read                 1.50     1.50     2.00     1.00",
            "  range                2.50     2.50     4.00     1.00",
            "  I/O reduction: 50.0%",
        ])

    def test_drift_table_numbers_its_rows(self):
        labels = ("read", "read", "write", "write")
        phased = dict(
            phases=("read", "read", "write", "write"),
            oracle_names=("phase-read", "phase-read", "phase-write", "phase-write"),
        )
        comparison = _grid(
            labels,
            {
                "nominal": _column(_NOMINAL, labels, (1.0, 1.0, 6.0, 6.0)),
                "robust": _column(_ROBUST, labels, (2.0, 2.0, 3.0, 3.0)),
                "phase-read": _column(_NOMINAL, labels, (1.0, 1.0, 6.0, 6.0)),
                "phase-write": _column(_ROBUST, labels, (2.0, 2.0, 2.0, 2.0)),
                "adaptive": _column(
                    _NOMINAL, labels, (1.0, 1.0, 8.0, 2.0),
                    events=(_event(250, True), _event(390, False)),
                ),
            },
            **phased,
        ).claiming(adaptive_vs_static)
        assert format_adaptive_comparison(comparison) == "\n".join([
            "expected workload: (25%, 25%, 25%, 25%)  rho=0.5",
            "  nominal:     π: leveling, T: 20.0, h: 6.0",
            "  robust:      π: tiering, T: 6.0, h: 4.0",
            "  phase-read:  π: leveling, T: 20.0, h: 6.0",
            "  phase-write: π: tiering, T: 6.0, h: 4.0",
            "  final:       π: tiering, T: 6.0, h: 4.0  (adaptive)",
            "  session                 nominal       robust   phase-read  phase-write     adaptive",
            "  1:read                     1.00         2.00         1.00         2.00         1.00",
            "  2:read                     1.00         2.00         1.00         2.00         1.00",
            "  3:write                    6.00         3.00         6.00         2.00         8.00",
            "  4:write                    6.00         3.00         6.00         2.00         2.00",
            "  drift @ op 250: KL=1.25  gain=1.50 io/q  migration=400 I/Os"
            " -> migrated to [π: tiering, T: 6.0, h: 4.0]",
            "  drift @ op 390: KL=1.25  gain=1.50 io/q  migration=400 I/Os -> declined",
            "  mean I/Os per query:  nominal 3.50  robust 2.50  oracle 1.50  adaptive 3.00",
            "  adaptive vs nominal: 14.3% fewer I/Os; vs best per-phase static:"
            " 2.00x overall, 1.00x converged (1 migration(s), 400 pages)",
        ])
        row = comparison.to_dict()["sessions"][2]
        assert (row["session"], row["phase"], row["oracle_name"]) == (
            "3:write", "write", "phase-write",
        )

    def test_endurance_table_pads_to_the_longest_tuning_name(self):
        """``phase-range-2:`` is 14 characters: a 13-wide label column ran it
        into its tuning."""
        labels = ("range", "write", "range")
        statics = {
            "nominal": _column(_NOMINAL, labels, (2.0, 6.0, 2.0)),
            "robust": _column(_ROBUST, labels, (3.0, 3.0, 3.0)),
            "phase-range": _column(_NOMINAL, labels, (2.0, 6.0, 2.0)),
            "phase-write": _column(_ROBUST, labels, (3.0, 3.0, 3.0)),
            "phase-range-2": _column(_NOMINAL, labels, (2.0, 6.0, 2.5)),
        }
        variants = {
            "full": _column(_NOMINAL, labels, (2.0, 8.0, 2.0), events=(_event(150, True),)),
            "incremental": _column(
                _NOMINAL, labels, (2.0, 5.0, 5.0), events=(_event(150, True, steps=4),)
            ),
            "adaptive-rho": _column(_NOMINAL, labels, (2.0, 4.0, 3.0), events=()),
        }
        comparison = _grid(
            labels,
            {**statics, **variants},
            phases=labels,
            oracle_names=("phase-range", "phase-write", "phase-range-2"),
        )
        assert comparison.variants == ["full", "incremental", "adaptive-rho"]
        with pytest.raises(KeyError):
            format_endurance_comparison(comparison)  # unclaimed: no summary yet
        assert format_endurance_comparison(comparison.claiming(endurance)) == "\n".join([
            "expected workload: (25%, 25%, 25%, 25%)  rho=0.5  (A->B->A endurance)",
            "  nominal:       π: leveling, T: 20.0, h: 6.0",
            "  robust:        π: tiering, T: 6.0, h: 4.0",
            "  phase-range:   π: leveling, T: 20.0, h: 6.0",
            "  phase-write:   π: tiering, T: 6.0, h: 4.0",
            "  phase-range-2: π: leveling, T: 20.0, h: 6.0",
            "  session                  oracle           full    incremental   adaptive-rho",
            "  1:range                    2.00           2.00           2.00           2.00",
            "  2:write                    3.00           8.00           5.00           4.00",
            "  3:range                    2.50           2.00           5.00           3.00",
            "  full: 1 migration(s), 400 pages, worst session 8.00 io/q, mean 4.00 io/q,"
            " final [π: tiering, T: 6.0, h: 4.0]",
            "    drift @ op 150: rho=0.50  migration=400 I/Os"
            " -> migrated over 1 step(s) to [π: tiering, T: 6.0, h: 4.0]",
            "  incremental: 1 migration(s), 400 pages, worst session 5.00 io/q,"
            " mean 4.00 io/q, final [π: tiering, T: 6.0, h: 4.0]",
            "    drift @ op 150: rho=0.50  migration=400 I/Os"
            " -> migrated over 4 step(s) to [π: tiering, T: 6.0, h: 4.0]",
            "  adaptive-rho: 0 migration(s), 0 pages, worst session 4.00 io/q,"
            " mean 3.00 io/q, final [π: tiering, T: 6.0, h: 4.0]",
            "  worst per-session I/O spike: full 8.00 -> incremental 5.00 (37.5% lower)",
            "  mean I/Os per query: full 4.00  incremental 4.00  adaptive-rho 3.00"
            "  oracle 2.50  (incremental 1.60x oracle)",
            "  migrations on the cyclic trace: fixed-rho 1 -> adaptive-rho 0",
        ])
        with pytest.raises(KeyError, match="incremental"):
            _grid(labels, {**statics, "full": variants["full"]}).claiming(endurance)


class TestClaims:
    def test_robust_vs_nominal_means_skip_an_empty_session(self):
        """A session that ran no queries measured nothing: the claim's means
        are each column's ``average_ios_per_query``, which leaves it out,
        not a re-average that counts it as 0.0."""
        idle = SessionMeasurement("idle", _EXPECTED, 0, 0, 0, 0, 0, 0)
        columns = {}
        for name, tuning, ios in (
            ("nominal", _NOMINAL, (2.0, 4.0)),
            ("robust", _ROBUST, (1.0, 2.0)),
        ):
            read, scan = _column(tuning, ("read", "range"), ios).sessions
            columns[name] = SequenceMeasurement(tuning, (read, idle, scan))
        summary = robust_vs_nominal(_grid(("read", "idle", "range"), columns))
        assert summary == {
            "io_reduction": 0.5,
            "nominal_mean_io_per_query": 3.0,
            "robust_mean_io_per_query": 1.5,
        }


_ONLINE = OnlineConfig(
    window=250, check_interval=50, min_observations=128, cooldown=512,
    confirm_checks=3, rho=1.0, mode="nominal", horizon_ops=100_000,
)


def _experiment(kind, **config):
    return kind(
        system=simulator_system(num_entries=4_000),
        executor_config=ExecutorConfig(queries_per_workload=250, seed=13, **config),
        benchmark=UncertaintyBenchmark(size=200, seed=13),
        seed=13,
    )


class TestOneMeasurementPath:
    def test_run_is_run_variants_for_the_one_adaptive_column(self, w11):
        experiment = _experiment(AdaptiveExperiment)
        experiment.online = _ONLINE
        run = experiment.run(w11, rho=0.5, sessions_per_phase=2)
        variants = experiment.run_variants(
            w11, 0.5, {"adaptive": _ONLINE}, phases=("read", "write"), sessions_per_phase=2
        )
        assert run.measurements == variants.measurements
        assert run.model_ios == variants.model_ios
        assert not variants.summary and run.summary == adaptive_vs_static(variants)
        assert run.measurements["adaptive"].tuning == run.tunings["nominal"]
        assert set(run.model_ios) == set(run.tunings)
        payload = run.to_dict()
        assert json.loads(json.dumps(payload)) == payload
        assert payload["events"] == payload["variants"]["adaptive"]["events"]

    def test_a_fleet_is_the_same_document_plus_its_fleet_section(self, w11):
        single = _experiment(SystemExperiment).run(w11, rho=0.5, workloads_per_session=1)
        fleet = _experiment(SystemExperiment, num_shards=2).run(
            w11, rho=0.5, workloads_per_session=1
        )
        assert fleet.model_ios == single.model_ios
        payload, unsharded = fleet.to_dict(), single.to_dict()
        assert set(payload) == set(unsharded) | {"num_shards", "results"}
        assert set(payload["sessions"][0]) == set(unsharded["sessions"][0])
        assert "shards=2" in format_comparison(fleet).splitlines()[0]
        assert format_comparison(fleet).splitlines()[3] == format_comparison(single).splitlines()[3]

    def test_adaptive_variants_need_a_single_tree(self, w11):
        with pytest.raises(ValueError, match="single tree"):
            _experiment(AdaptiveExperiment, num_shards=2).run(w11, rho=0.5)
