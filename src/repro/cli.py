"""Small command-line front end for the Endure reproduction.

Examples
--------
Recommend a tuning for an expected workload::

    repro-endure tune --workload 0.33 0.33 0.33 0.01 --rho 1.0

Restrict (or widen) the compaction-policy search space — ``fluid`` makes
the tuner optimise Dostoevsky's per-level run bounds (K, Z) alongside
(T, h)::

    repro-endure tune --workload 0.25 0.25 0.25 0.25 --policy fluid

Mixed short/long range workloads (30% of range lookups are long scans)::

    repro-endure tune --workload 0.1 0.2 0.3 0.4 --long-range-fraction 0.3

Full Dostoevsky generality — search per-level ``K_i`` bound vectors, or pin
an explicit front-loaded ladder (shallowest level first)::

    repro-endure tune --workload 0.1 0.2 0.1 0.6 --policy fluid --k-vector-search
    repro-endure tune --workload 0.1 0.2 0.1 0.6 --policy fluid --k-bounds 4,2,1

Compare nominal and robust tunings on the simulator::

    repro-endure compare --expected-index 11 --rho 0.25 --json

Print the Table 2 expected workloads::

    repro-endure workloads
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields, replace
from typing import Sequence

from .analysis.model_eval import TuningCatalog, tuning_table
from .analysis.online_eval import AdaptiveExperiment, format_adaptive_comparison
from .analysis.system_eval import SystemExperiment, format_comparison
from .core.nominal import NominalTuner
from .core.robust import RobustTuner
from .lsm.policy import ALL_POLICIES, CLASSIC_POLICIES, CompactionPolicy, Policy
from .lsm.system import SystemConfig, simulator_system
from .online.admission import ADMISSION_MODES
from .online.controller import MIGRATION_MODES, OnlineConfig
from .online.retuner import RETUNING_MODES
from .serving import format_sharded_comparison
from .storage.executor import ExecutorConfig
from .workloads.benchmark import expected_workloads
from .workloads.sessions import SessionType
from .workloads.workload import Workload

#: ``--policy`` choices: each concrete policy plus the exhaustive sweeps.
_POLICY_CHOICES = tuple(p.value for p in ALL_POLICIES) + ("classic", "all")


def _validated_number(cast, accepts, description):
    """Argparse type factory: cast ``text`` and bound-check it.

    Rejecting bad values at the parser gives the operator a clear usage
    error instead of a downstream traceback (a zero window, for instance,
    used to surface as a ``ValueError`` deep inside the estimator).
    """

    def parse(text: str):
        try:
            value = cast(text)
        except ValueError:
            noun = "an integer" if cast is int else "a number"
            raise argparse.ArgumentTypeError(f"expected {noun}, got {text!r}")
        if not accepts(value):
            raise argparse.ArgumentTypeError(f"must be {description}, got {value}")
        return value

    return parse


_positive_int = _validated_number(int, lambda v: v > 0, "a positive integer")
_non_negative_int = _validated_number(int, lambda v: v >= 0, "a non-negative integer")
_non_negative_float = _validated_number(float, lambda v: v >= 0, "non-negative")
_run_bound = _validated_number(float, lambda v: v >= 1, "at least 1")
_fraction = _validated_number(float, lambda v: 0 <= v <= 1, "a fraction in [0, 1]")
_positive_fraction = _validated_number(
    float, lambda v: 0 < v <= 1, "a fraction in (0, 1]"
)
_LAST_EXPECTED = len(expected_workloads()) - 1
_expected_index = _validated_number(
    int, lambda v: 0 <= v <= _LAST_EXPECTED, f"a Table 2 index in 0..{_LAST_EXPECTED}"
)


def _k_bounds_arg(text: str) -> tuple[float, ...]:
    """Argparse type of ``--k-bounds``: a comma-separated per-level vector.

    Every malformation dies at the parser with a usage error (matching the
    validated-knob convention of the online flags): an empty value, an empty
    entry (``"4,,1"``), a non-numeric entry, or a bound below the deployable
    minimum of 1.
    """
    if not text.strip():
        raise argparse.ArgumentTypeError(
            "expected a comma-separated list of per-level run bounds "
            "(e.g. 4,2,1), got an empty value"
        )
    bounds: list[float] = []
    for entry in text.split(","):
        entry = entry.strip()
        if not entry:
            raise argparse.ArgumentTypeError(
                f"empty entry in k-bounds list {text!r}"
            )
        try:
            value = float(entry)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected a number, got {entry!r} in k-bounds list {text!r}"
            )
        if value < 1.0:
            raise argparse.ArgumentTypeError(
                f"per-level run bounds must be at least 1, got {value:g}"
            )
        bounds.append(value)
    return tuple(bounds)


def _workload_from_args(values: Sequence[float]) -> Workload:
    return Workload.from_array([float(v) for v in values])


def _policies_from_arg(value: str) -> tuple[Policy, ...]:
    """Resolve a ``--policy`` flag value to the tuner's policy search space."""
    if value == "all":
        return ALL_POLICIES
    if value == "classic":
        return CLASSIC_POLICIES
    return (Policy.from_value(value),)


def _cmd_tune(args: argparse.Namespace) -> int:
    workload = _workload_from_args(args.workload)
    if args.long_range_fraction > 0:
        workload = workload.with_long_range_fraction(args.long_range_fraction)
    system = SystemConfig()
    if args.num_entries is not None:
        system = system.scaled(args.num_entries)
    if args.long_range_selectivity is not None:
        system = replace(system, long_range_selectivity=args.long_range_selectivity)
    policies: tuple[Policy | CompactionPolicy, ...] = _policies_from_arg(args.policy)
    if args.k_bounds is not None:
        if args.policy != Policy.FLUID.value:
            args.subparser.error(
                "--k-bounds requires --policy fluid (per-level run bounds "
                "are only meaningful for the fluid policy)"
            )
        if args.k_vector_search:
            args.subparser.error(
                "--k-bounds pins an explicit vector; --k-vector-search asks "
                "the tuner to move it — pass one or the other"
            )
        # Pin the search to the explicit per-level vector: the tuners still
        # optimise (T, h) but deploy exactly these bounds.
        policies = (CompactionPolicy.fluid(args.k_bounds, args.z_bound),)
    elif args.z_bound is not None:
        args.subparser.error("--z-bound is only meaningful alongside --k-bounds")
    tuner_kwargs = dict(
        system=system,
        policies=policies,
        k_vector_search=args.k_vector_search,
    )
    nominal = NominalTuner(**tuner_kwargs).tune(workload)
    output = {
        "workload": workload.as_dict(),
        "policies": list(
            dict.fromkeys(CompactionPolicy.of(p).policy.value for p in policies)
        ),
        "num_entries": system.num_entries,
        "nominal": nominal.tuning.to_dict(),
    }
    if args.rho > 0:
        robust = RobustTuner(rho=args.rho, **tuner_kwargs).tune(workload)
        output["robust"] = robust.tuning.to_dict()
        output["rho"] = args.rho
    print(json.dumps(output, indent=2))
    return 0


def _cmd_workloads(_: argparse.Namespace) -> int:
    for expected in expected_workloads():
        print(expected.describe())
    return 0


def _cmd_table(args: argparse.Namespace) -> int:
    catalog = TuningCatalog()
    for row in tuning_table(catalog, rho=args.rho):
        print(
            f"{row['workload']:<4} {row['composition']:<26} "
            f"nominal[{row['nominal']}]  robust[{row['robust']}]"
        )
    return 0


def _executor_config(args: argparse.Namespace) -> ExecutorConfig:
    """Executor knobs from CLI flags; ``--seed`` makes runs reproducible.

    Every :class:`ExecutorConfig` field a subcommand exposes is a flag of
    the same name; fields it does not expose (or leaves at ``None``) keep
    their defaults.
    """
    values = {f.name: getattr(args, f.name, None) for f in fields(ExecutorConfig)}
    return ExecutorConfig(**{k: v for k, v in values.items() if v is not None})


def _add_update_flags(subparser: argparse.ArgumentParser) -> None:
    """Write-mix knobs shared by the simulator subcommands."""
    subparser.add_argument(
        "--update-fraction",
        type=_fraction,
        default=None,
        help="fraction of the trace's writes that update an existing key "
        "(creating obsolete versions compactions must consolidate) instead "
        "of inserting a fresh one",
    )
    subparser.add_argument(
        "--update-skew",
        type=_non_negative_float,
        default=None,
        help="Zipf exponent concentrating updates on a hot key subset "
        "(0 = uniform over the resident keys)",
    )


def _add_batch_flags(subparser: argparse.ArgumentParser) -> None:
    """Trace-replay knob shared by the simulator subcommands."""
    subparser.add_argument(
        "--max-batch-ops",
        type=_positive_int,
        default=4_096,
        help="most pending reads (GET keys, ranges) handed to the vectorised read path at once",
    )


def _cmd_compare(args: argparse.Namespace) -> int:
    expected = expected_workloads()[args.expected_index].workload
    if args.long_range_fraction > 0:
        expected = expected.with_long_range_fraction(args.long_range_fraction)
    experiment = SystemExperiment(
        system=simulator_system(num_entries=args.num_entries),
        executor_config=_executor_config(args),
        policies=_policies_from_arg(args.policy),
        **({"seed": args.seed} if args.seed is not None else {}),
    )
    if args.num_shards > 1:
        comparison = experiment.run_sharded(expected, rho=args.rho)
        if args.json:
            print(json.dumps(comparison.to_dict(), indent=2))
        else:
            print(format_sharded_comparison(comparison))
        return 0
    comparison = experiment.run(expected, rho=args.rho)
    if args.json:
        print(json.dumps(comparison.to_dict(), indent=2))
    else:
        print(format_comparison(comparison))
    return 0


def _cmd_online(args: argparse.Namespace) -> int:
    if args.rho_adaptive and args.mode != "robust":
        raise SystemExit(
            "repro-endure online: error: --rho-adaptive requires --mode robust "
            "(nominal re-tunings have no radius to widen)"
        )
    expected = expected_workloads()[args.expected_index].workload
    online = OnlineConfig(
        window=args.window,
        check_interval=args.check_interval,
        min_observations=args.min_observations,
        cooldown=args.cooldown,
        confirm_checks=args.confirm_checks,
        threshold=args.threshold,
        mode=args.mode,
        rho=args.retune_rho,
        horizon_ops=args.horizon,
        migration=args.migration,
        migration_step_ops=args.migration_step_ops,
        migration_step_pages=args.migration_step_pages,
        admission=args.admission,
        admission_max_backlog=args.admission_max_backlog,
        admission_starvation_ops=args.admission_starvation_ops,
        admission_idle_steps=args.admission_idle_steps,
        rho_adaptive=args.rho_adaptive,
        volatility_gain=args.volatility_gain,
        k_vector_search=args.k_vector_search,
    )
    experiment = AdaptiveExperiment(
        system=simulator_system(num_entries=args.num_entries),
        executor_config=_executor_config(args),
        online=online,
        policies=_policies_from_arg(args.policy),
        parallel=args.parallel,
        **({"seed": args.seed} if args.seed is not None else {}),
    )
    comparison = experiment.run(
        expected,
        rho=args.rho,
        phases=args.phases,
        sessions_per_phase=args.sessions_per_phase,
    )
    if args.json:
        print(json.dumps(comparison.to_dict(), indent=2))
    else:
        print(format_adaptive_comparison(comparison))
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro-endure",
        description="Robust LSM-tree tuning under workload uncertainty (Endure reproduction)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    tune = subparsers.add_parser("tune", help="recommend a tuning for a workload")
    tune.add_argument(
        "--workload",
        nargs=4,
        type=float,
        required=True,
        metavar=("Z0", "Z1", "Q", "W"),
        help="workload proportions (empty reads, non-empty reads, ranges, writes)",
    )
    tune.add_argument(
        "--rho", type=_non_negative_float, default=1.0, help="uncertainty radius"
    )
    tune.add_argument(
        "--policy",
        choices=_POLICY_CHOICES,
        default="classic",
        help="compaction policies the tuner may choose from "
        "('classic' = the paper's leveling+tiering pair, 'all' additionally "
        "allows lazy-leveling)",
    )
    tune.add_argument(
        "--num-entries",
        type=int,
        default=None,
        help="scale the system to this many entries (memory budget scales along)",
    )
    tune.add_argument(
        "--long-range-fraction",
        type=_fraction,
        default=0.0,
        help="fraction of the range lookups that are long (scan-dominated); "
        "0 reproduces the paper's short-range-only model",
    )
    tune.add_argument(
        "--long-range-selectivity",
        type=_positive_fraction,
        default=None,
        help="selectivity of long range queries (fraction of all entries; "
        "default: the system's built-in 0.001)",
    )
    tune.add_argument(
        "--k-bounds",
        type=_k_bounds_arg,
        default=None,
        metavar="K1,K2,...",
        help="pin a per-level fluid run-bound vector (shallowest level "
        "first, e.g. 4,2,1); requires --policy fluid.  Levels deeper than "
        "the vector reuse its last element",
    )
    tune.add_argument(
        "--z-bound",
        type=_run_bound,
        default=None,
        help="run bound of the largest level for a pinned --k-bounds vector "
        "(default 1: a single leveled run)",
    )
    tune.add_argument(
        "--k-vector-search",
        action="store_true",
        help="let the fluid search cover per-level K_i bound vectors "
        "(structured ladder/perturbation families and a coordinate descent "
        "over integer bounds) instead of only uniform (K, Z) pairs",
    )
    tune.add_argument(
        "--seed",
        type=int,
        default=None,
        help="accepted for symmetry with the simulating commands; the "
        "tuners are deterministic, so every seed prints the same output",
    )
    tune.set_defaults(func=_cmd_tune, subparser=tune)

    workloads = subparsers.add_parser("workloads", help="print Table 2 workloads")
    workloads.set_defaults(func=_cmd_workloads)

    table = subparsers.add_parser("table", help="nominal vs robust tunings (all workloads)")
    table.add_argument("--rho", type=_non_negative_float, default=1.0)
    table.set_defaults(func=_cmd_table)

    compare = subparsers.add_parser(
        "compare", help="run the simulator comparison for one expected workload"
    )
    compare.add_argument("--expected-index", type=_expected_index, default=11)
    compare.add_argument("--rho", type=_non_negative_float, default=0.25)
    compare.add_argument("--num-entries", type=int, default=30_000)
    compare.add_argument(
        "--policy",
        choices=_POLICY_CHOICES,
        default="classic",
        help="compaction policies the tuners may deploy on the simulator",
    )
    compare.add_argument(
        "--long-range-fraction",
        type=_fraction,
        default=0.0,
        help="fraction of range lookups issued (and modelled) as long scans",
    )
    compare.add_argument(
        "--long-scan-keys",
        type=_positive_int,
        default=512,
        help="keys covered by one long range scan on the simulator",
    )
    compare.add_argument(
        "--backend",
        choices=("simulated", "persistent"),
        default="simulated",
        help="storage backend the compared trees run on: 'simulated' keeps "
        "runs in memory, 'persistent' builds real SSTable files (identical "
        "I/O counters; wall-clock time becomes meaningful)",
    )
    compare.add_argument(
        "--data-dir",
        default=None,
        help="parent directory for the persistent backend's per-tree files "
        "(default: a temp dir, removed after the run; a given directory is "
        "kept for inspection)",
    )
    compare.add_argument(
        "--sync-writes",
        action="store_true",
        help="fsync the persistent backend's write-ahead log on every write",
    )
    compare.add_argument(
        "--num-shards",
        type=_positive_int,
        default=1,
        help="serve the comparison from a hash-partitioned shard fleet "
        "(one tree per shard, range scans fanned out; merged fleet "
        "measurements plus p50/p95/worst-shard percentiles)",
    )
    _add_update_flags(compare)
    compare.add_argument(
        "--seed",
        type=int,
        default=None,
        help="seed of the key space, traces and session sampling "
        "(same seed -> identical simulation, end to end)",
    )
    compare.add_argument(
        "--json",
        action="store_true",
        help="emit the comparison as machine-readable JSON instead of a table",
    )
    _add_batch_flags(compare)
    compare.set_defaults(func=_cmd_compare)

    online = subparsers.add_parser(
        "online",
        help="replay a drifting session sequence with online adaptive re-tuning",
    )
    online.add_argument(
        "--expected-index",
        type=_expected_index,
        default=11,
        help="Table 2 index of the workload the static tunings expect",
    )
    online.add_argument(
        "--rho",
        type=_non_negative_float,
        default=0.5,
        help="radius of the static robust tuning",
    )
    online.add_argument("--num-entries", type=_positive_int, default=10_000)
    online.add_argument(
        "--queries-per-workload", type=_positive_int, default=1_000
    )
    online.add_argument(
        "--phases",
        nargs="+",
        default=["read", "write"],
        choices=[t.value for t in SessionType],
        help="session types of the drift phases, in stream order",
    )
    online.add_argument("--sessions-per-phase", type=_positive_int, default=3)
    online.add_argument(
        "--window",
        type=_positive_int,
        default=400,
        help="effective window (operations) of the rolling workload estimator",
    )
    online.add_argument(
        "--check-interval",
        type=_positive_int,
        default=64,
        help="operations between drift checks",
    )
    online.add_argument(
        "--min-observations",
        type=_non_negative_int,
        default=256,
        help="estimator warm-up before drift may fire",
    )
    online.add_argument(
        "--cooldown",
        type=_non_negative_int,
        default=2_048,
        help="operations after a firing during which drift is suppressed",
    )
    online.add_argument(
        "--confirm-checks",
        type=_positive_int,
        default=5,
        help="consecutive out-of-region checks required before drift fires",
    )
    online.add_argument(
        "--threshold",
        type=float,
        default=None,
        help="KL drift threshold (default: the re-tuning radius)",
    )
    online.add_argument(
        "--mode",
        choices=RETUNING_MODES,
        default="nominal",
        help="re-tuner run on drift",
    )
    online.add_argument(
        "--retune-rho",
        type=_non_negative_float,
        default=1.0,
        help="uncertainty radius of robust re-tunings (and the default "
        "drift threshold)",
    )
    online.add_argument(
        "--horizon",
        type=_positive_int,
        default=12_000,
        help="operations over which a migration's cost must be recouped",
    )
    online.add_argument(
        "--migration",
        choices=MIGRATION_MODES,
        default="full",
        help="migration execution: 'full' rebuilds the tree at the firing, "
        "'incremental' spreads a level-by-level plan over the stream while "
        "a mixed old/new state serves queries",
    )
    online.add_argument(
        "--migration-step-ops",
        type=_positive_int,
        default=256,
        help="operations between incremental migration steps",
    )
    online.add_argument(
        "--migration-step-pages",
        type=_positive_int,
        default=None,
        help="page cap per incremental migration step "
        "(default: one run per step)",
    )
    online.add_argument(
        "--admission",
        choices=ADMISSION_MODES,
        default="fixed",
        help="incremental migration-step admission: 'fixed' paces one step "
        "every --migration-step-ops operations, 'queue-depth' defers steps "
        "while the serving backlog is deep and drains them in idle gaps",
    )
    online.add_argument(
        "--admission-max-backlog",
        type=_non_negative_int,
        default=256,
        help="backlog (queued operations) at or below which a due step is "
        "admitted under queue-depth admission",
    )
    online.add_argument(
        "--admission-starvation-ops",
        type=_positive_int,
        default=4_096,
        help="operations after which a migration step is forced regardless "
        "of backlog (queue-depth admission starvation bound)",
    )
    online.add_argument(
        "--admission-idle-steps",
        type=_non_negative_int,
        default=8,
        help="migration steps drained per inter-session idle gap under "
        "queue-depth admission",
    )
    online.add_argument(
        "--rho-adaptive",
        action="store_true",
        help="widen the robust re-tuning radius with the observed "
        "KL-trajectory volatility (cyclic workloads get tuned once for the "
        "whole cycle); requires --mode robust",
    )
    online.add_argument(
        "--volatility-gain",
        type=_non_negative_float,
        default=2.0,
        help="multiplier on the KL-trajectory volatility added to rho",
    )
    online.add_argument(
        "--policy",
        choices=_POLICY_CHOICES,
        default="classic",
        help="compaction policies the tuners (static and online) may deploy",
    )
    online.add_argument(
        "--k-vector-search",
        action="store_true",
        help="let fluid re-tunings search per-level K_i bound vectors "
        "(vector proposals migrate like any other tuning)",
    )
    _add_update_flags(online)
    online.add_argument(
        "--parallel",
        action="store_true",
        help="measure the static tunings on a multiprocessing pool",
    )
    online.add_argument(
        "--seed",
        type=int,
        default=None,
        help="seed of the key space, traces and session sampling "
        "(same seed -> identical simulation, end to end)",
    )
    online.add_argument(
        "--json",
        action="store_true",
        help="emit the comparison as machine-readable JSON instead of a table",
    )
    _add_batch_flags(online)
    online.set_defaults(func=_cmd_online)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
