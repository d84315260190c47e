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

from .analysis.comparison import (
    ADAPTIVE,
    DRIFT_ENTRIES,
    DRIFT_EXECUTOR,
    DRIFT_ONLINE,
    Experiment,
    adaptive_vs_static,
    drift_experiment,
    format_adaptive_comparison,
    format_comparison,
)
from .analysis.model_eval import TuningCatalog, tuning_table
from .core import NominalTuner, RobustTuner
from .knobs import FRACTION, NON_NEGATIVE, POSITIVE_INT, Bound, flag_of
from .lsm.policy import ALL_POLICIES, CLASSIC_POLICIES, CompactionPolicy, Policy
from .lsm.system import SystemConfig, simulator_system
from .storage.executor import ExecutorConfig
from .workloads.benchmark import expected_workloads
from .workloads.sessions import SessionType
from .workloads.workload import Workload

#: ``--policy`` choices: each concrete policy plus the exhaustive sweeps.
_POLICY_CHOICES = tuple(p.value for p in ALL_POLICIES) + ("classic", "all")


def _arg_type(bound: Bound):
    """Argparse type of a bound: cast ``text`` and hold it to the bound.

    Rejecting bad values at the parser gives the operator a clear usage
    error instead of a downstream traceback (a zero window, for instance,
    used to surface as a ``ValueError`` deep inside the estimator).
    """

    def parse(text: str):
        try:
            value = bound.cast(text)
        except ValueError:
            noun = "an integer" if bound.cast is int else "a number"
            raise argparse.ArgumentTypeError(f"expected {noun}, got {text!r}")
        if not bound.accepts(value):
            raise argparse.ArgumentTypeError(f"must be {bound.description}, got {value}")
        return value

    return parse


_positive_int = _arg_type(POSITIVE_INT)
_non_negative_float = _arg_type(NON_NEGATIVE)
_fraction = _arg_type(FRACTION)
_run_bound = _arg_type(Bound(float, lambda v: v >= 1, "at least 1"))
_positive_fraction = _arg_type(Bound(float, lambda v: 0 < v <= 1, "a fraction in (0, 1]"))
_LAST_EXPECTED = len(expected_workloads()) - 1
_expected_index = _arg_type(
    Bound(int, lambda v: 0 <= v <= _LAST_EXPECTED, f"a Table 2 index in 0..{_LAST_EXPECTED}")
)

#: Each simulating subcommand's :class:`~repro.storage.executor.ExecutorConfig`:
#: the defaults its knobs start from and the knobs it exposes (``online`` also
#: exposes every ``OnlineConfig`` knob).
_EXECUTOR_KNOBS = {
    "compare": (
        ExecutorConfig(),
        ("long_scan_keys", "backend", "data_dir", "sync_writes", "num_shards", "update_fraction"),
    ),
    "online": (DRIFT_EXECUTOR, ("queries_per_workload", "update_fraction")),
}


def _knob_flags(config, names: Sequence[str] | None = None):
    """``(field, flag)`` of the knobs of ``config`` a subcommand exposes."""
    for spec in fields(config):
        flag = flag_of(spec)
        if flag is not None and (names is None or spec.name in names):
            yield spec, flag


def _add_knob_flags(subparser, defaults, names: Sequence[str] | None = None) -> None:
    """One flag per knob of the config instance ``defaults``.

    Help, bound and flag name are the field's metadata, the default is what
    ``defaults`` holds: a bool is a ``store_true`` switch, a choices tuple
    becomes ``choices``, a :class:`~repro.knobs.Bound` the argparse type.
    """
    for spec, flag in _knob_flags(defaults, names):
        bound, default = spec.metadata["bound"], getattr(defaults, spec.name)
        if isinstance(default, bool):
            options = {"action": "store_true"}
        elif isinstance(bound, tuple):
            options = {"choices": bound, "default": default}
        else:
            options = {"type": _arg_type(bound) if bound else str, "default": default}
        subparser.add_argument(flag, help=spec.metadata["help"], **options)


def _config_from_flags(args: argparse.Namespace, defaults, names=None, **extra):
    """``defaults`` with every exposed knob set from its flag.

    A cross-field rule the config rejects (``--rho-adaptive`` without
    ``--mode robust``, a starvation bound under the step cadence) is a usage
    error like any single bad value.
    """
    values = {
        spec.name: getattr(args, flag[2:].replace("-", "_"))
        for spec, flag in _knob_flags(defaults, names)
    }
    try:
        return replace(defaults, **values, **extra)
    except ValueError as error:
        args.subparser.error(str(error))


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
        if not entry.strip():
            raise argparse.ArgumentTypeError(
                f"empty entry in k-bounds list {text!r}"
            )
        bounds.append(_run_bound(entry.strip()))
    return tuple(bounds)


def _policies_from_arg(value: str) -> tuple[Policy, ...]:
    """Resolve a ``--policy`` flag value to the tuner's policy search space."""
    if value == "all":
        return ALL_POLICIES
    if value == "classic":
        return CLASSIC_POLICIES
    return (Policy.from_value(value),)


def _cmd_tune(args: argparse.Namespace) -> int:
    workload = Workload.from_array(args.workload)
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
        # optimise (T, h) but deploy these bounds, clamped to T - 1.
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


def _experiment(args: argparse.Namespace, experiment, **extra):
    """``experiment`` (the class or a factory of it) as the flags describe it.

    The executor knobs start from the subcommand's default config, and
    without a ``--seed`` every seed keeps its default.
    """
    seed = {} if args.seed is None else {"seed": args.seed}
    return experiment(
        system=simulator_system(num_entries=args.num_entries),
        executor_config=_config_from_flags(args, *_EXECUTOR_KNOBS[args.command], **seed),
        policies=_policies_from_arg(args.policy),
        **seed,
        **extra,
    )


def _emit(args: argparse.Namespace, comparison, render) -> int:
    """Print ``comparison`` as ``--json`` asks: its dict, or ``render``'s table."""
    print(json.dumps(comparison.to_dict(), indent=2) if args.json else render(comparison))
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    expected = expected_workloads()[args.expected_index].workload
    if args.long_range_fraction > 0:
        expected = expected.with_long_range_fraction(args.long_range_fraction)
    comparison = _experiment(args, Experiment).run(expected, rho=args.rho)
    return _emit(args, comparison, format_comparison)


def _cmd_online(args: argparse.Namespace) -> int:
    expected = expected_workloads()[args.expected_index].workload
    online = _config_from_flags(args, DRIFT_ONLINE)
    experiment = _experiment(args, drift_experiment, parallel=args.parallel)
    comparison = experiment.drift(
        expected, args.rho, {ADAPTIVE: online}, args.phases, args.sessions_per_phase
    ).claiming(adaptive_vs_static)
    return _emit(args, comparison, format_adaptive_comparison)


def _simulation_parser(
    subparsers, command: str, help: str, rho: float, num_entries: int
) -> argparse.ArgumentParser:
    """A simulating subcommand with the flags they share: the expected
    workload, the static radius, the size, the policies, the command's
    executor knobs, ``--seed`` and ``--json``."""
    subparser = subparsers.add_parser(command, help=help)
    subparser.add_argument(
        "--expected-index",
        type=_expected_index,
        default=11,
        help="Table 2 index of the workload the static tunings expect",
    )
    subparser.add_argument(
        "--rho", type=_non_negative_float, default=rho, help="radius of the static robust tuning"
    )
    subparser.add_argument("--num-entries", type=_positive_int, default=num_entries)
    subparser.add_argument(
        "--policy",
        choices=_POLICY_CHOICES,
        default="classic",
        help="compaction policies the tuners may deploy on the simulator",
    )
    _add_knob_flags(subparser, *_EXECUTOR_KNOBS[command])
    subparser.add_argument(
        "--seed",
        type=int,
        default=None,
        help="seed of the key space, traces and session sampling "
        "(same seed -> identical simulation, end to end)",
    )
    subparser.add_argument(
        "--json",
        action="store_true",
        help="emit the comparison as machine-readable JSON instead of a table",
    )
    subparser.set_defaults(subparser=subparser)
    return subparser


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
        "('classic' = the paper's leveling+tiering pair, 'all' = "
        f"{', '.join(policy.value for policy in ALL_POLICIES)})",
    )
    tune.add_argument(
        "--num-entries",
        type=_positive_int,
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
        f"default: the system's built-in {SystemConfig.long_range_selectivity:g})",
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
    tune.set_defaults(func=_cmd_tune, subparser=tune)

    workloads = subparsers.add_parser("workloads", help="print Table 2 workloads")
    workloads.set_defaults(func=_cmd_workloads)

    table = subparsers.add_parser("table", help="nominal vs robust tunings (all workloads)")
    table.add_argument("--rho", type=_non_negative_float, default=1.0)
    table.set_defaults(func=_cmd_table)

    compare = _simulation_parser(
        subparsers, "compare", "run the simulator comparison for one expected workload",
        rho=0.25, num_entries=30_000,
    )
    compare.add_argument(
        "--long-range-fraction",
        type=_fraction,
        default=0.0,
        help="fraction of range lookups issued (and modelled) as long scans",
    )
    compare.set_defaults(func=_cmd_compare)

    online = _simulation_parser(
        subparsers, "online", "replay a drifting session sequence with online adaptive re-tuning",
        rho=0.5, num_entries=DRIFT_ENTRIES,
    )
    online.add_argument(
        "--phases",
        nargs="+",
        default=["read", "write"],
        choices=[t.value for t in SessionType],
        help="session types of the drift phases, in stream order",
    )
    online.add_argument("--sessions-per-phase", type=_positive_int, default=3)
    _add_knob_flags(online, DRIFT_ONLINE)
    online.add_argument(
        "--parallel",
        action="store_true",
        help="measure the static tunings on a multiprocessing pool",
    )
    online.set_defaults(func=_cmd_online)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
