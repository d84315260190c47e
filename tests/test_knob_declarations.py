"""The config dataclass is the only copy of a knob.

Every ``OnlineConfig`` / ``ExecutorConfig`` field carries its help, bound and
flag name as field metadata; the CLI derives the flag from it, the
constructor holds the value to it, and the default comes from the config the
subcommand's experiment starts from.  These tests walk the fields, so a knob
re-typed anywhere (a second default, a second validator, a second help
string) or a flag added by hand for a config field shows up as a mismatch.
"""

import argparse
import inspect
from dataclasses import fields, replace

import pytest

from repro.analysis import Experiment
from repro.analysis.comparison import DRIFT_EXECUTOR, DRIFT_ONLINE
from repro.cli import build_parser
from repro.core import NominalTuner
from repro.knobs import Bound, flag_of
from repro.online import OnlineConfig
from repro.online.controller import OnlineConfig as ControllerOnlineConfig
from repro.storage import ExecutorConfig
from repro.storage.lsm_tree import MAX_BATCH_OPS

#: Option strings of the three flag-carrying subcommands at the parent of the
#: PR that derived them from the dataclasses — none added, and none lost but
#: ``tune --seed``, which the deterministic tuners never read, six knobs
#: no driver ever set off their default: ``compare --update-skew
#: --max-batch-ops`` and ``online --update-skew --max-batch-ops
#: --volatility-gain --k-vector-search`` (the batch bound and the gain are
#: module constants now, the Zipf update path and the online K-vector switch
#: are gone; ``tune --k-vector-search`` stays), and the three queue-depth
#: pacing knobs ``online --admission-max-backlog --admission-starvation-ops
#: --admission-idle-steps``, which the one driver of queue-depth admission
#: set to the values that are now its rule (a due step waits for the served
#: chunk to drain, a lull finishes the plan).
PARENT_OPTIONS = {
    "tune": {
        "--k-bounds", "--k-vector-search", "--long-range-fraction",
        "--long-range-selectivity", "--num-entries", "--policy", "--rho",
        "--workload", "--z-bound",
    },
    "compare": {
        "--backend", "--data-dir", "--expected-index", "--json",
        "--long-range-fraction", "--long-scan-keys", "--num-entries", "--num-shards",
        "--policy", "--rho", "--seed", "--sync-writes", "--update-fraction",
    },
    "online": {
        "--admission", "--check-interval", "--confirm-checks", "--cooldown",
        "--expected-index", "--horizon", "--json", "--migration", "--migration-step-ops",
        "--migration-step-pages", "--min-observations", "--mode",
        "--num-entries", "--parallel", "--phases", "--policy", "--queries-per-workload",
        "--retune-rho", "--rho", "--rho-adaptive", "--seed", "--sessions-per-phase",
        "--threshold", "--update-fraction", "--window",
    },
}

#: Flags that are not config fields and stay hand-written.
HAND_WRITTEN = {
    "compare": {
        "--expected-index", "--rho", "--num-entries", "--policy",
        "--long-range-fraction", "--seed", "--json",
    },
    "online": {
        "--expected-index", "--rho", "--num-entries", "--phases",
        "--sessions-per-phase", "--policy", "--parallel", "--seed", "--json",
    },
}

#: ``ExecutorConfig`` fields declared ``flag=False``.  ``seed`` is set by the
#: subcommands' own ``--seed`` together with the experiment's seed.
NOT_FLAGS = {"seed"}

#: Which subcommands expose which ``ExecutorConfig`` knob.
EXECUTOR_EXPOSURE = {
    "queries_per_workload": ("online",),
    "long_scan_keys": ("compare",),
    "update_fraction": ("compare", "online"),
    "backend": ("compare",),
    "data_dir": ("compare",),
    "sync_writes": ("compare",),
    "num_shards": ("compare",),
}


@pytest.fixture(scope="module")
def subparsers():
    parser = build_parser()
    action = next(
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    )
    return action.choices


@pytest.fixture(scope="module")
def owners():
    """The default config each subcommand starts from: the drift defaults
    for ``online``, a default experiment's for ``compare``."""
    return {
        ("online", OnlineConfig): DRIFT_ONLINE,
        ("online", ExecutorConfig): DRIFT_EXECUTOR,
        ("compare", ExecutorConfig): Experiment().executor_config,
    }


def _options(subparser) -> set[str]:
    return {
        option
        for action in subparser._actions
        for option in action.option_strings
        if option.startswith("--") and option != "--help"
    }


def _action(subparser, flag: str):
    return next(a for a in subparser._actions if flag in a.option_strings)


def _exposures():
    """Every (subcommand, config class, field) that is a flag."""
    for spec in fields(OnlineConfig):
        yield "online", OnlineConfig, spec
    for spec in fields(ExecutorConfig):
        for command in EXECUTOR_EXPOSURE.get(spec.name, ()):
            yield command, ExecutorConfig, spec


_EXPOSURES = list(_exposures())
_IDS = [f"{command}-{spec.name}" for command, _, spec in _EXPOSURES]


def _outside(bound) -> str | None:
    """A command-line value the bound must reject (``None``: unbounded)."""
    if isinstance(bound, tuple):
        return "no-such-choice"
    if isinstance(bound, Bound):
        return next(
            text for text in ("-1", "0", "2") if not bound.accepts(bound.cast(text))
        )
    return None


class TestEveryFieldIsDeclaredOnce:
    def test_every_field_is_a_flag_or_declared_not_one(self):
        assert all(flag_of(spec) is not None for spec in fields(OnlineConfig))
        flags = {spec.name for spec in fields(ExecutorConfig) if flag_of(spec)}
        assert flags == set(EXECUTOR_EXPOSURE)
        assert {spec.name for spec in fields(ExecutorConfig)} - flags == NOT_FLAGS

    def test_every_field_documents_itself(self):
        for spec in (*fields(OnlineConfig), *fields(ExecutorConfig)):
            assert spec.metadata["help"].strip(), spec.name
            assert "bound" in spec.metadata, spec.name

    @pytest.mark.parametrize("command,config,spec", _EXPOSURES, ids=_IDS)
    def test_flag_takes_default_and_help_from_the_declaration(
        self, subparsers, owners, command, config, spec
    ):
        action = _action(subparsers[command], flag_of(spec))
        assert action.default == getattr(owners[command, config], spec.name)
        assert action.help == spec.metadata["help"]
        if isinstance(spec.metadata["bound"], tuple):
            assert tuple(action.choices) == spec.metadata["bound"]

    @pytest.mark.parametrize("command,config,spec", _EXPOSURES, ids=_IDS)
    def test_parser_and_constructor_reject_the_same_values(
        self, subparsers, owners, capsys, command, config, spec
    ):
        bound = spec.metadata["bound"]
        text = _outside(bound)
        if text is None:
            assert spec.type in ("bool", "str | None")
            return
        with pytest.raises(SystemExit) as excinfo:
            subparsers[command].parse_args([flag_of(spec), text])
        assert excinfo.value.code == 2
        assert flag_of(spec) in capsys.readouterr().err
        value = text if isinstance(bound, tuple) else bound.cast(text)
        with pytest.raises(ValueError, match=spec.name):
            replace(owners[command, config], **{spec.name: value})

    def test_optional_knobs_accept_none(self):
        config = OnlineConfig(threshold=None, migration_step_pages=None)
        assert config.threshold is None and config.migration_step_pages is None
        assert ExecutorConfig(data_dir=None).data_dir is None


class TestOptionStrings:
    @pytest.mark.parametrize("command", sorted(PARENT_OPTIONS))
    def test_no_option_added_and_none_lost(self, subparsers, command):
        assert _options(subparsers[command]) == PARENT_OPTIONS[command]

    @pytest.mark.parametrize("command", sorted(HAND_WRITTEN))
    def test_every_other_flag_is_a_config_field(self, subparsers, command):
        generated = {
            flag_of(spec) for name, _, spec in _EXPOSURES if name == command
        }
        assert not generated & HAND_WRITTEN[command]
        assert _options(subparsers[command]) == generated | HAND_WRITTEN[command]

    def test_seed_is_the_one_shared_hand_written_knob(self, subparsers):
        for command in ("compare", "online"):
            assert _action(subparsers[command], "--seed").default is None


class TestDroppedKnobs:
    def test_online_config_lost_its_never_varied_fields(self):
        names = {spec.name for spec in fields(OnlineConfig)}
        assert len(names) == 14
        assert not names & {
            "safety_factor", "smoothing", "polish", "rho_cap", "volatility_gain",
            "k_vector_search", "admission_max_backlog", "admission_starvation_ops",
            "admission_idle_steps",
        }

    def test_tuners_search_integer_ratios_with_no_option(self):
        assert "polish" not in inspect.signature(NominalTuner.__init__).parameters

    def test_executor_config_lost_its_never_varied_fields(self):
        names = {spec.name for spec in fields(ExecutorConfig)}
        assert not names & {"update_skew", "max_batch_ops"}
        assert ExecutorConfig().max_batch_ops == MAX_BATCH_OPS

    def test_online_config_still_resolves_from_the_controller_module(self):
        assert ControllerOnlineConfig is OnlineConfig
