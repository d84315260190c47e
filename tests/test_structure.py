"""The structure table: one row per thing a change removed that must not come
back, or per definition that must stay counted.

A row's text is every file its globs match (``scope``: only the named
functions and classes in them, found with ``ast``; ``Class.method`` names a
method of one class), and its pattern is
searched in each file with ``re.M``: ``^`` and ``$`` anchor lines, and ``\\A``
matches once per file, which is how a file count is a row.  ``bound`` is
``None`` (no match), ``"== n"`` or ``"<= n"`` matches.  Every row is checked
twice: ``test_rule_holds`` on the repository, and ``test_rule_trips`` with
the row's ``trip`` line added to its text (as many copies as it takes to
cross a ``<=`` bound), which must break the rule.  A glob that matches no
file and a scope name that is not defined fail the row, so a rename cannot
leave a rule checking nothing.

Run one row with ``python -m pytest tests/test_structure.py -k <id>``.
"""

from __future__ import annotations

import ast
import functools
import os
import re
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = "src/**/*.py"
LSM_TREE = "src/repro/storage/lsm_tree.py"
SSTABLE = "src/repro/storage/persistent/sstable.py"
BLOOM = "src/repro/storage/bloom_filter.py"
# The one text that is not a file: the names in ``sys.modules`` after
# ``import repro.cli``, one per line.
IMPORTED = "<sys.modules after import repro.cli>"
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
DRAIN = (
    "drain_get_span", "drain_range_span", "_drain", "classify_window", "execute_operations_batched"
)
# A name in a signature: first on its line, or after ``(`` or ``,``.
PARAMETER = r"(^\s*|[(,]\s*)"


@dataclass(frozen=True)
class Rule:
    id: str
    paths: str  # space-separated globs under the repository root, or IMPORTED
    pattern: str
    pr: int  # the CHANGES.md entry that removed the thing (or pinned the count)
    trip: str  # a line the rule must catch
    bound: str | None = None
    scope: tuple[str, ...] = ()


RULES = (
    # The figure rows' one test, and the reachability tool's.
    Rule("one-figure-test", "benchmarks/test_*.py", r"\A", 26, "def test_table(): ...", "== 2"),
    Rule("no-timing-wrapper", "benchmarks/*.py src/repro/figures.py", r"pedantic|run_once|report\(",
         26, "    benchmark.pedantic(run, rounds=1)"),
    # The figure rows live in ``repro.figures``; the CLI does not import them, and
    # ``repro.analysis`` defines no driver that only a row calls.
    Rule("cli-imports-no-figures", IMPORTED, r"^repro\.figures$", 46, "repro.figures"),
    Rule("no-figure-driver-in-analysis", "src/repro/analysis/*.py",
         r"^def (figure\d\w*|policy_frontier|kvector_frontier|section84_win_rate"
         r"|scaling_experiment)\b", 46,
         "def figure7_contour(catalog, expected_index, rhos, kl_bins):"),
    Rule("metrics-import-no-model", "src/repro/analysis/metrics.py",
         r"(from|import) +(\.\.|repro\.)lsm", 35, "from ..lsm import LSMCostModel"),
    Rule("no-model-metric-wrappers", SRC,
         r"def (cost_landscape|policy_table|average_delta_throughput)\b", 35,
         "def policy_table(catalog, expected):"),
    Rule("cli-add-argument-count", "src/repro/cli.py", r"add_argument\(", 23,
         '    parser.add_argument("--threshold", type=float)', "<= 28"),
    Rule("cmd-online-no-field-copy", "src/repro/cli.py", r"args\.\w+,$|requires --mode robust",
         23, "        threshold=args.threshold,", scope=("_cmd_online",)),
    Rule("rho-adaptive-rule-once", SRC, r"rho_adaptive requires", 23,
         '    raise ValueError("rho_adaptive requires --mode robust")', "== 1"),
    Rule("no-step-admission-factory", SRC, r"def step_admission", 32,
         "    def step_admission(self) -> StepAdmission:"),
    Rule("no-admission-pacing-knobs", f"{SRC} benchmarks/*.py",
         r"max_backlog|admission_(starvation_ops|idle_steps)|class StepAdmission", 45,
         '        "step_pages=8, queue-depth max_backlog=0",'),
    Rule("one-policy-class", SRC, r"^class \w+\((CompactionPolicy|FluidPolicy)\)", 14,
         "class Foo(CompactionPolicy):"),
    Rule("no-policy-spec", SRC, r"PolicySpec|_resolve_strategy|for_tuning", 14,
         "    spec = PolicySpec.for_tuning(tuning)"),
    Rule("no-scalar-cost-twin", SRC,
         r"def (empty_read_cost|non_empty_read_cost|short_range_cost|long_range_cost"
         r"|range_read_cost|write_cost|cost_breakdown|runs_per_level|merge_factor"
         r"|_level_structure|_level_capacities)\b|class CostBreakdown", 28,
         "    def write_cost(self, tuning):"),
    Rule("cost-points-once", SRC, r"def cost_points", 28,
         "    def cost_points(self, ratios, bits, policies, nu):", "== 1"),
    Rule("one-comparison-class", SRC, r"^class .*Comparison", 24,
         "class ShardedComparison(Comparison):", "== 1"),
    Rule("no-comparison-copies", SRC,
         r"run_sharded|compare_adaptive|format_sharded_comparison|SessionComparison"
         r"|AdaptiveSessionRow", 24, "def format_sharded_comparison(comparison):"),
    Rule("one-search-path", SRC,
         r'"SLSQP"|minimize_scalar|starts_per_policy|batched_polish|vectorized=|scipy', 16,
         "from scipy.optimize import minimize"),
    Rule("cli-imports-no-scipy", IMPORTED, r"^scipy", 16, "scipy.optimize"),
    Rule("grid-memo-always-on", SRC, r"use_cache|memo(ize)?=|REPRO_[A-Z_]*CACHE", 25,
         "    grid = _coarse_grid(system, ratios, memo=False)"),
    Rule("drain-no-buffer-first-reads", LSM_TREE,
         r"engine\.get(_many)?\(|engine\.range_query\(|\.scan_versions\(", 21,
         "        found = engine.get_many(keys)", scope=DRAIN),
    Rule("one-kinds-tolist", LSM_TREE, r"kinds.tolist\(\)", 21,
         "    kinds = trace.kinds.tolist()", "== 1"),
    Rule("no-per-page-unique-loop", SSTABLE, r"for page in np.unique\(", 21,
         "        for page in np.unique(pages):"),
    Rule("no-page-span", SRC, r"PageSpan|def range_span", 22, "class PageSpan(NamedTuple):"),
    Rule("memtable-no-full-walk", "src/repro/storage/memtable.py", r"_entries\.items\(\)", 19,
         "        for key, tombstone in self._entries.items():"),
    Rule("no-batched-scan-helpers", SRC, r"def scan_slices|def range_query_many|def scan_many",
         19, "    def scan_many(self, starts, ends):"),
    Rule("no-range-count-helpers", SRC, r"def (count_runs_many|count_live_versions|live_prefix)\b",
         29, "def live_prefix(keys, end):"),
    Rule("drain-no-scan-items", LSM_TREE, r"scan_items", 29,
         "    versions = engine.memtable.scan_items(start, end)", scope=DRAIN),
    Rule("persistent-no-engine-method", "src/repro/storage/persistent/*.py",
         r"def (put|delete|flush|bulk_load|install_bulk_run|_new_run|_merged_run|_merge_runs"
         r"|_install_run|successor|dispose)\b", 17, "    def flush(self) -> None:"),
    Rule("no-merged-run", SRC, r"_merged_run|SortedRun.merge", 17,
         "        run = SortedRun.merge(runs)"),
    Rule("no-npz", "src/repro/storage/**/*.py", r"savez|np\.load|\.npz", 18,
         "        np.savez(path, keys=keys)"),
    Rule("store-no-builtin-open", "src/repro/storage/persistent/store.py",
         r"(^|[^a-z_.])open\(", 27, '        with open(path, "w") as handle:'),
    Rule("sstable-no-index-method", SSTABLE,
         r"def (num_pages|min_key|max_key|may_contain|page_of|lookup|lookup_many|_locate"
         r"|scan_pages|scan_entries)\b", 33, "    def lookup(self, key):"),
    Rule("no-runs-resident", SRC, r"runs_resident", 33, "    runs_resident: bool = True"),
    Rule("bloom-no-hardware-mod", BLOOM, r"% self._num_bits_u64", 27,
         "        return x % self._num_bits_u64"),
    Rule("no-uint64-key-copy", f"src/repro/storage/run.py {SSTABLE}",
         r"(add_many|might_contain_many)\(.*astype\(np\.uint64\)", 27,
         "    bloom.add_many(keys.astype(np.uint64))"),
    Rule("one-packbits", BLOOM, r"\bpackbits\b", 30, "        return np.packbits(self._table)",
         "<= 1"),
    Rule("bloom-no-byte-shift", BLOOM, r">> 3([^0-9]|$)", 30, "        byte = positions >> 3"),
    Rule("bloom-scalar-probe-no-item", BLOOM, r"\.item\(", 43,
         "            if not self._table.item(position % num_bits):"),
    Rule("storage-no-hashing-unique", "src/repro/storage/**/*.py", r"np\.unique\(", 30,
         "    keys = np.unique(keys)"),
    Rule("no-eager-level1-run", LSM_TREE, r"_new_run\(keys, tombstones, level=1\)", 20,
         "        run = self._new_run(keys, tombstones, level=1)"),
    Rule("no-second-install-path", SRC, r"lazy_filter|eager_build|build_transient", 20,
         "    def build_transient(self, keys):"),
    Rule("one-create-run-site", LSM_TREE, r"store\.create_run\(", 20,
         "        run = self.store.create_run(keys, tombstones, run_id, level)", "== 1"),
    Rule("flush-plan-touches-no-disk", LSM_TREE, r"self\.disk\.|self\.levels|_build_run", 20,
         "        self.disk.write_pages(run.num_pages)",
         scope=("_cascade", "_merge_runs")),
    Rule("one-compaction-cascade", LSM_TREE,
         r"def (_install_run|_maybe_spill_merging|_maybe_compact_stacked|_merges_on_arrival)\b", 39,
         "    def _maybe_compact_stacked(self, plan, level):"),
    Rule("one-pool-site", SRC, r"multiprocessing.*Pool\(|\.Pool\(", 13,
         "    with multiprocessing.Pool(processes) as pool:"),
    Rule("no-sharded-executor", SRC,
         r"class ShardedExecutor|ShardedSequenceMeasurement|_run_tuning|def run_session", 34,
         "class ShardedExecutor(WorkloadExecutor):"),
    *(
        Rule(f"{entry}-defined-once", "src/repro/**/*.py", rf"\bdef {entry}\b", 34,
             f"    def {entry}(self, tuning, sequence):", "== 1")
        for entry in ("run_sequence", "run_sequence_adaptive", "compare")
    ),
    Rule("no-should-step", SRC, r"\bshould_step\b", 37,
         "    def should_step(self, position, plan_started, last_step, backlog):"),
    Rule("plan-derives-checkpoint", "src/repro/online/migration.py",
         rf"{PARAMETER}checkpoint_keys\b", 37, "        checkpoint_keys: np.ndarray,",
         scope=("MigrationPlan.__init__",)),
    Rule("detector-reads-config", "src/repro/online/drift.py",
         rf"{PARAMETER}(min_observations|cooldown|confirm_checks|trajectory_window)\b", 37,
         "        cooldown: int = 4_096,", scope=("DriftDetector.__init__",)),
    Rule("no-estimator-smoothing", SRC, r"\bsmooth(ing|ed)\b", 37,
         "    def __init__(self, window: int = 2_000, smoothing: float = 0.0) -> None:"),
    Rule("no-apply-wrapper", f"{LSM_TREE} src/repro/online/migration.py", r"def apply\b", 37,
         "    def apply(self, operation: Operation) -> None:"),
    Rule("wide-window-not-a-flag", "src/repro/knobs.py src/repro/cli.py", r"(?i)wide.window", 38,
         '    parser.add_argument("--wide-window-ops", type=int)'),
    Rule("wide-window-not-a-field", "src/repro/storage/executor.py", r"(?i)wide.window", 38,
         "    wide_window_ops: int = knob(256, \"rows a window needs for the array pass\")",
         scope=("ExecutorConfig",)),
    Rule("no-simulated-latency", "src/**/*.py benchmarks/*.py examples/*.py",
         r"latency_us|latency_reduction", 40,
         '    read_latency_us: float = knob(100.0, "simulated page read latency (µs)")'),
    Rule("no-update-skew", SRC, r"update_skew|_hot_order|volatility_gain", 41,
         "        update_skew: float = 0.0,"),
    Rule("batch-bound-not-a-knob", "src/repro/storage/executor.py src/repro/online/config.py",
         r"^\s+(max_batch_ops|k_vector_search): \w+ = knob\(", 41,
         '    k_vector_search: bool = knob(False, "search K_i vectors when re-tuning")'),
    Rule("batch-bound-once", SRC, r"max_batch_ops\b[^=\n]*= *\d", 41,
         "    def execute_batched(self, trace: Trace, max_batch_ops: int = 4_096) -> None:"),
    Rule("one-short-scan-length", SRC, r"range_scan_keys", 41, "        range_scan_keys: int = 16,"),
    Rule("one-fluid-constructor", "src/repro/lsm/tuning.py",
         r"k_bounds?: |def with_(bounds|policy)\b", 42, "        k_bound: float | None = None,"),
    Rule("no-dict-readback", SRC, r"def from_dict\b", 42,
         "    def from_dict(cls, data: Mapping[str, Any]) -> \"LSMTuning\":"),
    # The docs are a specification, not a log: each line count has a ceiling.
    Rule("readme-lines", "README.md", r"\n", 44, "A paragraph of history.\n", "<= 400"),
    Rule("skill-lines", ".claude/skills/verify/SKILL.md", r"\n", 44,
         "A paragraph of history.\n", "<= 150"),
    Rule("no-policy-aliases", "src/repro/lsm/policy.py", r"_ALIASES|\.lower\(\)", 44,
         "            return _ALIASES[value.strip().lower()]"),
)


@functools.cache
def read(rule: Rule) -> tuple[str, ...]:
    """The text a rule reads: one string per file, or per scoped definition."""
    if rule.paths == IMPORTED:
        listing = "import sys, repro.cli; print(*sorted(sys.modules), sep='\\n')"
        env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
        return (subprocess.run([sys.executable, "-c", listing], env=env, check=True,
                               capture_output=True, text=True).stdout,)
    files = sorted({path for glob in rule.paths.split() for path in ROOT.glob(glob)})
    assert files, f"{rule.paths} matches no file"
    if not rule.scope:
        return tuple(path.read_text() for path in files)
    found = {}
    for path in files:
        lines = path.read_text().splitlines(keepends=True)
        for name, node in definitions(ast.parse("".join(lines))):
            key = name if name in rule.scope else node.name
            if key in rule.scope:
                start = min([node.lineno] + [d.lineno for d in node.decorator_list])
                text = "".join(lines[start - 1 : node.end_lineno])
                found[key] = found.get(key, "") + text
    missing = sorted(set(rule.scope) - found.keys())
    assert not missing, f"{rule.paths} defines no {missing}"
    return tuple(found[name] for name in rule.scope)


def definitions(node: ast.AST, prefix: str = ""):
    """Every function and class under ``node``, with its dotted name."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, DEFINITIONS):
            yield prefix + child.name, child
            yield from definitions(child, f"{prefix}{child.name}.")
        else:
            yield from definitions(child, prefix)


def matches(rule: Rule, texts: tuple[str, ...]) -> list[str]:
    return [m.group(0) for text in texts for m in re.finditer(rule.pattern, text, re.M)]


def holds(rule: Rule, count: int) -> bool:
    if rule.bound is None:
        return count == 0
    op, n = rule.bound.split()
    return count == int(n) if op == "==" else count <= int(n)


each_rule = pytest.mark.parametrize("rule", RULES, ids=lambda rule: rule.id)


@each_rule
def test_rule_holds(rule):
    found = matches(rule, read(rule))
    assert holds(rule, len(found)), (
        f"{rule.id} (CHANGES.md entry {rule.pr}): {len(found)} matches {found}"
    )


@each_rule
def test_rule_trips(rule):
    count = len(matches(rule, read(rule)))
    copies = int(rule.bound.split()[1]) - count + 1 if rule.bound and "<=" in rule.bound else 1
    assert not holds(rule, len(matches(rule, read(rule) + (rule.trip,) * copies)))
