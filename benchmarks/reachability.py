"""What in ``src/`` does nothing but the unit tests reach, or move off its default?

Runs four drivers, every Python process of each under ``sys.setprofile``:
the figure rows (``pytest benchmarks``), the CLI commands CI runs, the
scripts under ``examples/``, and the seven ``bench/`` workloads with
``--smoke --trace 0|1`` (from a copy of ``bench/``, so no trace dump lands in
the checkout).  Prints three lists:

* each function under ``src/`` that none of them called, as
  ``path:line name (n lines)``;
* each ``knob()`` field that held its default every time ``check_knobs``
  checked a config, as ``Class.field = default``;
* each parameter with a literal default (or a module constant of one) of a
  reached public function whose every call passed that default, as
  ``path:line name(parameter=default)``.

A call is keyed by the ``realpath`` of its code object's file, so the calls
of the copied ``bench/`` count against ``src/``.

    python benchmarks/reachability.py
"""

import ast
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"
HOOK = """import dataclasses, json, os, sys, threading
_SRC = os.environ["REACH_SRC"]
_KNOBS = os.path.join(_SRC, "repro", "knobs.py") + ":"
with open(os.environ["REACH_PARAMETERS"]) as _file:
    _PARAMETERS = json.load(_file)
_out = open(os.environ["REACH_OUT"], "a", buffering=1)
_sites, _logged = {}, set()
def _log(*record):
    if record not in _logged:
        _logged.add(record)
        _out.write("\\t".join(map(str, record)) + "\\n")
def _shown(value):
    return repr(value) if type(value) in (bool, int, float, str, type(None)) else "<object>"
def _hook(frame, event, arg):
    if event != "call":
        return
    code = frame.f_code
    site = _sites.get(code, "")
    if site == "":
        path = os.path.realpath(code.co_filename)
        site = f"{path}:{code.co_firstlineno}" if path.startswith(_SRC) else None
        _sites[code] = site
        if site is not None:
            _log("function", site)
    if site is None:
        return
    for name in _PARAMETERS.get(site, ()):
        if name in frame.f_locals:
            _log("parameter", site, name, _shown(frame.f_locals[name]))
    if code.co_name == "check_knobs" and site.startswith(_KNOBS):
        config = frame.f_locals["config"]
        for spec in dataclasses.fields(config):
            if "help" in spec.metadata:
                value = getattr(config, spec.name)
                owner = f"{type(config).__name__}.{spec.name}"
                _log("knob", owner, _shown(value), value == spec.default)
sys.setprofile(_hook)
threading.setprofile(_hook)
"""
ONLINE = "online --num-entries 3000 --queries-per-workload 150 --sessions-per-phase 2 " \
    "--window 200 --check-interval 50 --min-observations 100 --cooldown 400"
CLI = [
    f"{ONLINE} --confirm-checks 2 --seed 7 --json",
    f"{ONLINE} --migration incremental --admission queue-depth --admission-max-backlog 32 --json",
    "compare --expected-index 2 --num-entries 4000 --backend persistent --data-dir {tmp} --seed 7",
    "compare --expected-index 11 --num-entries 4000 --num-shards 2 --seed 7",
    "online --threshold -1", "compare --num-entries 0", "compare --sync-writes",
    "tune --workload .25 .25 .25 .25 --num-entries -5", "tune --workload .25 .25 .25 .25 --seed 7",
    "online --admission queue-depth --admission-starvation-ops 10",
    "table --rho 1", "workloads",
]
WORKLOADS = ["point_read", "write_ingest", "range_scan", "persistent_mixed",
             "tune_sweep", "online_drift", "sharded_serving"]
#: The values a capture writes out in full (the hook's ``_shown``); anything
#: else is ``<object>``.
SCALARS = (bool, int, float, str, type(None))


def capture(tmp: Path, parameters: dict[str, list[str]]) -> list[list[str]]:
    """Run the drivers; every distinct record their processes logged.

    A record is ``function site``, ``parameter site name value`` (for the
    ``parameters`` of each site) or ``knob Class.field value at-default``.
    A command that exits with an error (CI's bad arguments) set no value:
    only its function records count.
    """
    (tmp / "hook").mkdir()
    (tmp / "hook" / "sitecustomize.py").write_text(HOOK)
    (tmp / "parameters.json").write_text(json.dumps(parameters))
    bench = tmp / "repo" / "bench"
    shutil.copytree(REPO / "bench", bench, ignore=shutil.ignore_patterns(".data", "results"))
    for name in ("src", "BENCHMARK.json"):
        (tmp / "repo" / name).symlink_to(REPO / name)
    env = dict(os.environ, REACH_SRC=os.path.realpath(SRC),
               REACH_PARAMETERS=str(tmp / "parameters.json"),
               PYTHONPATH=f"{tmp / 'hook'}{os.pathsep}{SRC}")
    commands = [["-m", "pytest", "benchmarks", "-q", "-p", "no:cacheprovider"]]
    commands += [["-m", "repro.cli", *line.format(tmp=tmp / "data").split()] for line in CLI]
    commands += [[str(script)] for script in sorted((REPO / "examples").glob("*.py"))]
    commands += [[str(bench / "run.py"), "--workload", name, "--smoke", "--trace", trace]
                 for name in WORKLOADS for trace in "01"]
    records = set()
    for index, command in enumerate(commands):
        out = tmp / f"reached-{index}.tsv"
        env["REACH_OUT"] = str(out)
        run = subprocess.run([sys.executable, *command], cwd=REPO, env=env, capture_output=True)
        lines = out.read_text().splitlines() if out.exists() else []
        records.update(
            line for line in lines if run.returncode == 0 or line.startswith("function\t")
        )
    return [line.split("\t") for line in sorted(records)]


def functions(node: ast.AST, prefix: str = ""):
    """``(first line, qualified name, node)`` of every function under ``node``."""
    for child in ast.iter_child_nodes(node):
        scoped = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        name = f"{prefix}{child.name}" if scoped else prefix
        if scoped and not isinstance(child, ast.ClassDef):
            yield min([child.lineno] + [d.lineno for d in child.decorator_list]), name, child
        yield from functions(child, f"{name}." if scoped else prefix)


def literal_defaults(node: ast.AST, constants: dict[str, ast.expr]) -> dict[str, str]:
    """``{parameter: repr(default)}`` of the parameters whose default is a
    scalar literal, or a name ``constants`` binds to one."""
    args = node.args
    positional = args.posonlyargs + args.args
    pairs = list(zip(positional[len(positional) - len(args.defaults):], args.defaults))
    pairs += [(arg, default) for arg, default in zip(args.kwonlyargs, args.kw_defaults)
              if default is not None]
    found = {}
    for arg, default in pairs:
        if isinstance(default, ast.Name):
            default = constants.get(default.id, default)
        try:
            value = ast.literal_eval(default)
        except ValueError:
            continue
        if type(value) in SCALARS:
            found[arg.arg] = repr(value)
    return found


def public(name: str) -> bool:
    """No part of the qualified name is private (dunders such as ``__init__`` are public)."""
    return all(not part.startswith("_") or part.endswith("__") for part in name.split("."))


def default_knobs(records) -> list[str]:
    """``Class.field = value`` of each knob that only ever held its default.

    ``records`` are ``(field, value, at_default)``, one per value a field held.
    """
    values = {field: value for field, value, _ in records}
    varied = {field for field, _, at_default in records if not at_default}
    return [f"{field} = {values[field]}" for field in sorted(values.keys() - varied)]


def default_parameters(defaults, calls) -> list[str]:
    """``label(parameter=default)`` of each parameter every call passed its default.

    ``defaults`` maps a site to its function's label and ``{parameter:
    repr(default)}``; ``calls`` maps ``(site, parameter)`` to the set of
    values the calls passed.  A function no driver reached has no calls, so
    its parameters are left to the function list.
    """
    return [
        f"{label}({parameter}={default})"
        for site, (label, parameters) in defaults.items()
        for parameter, default in parameters.items()
        if calls.get((site, parameter)) == {default}
    ]


def main() -> None:
    sites, defaults = {}, {}
    for path in sorted(SRC.rglob("*.py")):
        module = ast.parse(path.read_text())
        constants = {
            node.targets[0].id: node.value for node in module.body
            if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name)
        }
        for first, name, node in functions(module):
            site = f"{os.path.realpath(path)}:{first}"
            label = f"{path.relative_to(REPO)}:{first} {name}"
            sites[site] = label, node.end_lineno - node.lineno + 1
            parameters = literal_defaults(node, constants)
            if parameters and public(name):
                defaults[site] = label, parameters
    with tempfile.TemporaryDirectory() as tmp:
        records = capture(Path(tmp), {site: list(p) for site, (_, p) in defaults.items()})
    reached, calls, knobs = set(), {}, []
    for kind, *fields in records:
        if kind == "function":
            reached.add(fields[0])
        elif kind == "parameter":
            calls.setdefault((fields[0], fields[1]), set()).add(fields[2])
        else:
            knobs.append((fields[0], fields[1], fields[2] == "True"))
    unreached = [(label, length) for site, (label, length) in sites.items() if site not in reached]
    for label, length in unreached:
        print(f"{label} ({length} lines)")
    lines = sum(length for _, length in unreached)
    print(f"{len(unreached)} functions, {lines} lines reached by no driver")
    for listing, noun in ((default_knobs(knobs), "knobs"),
                          (default_parameters(defaults, calls), "parameters")):
        for line in listing:
            print(line)
        print(f"{len(listing)} {noun} only ever at their default")


if __name__ == "__main__":
    main()
