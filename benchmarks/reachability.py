"""Which ``src/`` functions does nothing but the unit tests reach?

Runs four drivers, every Python process of each under ``sys.setprofile``:
the figure rows (``pytest benchmarks``), the CLI commands CI runs, the
scripts under ``examples/``, and the seven ``bench/`` workloads with
``--smoke --trace 0|1`` (from a copy of ``bench/``, so no trace dump lands in
the checkout).  Prints each function
under ``src/`` that none of them called, as ``path:line name (n lines)``.

    python benchmarks/reachability.py
"""

import ast
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"
HOOK = """import os, sys, threading
_seen, _out = set(), open(os.environ["REACH_OUT"], "a", buffering=1)
def _hook(frame, event, arg):
    if event == "call" and frame.f_code not in _seen:
        _seen.add(frame.f_code)
        _out.write(f"{frame.f_code.co_filename}\\t{frame.f_code.co_firstlineno}\\n")
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
    "online --threshold -1", "compare --num-entries 0",
    "tune --workload .25 .25 .25 .25 --num-entries -5", "tune --workload .25 .25 .25 .25 --seed 7",
    "online --admission queue-depth --admission-starvation-ops 10",
    "table --rho 1", "workloads",
]
WORKLOADS = ["point_read", "write_ingest", "range_scan", "persistent_mixed",
             "tune_sweep", "online_drift", "sharded_serving"]


def reached(tmp: Path) -> set[tuple[str, int]]:
    """``(file, first line)`` of every code object the drivers called."""
    (tmp / "hook").mkdir()
    (tmp / "hook" / "sitecustomize.py").write_text(HOOK)
    bench = tmp / "repo" / "bench"
    shutil.copytree(REPO / "bench", bench, ignore=shutil.ignore_patterns(".data", "results"))
    for name in ("src", "BENCHMARK.json"):
        (tmp / "repo" / name).symlink_to(REPO / name)
    out = tmp / "reached.tsv"
    env = dict(os.environ, REACH_OUT=str(out), PYTHONPATH=f"{tmp / 'hook'}{os.pathsep}{SRC}")
    commands = [["-m", "pytest", "benchmarks", "-q", "-p", "no:cacheprovider"]]
    commands += [["-m", "repro.cli", *line.format(tmp=tmp / "data").split()] for line in CLI]
    commands += [[str(script)] for script in sorted((REPO / "examples").glob("*.py"))]
    commands += [[str(bench / "run.py"), "--workload", name, "--smoke", "--trace", trace]
                 for name in WORKLOADS for trace in "01"]
    for command in commands:
        subprocess.run([sys.executable, *command], cwd=REPO, env=env, capture_output=True)
    lines = (line.rsplit("\t", 1) for line in out.read_text().splitlines())
    return {(os.path.realpath(path), int(first)) for path, first in lines}


def functions(node: ast.AST, prefix: str = ""):
    """``(first line, qualified name, length)`` of every function under ``node``."""
    for child in ast.iter_child_nodes(node):
        scoped = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        name = f"{prefix}{child.name}" if scoped else prefix
        if scoped and not isinstance(child, ast.ClassDef):
            first = min([child.lineno] + [d.lineno for d in child.decorator_list])
            yield first, name, child.end_lineno - child.lineno + 1
        yield from functions(child, f"{name}." if scoped else prefix)


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        seen = reached(Path(tmp))
    count = total = 0
    for path in sorted(SRC.rglob("*.py")):
        for first, name, length in functions(ast.parse(path.read_text())):
            if (os.path.realpath(path), first) not in seen:
                print(f"{path.relative_to(REPO)}:{first} {name} ({length} lines)")
                count, total = count + 1, total + length
    print(f"{count} functions, {total} lines reached by no driver")


if __name__ == "__main__":
    main()
