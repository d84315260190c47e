"""Tier-1 smoke of the layered benchmark: every workload at ``--smoke`` sizes.

No timing assertions — only that the harness runs, checks its answers, and
prints what ``BENCHMARK.json`` promises.  Each workload runs in its own
process through the command the driver uses.
"""

from __future__ import annotations

import json
import math
import re
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
REPO = BENCH_DIR.parent
SPEC = json.loads((REPO / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
#: Workloads whose traced run the smoke also takes (one per replay shape
#: would be too slow for Tier-1; the file-backed one covers the most code).
TRACED = ("persistent_mixed",)


def run(workload: str, trace: int) -> tuple[dict, dict]:
    command = [sys.executable, *SPEC["command"][1:]] + [
        "--workload", workload, "--seed", "5", "--smoke", "--trace", str(trace)
    ]  # fmt: skip
    done = subprocess.run(command, cwd=REPO, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    detail, result = (json.loads(line) for line in done.stdout.strip().splitlines()[-2:])
    return detail, result


def assert_result(result: dict, specs: list[dict]) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert set(result["metrics"]) == {spec["name"] for spec in specs}
    for spec in specs:
        metric = result["metrics"][spec["name"]]
        assert metric["unit"] == spec["unit"]
        assert math.isfinite(metric["value"])


def test_benchmark_json_is_the_catalogue():
    # pytest's rootdir-relative import mode has put this directory on sys.path.
    from metrics import benchmark_json

    assert SPEC == benchmark_json(SPEC["run_seconds"])
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    names = WORKLOADS + [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    assert any(
        m == {"name": "setup_s", "unit": "s", "better": "lower", "bound": m["bound"]}
        for m in SPEC["end_to_end"]
    )
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run(workload):
    detail, result = run(workload, trace=0)
    assert_result(result, SPEC["end_to_end"])
    # Two repeats whose exact metrics agree with the warm-up call (the harness
    # counts a differing repeat as failed operations, asserted zero above).
    assert detail["repeats"] == 2 and detail["failures"] == []
    assert all(metric["value"] > 0 for metric in result["metrics"].values())


@pytest.mark.parametrize("workload", TRACED)
def test_traced_run(workload):
    detail, result = run(workload, trace=1)
    # ``correct`` includes: the traced replay moved exactly the pages of the
    # untraced call.
    assert_result(result, SPEC["per_layer"])
    assert result["metrics"]["trace.overhead"]["value"] > 0
    trace = json.loads((REPO / detail["trace_file"]).read_text())
    assert trace["workload"] == workload
    assert {"name", "start", "end", "parent"} <= set(trace["spans"][0])
    # Self times of the layers add up to the traced top-level span.
    root = trace["spans"][0]
    assert sum(detail["self_time_s"].values()) == pytest.approx(root["end"] - root["start"])
