"""The layered benchmark's harness.

``python bench/run.py --workload NAME --seed N --seconds S --trace 0|1`` runs one
workload in this process, single-threaded, closed loop, one client, and prints
as its last line ``{"correct", "attempted", "failed", "metrics"}`` — the
end-to-end metrics of the untraced run, or the per-layer metrics of the traced
one.  The line before it carries the details (quartiles, repeats, sizes).

``python bench/run.py [--trace] [--out FILE]`` runs all seven workloads one
after another, each in a fresh process of the above, and prints one document
with every metric by name, unit, direction and bound plus the run hygiene
(commit, versions, CPU, load) — the ``BENCH_<pr>.json`` record ``check.py``
compares.

Timing rule: one top-level call per repeat on a fresh tree, ``gc.collect()``
then ``gc.disable()`` around each, repeats until ``--seconds`` are used up (at
least nine); a timing metric is the median over the repeats, each at reference
speed (see ``calibrate.py``: a fixed kernel is timed every 50 ms while the
program runs, and every time is read from the sampler's clock).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

_STARTED = time.perf_counter()

BENCH_DIR = Path(__file__).resolve().parent
REPO = BENCH_DIR.parent
#: Where the persistent backend's files live during a run (git-ignored).
SCRATCH = BENCH_DIR / ".data"
RESULTS = BENCH_DIR / "results"

DEFAULT_SEED = 11
#: Repeats the timed loop never goes below, and what ``--smoke`` runs.
MIN_REPEATS = 9
SMOKE_REPEATS = 2
#: Set-up rounds of the untraced run (``setup_s`` reports their median) and
#: untraced reference calls of the traced run.
SETUP_ROUNDS = 3
REFERENCE_CALLS = 5


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    from metrics import WORKLOADS

    run_seconds = json.loads((REPO / "BENCHMARK.json").read_text())["run_seconds"]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=tuple(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, help=f"default {run_seconds}, 0 with --smoke")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, two repeats")
    parser.add_argument("--out", type=Path, help="write the full document here")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = 0.0 if args.smoke else float(run_seconds)
    return args


def timed_call(wl, sampler) -> tuple[dict, object]:
    """One top-level call under the timing rule: ``(timing, outcome)``."""
    gc.collect()
    gc.disable()
    try:
        with sampler.timed() as timing:
            outcome = wl.call()
    finally:
        gc.enable()
        wl.cleanup()
    return timing, outcome


def load_average() -> float:
    return os.getloadavg()[0]


# ----------------------------------------------------------------------
# One workload, in this process
# ----------------------------------------------------------------------
def run_workload(args: argparse.Namespace) -> int:
    # One thread, before numpy is imported: the box has two cores and the
    # numbers must not depend on a BLAS pool's mood.
    for variable in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[variable] = "1"
    from calibrate import SpeedSampler

    if not (REPO / "src" / "repro").is_dir():
        # Never measure some other installed copy of the program.
        raise SystemExit(f"{REPO / 'src' / 'repro'} is missing: nothing to measure")
    sampler = SpeedSampler()
    sampler.start()
    try:
        sys.path.insert(0, str(REPO / "src"))
        import layers  # noqa: F401  (imported here so that import_s covers every module)
        from metrics import END_TO_END, PER_LAYER

        # The process's CPU time so far: interpreter start-up and every import.
        imports = {
            "wall_s": sampler.now() - _STARTED,
            "user_s": sampler.user_cpu(),
            "speed": sampler.speed(),
        }
        imports["reference_s"] = imports["user_s"] * imports["speed"]
        scratch = SCRATCH / f"{args.workload}-{os.getpid()}"
        detail = {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "smoke": args.smoke,
            "traced": bool(args.trace),
            "load_start": load_average(),
            "import": imports,
        }
        try:
            if args.trace:
                run, catalogue = traced_run, PER_LAYER
            else:
                run, catalogue = untraced_run, END_TO_END
            correct, attempted, failed, values = run(args, scratch, sampler, detail)
        finally:
            shutil.rmtree(scratch, ignore_errors=True)
    finally:
        sampler.stop()
    unknown = set(values) - {m.name for m in catalogue}
    absent = [
        m.name for m in catalogue if args.workload in m.workloads and m.name not in values
    ]
    if unknown or absent:
        raise RuntimeError(f"metrics not in the catalogue {sorted(unknown)}, not measured {absent}")
    detail["load_end"] = load_average()
    print(json.dumps(detail))
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    m.name: {"value": float(values.get(m.name, 0.0)), "unit": m.unit}
                    for m in catalogue
                },
            }
        )
    )
    return 0


def untraced_run(args, scratch: Path, sampler, detail: dict):
    import workloads
    from oracle import Oracle
    from tracing import Tracer, summarize

    setups = []
    for _ in range(1 if args.smoke else SETUP_ROUNDS):
        with sampler.timed() as build:
            wl = workloads.build(args.workload, args.seed, args.smoke, scratch, sampler.now)
        warm_up, first = timed_call(wl, sampler)
        setups.append(build["reference_s"] + warm_up["reference_s"])
    setup_s = detail["import"]["reference_s"] + statistics.median(setups)

    timings, outcomes = [], []
    deadline = time.perf_counter() + args.seconds
    min_repeats = SMOKE_REPEATS if args.smoke else MIN_REPEATS
    while len(timings) < min_repeats or time.perf_counter() < deadline:
        timing, outcome = timed_call(wl, sampler)
        timings.append(timing)
        outcomes.append(outcome)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    # Untimed verification: exact metrics repeat, the harness-made replay
    # moves the same pages, and the oracle agrees with every answer.
    oracle = Oracle(args.seed)
    differing = sum(outcome != first for outcome in outcomes)
    oracle.count(len(outcomes), differing, "repeat differs from warm-up")
    try:
        oracle.equal("replay vs call", wl.replay(Tracer(args.workload, sampler.now), oracle), first)
    finally:
        wl.cleanup()
    call_s = [t["reference_s"] for t in timings]
    detail.update(
        sizes=wl.sizes,
        repeats=len(timings),
        call_s=summarize(call_s),
        raw_user_s=summarize([t["user_s"] for t in timings]),
        raw_wall_s=summarize([t["wall_s"] for t in timings]),
        machine_speed=summarize([t["speed"] for t in timings]),
        setup_rounds_s=setups,
        failures=oracle.failures,
    )
    values = {
        "ops_per_s": first.ops / statistics.median(call_s),
        "io_per_op": first.io_per_op,
        "worst_session_io_per_op": first.worst_session_io_per_op,
        "peak_rss_mb": peak_rss_mb,
        "setup_s": setup_s,
    }
    attempted = oracle.attempted + first.ops * len(outcomes)
    failed = oracle.failed + first.ops * differing
    return failed == 0, attempted, failed, values


def traced_run(args, scratch: Path, sampler, detail: dict):
    import layers
    import workloads
    from metrics import PLAIN_REPLAY
    from oracle import Oracle
    from tracing import Tracer

    name = args.workload
    # Every time of the traced run — spans, probes, the workload's own — is
    # read from the clock that runs at the sampled speed.
    clock = sampler.reference_now
    mark = sampler.mark()
    wl = workloads.build(name, args.seed, args.smoke, scratch, clock)
    timed_call(wl, sampler)
    calls = [
        timed_call(wl, sampler) for _ in range(SMOKE_REPEATS if args.smoke else REFERENCE_CALLS)
    ]
    untraced_s = statistics.median(timing["wall_s"] * timing["speed"] for timing, _ in calls)
    outcomes = [outcome for _, outcome in calls]

    latency_prefix = wl.layer if name in PLAIN_REPLAY else None
    probe = layers.TreeProbe(args.seed, latency_prefix, clock)
    oracle = Oracle(args.seed, probe)
    tracer = Tracer(name, clock, real_io=name == "persistent_mixed")
    gc.collect()
    gc.disable()
    try:
        replayed = wl.replay(tracer, oracle)
    finally:
        gc.enable()
        wl.cleanup()
    # A replay that moved other pages than the call decomposed another program.
    oracle.equal("traced replay vs untraced call", replayed, outcomes[0])

    values, call_s = layers.call_metrics(tracer, untraced_s)
    values["cli.import_s"] = detail["import"]["wall_s"] * detail["import"]["speed"]
    if name == "tune_sweep":
        values.update(layers.tune_metrics(wl, tracer, outcomes, args.smoke, clock))
    else:
        values.update(layers.store_metrics(wl, tracer, replayed, call_s))
        values.update(probe.shape_metrics())
        values.update(probe.latency)
    if name in PLAIN_REPLAY:
        values.update(layers.replay_metrics(wl, tracer, replayed))
    if name == "persistent_mixed":
        values.update(layers.persistent_metrics(wl, tracer, outcomes))
    elif name == "online_drift":
        values.update(layers.online_metrics(wl, tracer, replayed, clock))
    elif name == "sharded_serving":
        values.update(layers.serving_metrics(wl, tracer, replayed, call_s, clock))
    speed = values["trace.machine_speed"] = sampler.speed(mark)

    RESULTS.mkdir(exist_ok=True)
    trace_path = RESULTS / f"trace_{name}.json"
    trace_path.write_text(json.dumps(tracer.to_dict()))
    detail.update(
        sizes=wl.sizes,
        untraced_call_s=untraced_s,
        machine_speed=speed,
        self_time_s=tracer.self_times(0),
        trace_file=str(trace_path.relative_to(REPO)),
        failures=oracle.failures,
    )
    attempted = oracle.attempted + replayed.ops * len(outcomes)
    return oracle.failed == 0, attempted, oracle.failed, values


# ----------------------------------------------------------------------
# All workloads, one fresh process each
# ----------------------------------------------------------------------
def command_output(command: list[str]) -> str | None:
    """What ``command`` prints, or ``None`` where it is missing or fails."""
    try:
        done = subprocess.run(command, cwd=REPO, capture_output=True, text=True, check=False)
    except OSError:
        return None
    return done.stdout.strip() or None


def hygiene() -> dict:
    """Where and on what the record was taken."""
    cpu = "unknown"
    with open("/proc/cpuinfo", encoding="utf-8") as handle:
        for line in handle:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    SCRATCH.mkdir(exist_ok=True)
    return {
        "git_commit": command_output(["git", "rev-parse", "HEAD"]),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "data_dir_filesystem": command_output(["stat", "-f", "-c", "%T", str(SCRATCH)]),
    }


def run_child(args: argparse.Namespace, workload: str, trace: int) -> tuple[dict, dict]:
    command = [
        sys.executable, str(Path(__file__).resolve()), "--workload", workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace),
    ]  # fmt: skip
    if args.smoke:
        command.append("--smoke")
    done = subprocess.run(command, capture_output=True, text=True, check=False)
    if done.returncode != 0:
        raise RuntimeError(f"{workload} (trace {trace}) failed:\n{done.stderr}")
    detail, result = (json.loads(line) for line in done.stdout.strip().splitlines()[-2:])
    return detail, result


def run_all(args: argparse.Namespace) -> int:
    from metrics import ALL_METRICS, END_TO_END, WORKLOADS

    record = {
        "claim": None,
        "hygiene": hygiene(),
        "seed": args.seed,
        "seconds": args.seconds,
        "smoke": args.smoke,
        "load_start": load_average(),
        "metrics": {
            m.name: {
                "unit": m.unit,
                "better": m.better,
                "bound": m.bound,
                "kind": "end_to_end" if m in END_TO_END else "per_layer",
                "workloads": list(m.workloads),
            }
            for m in ALL_METRICS.values()
        },
        "workloads": {},
    }
    # Strictly one after another: a second process would be measured too.
    for workload, why in WORKLOADS.items():
        detail, result = run_child(args, workload, trace=0)
        entry = {
            "why": why,
            "correct": result["correct"],
            "ops_attempted": result["attempted"],
            "ops_failed": result["failed"],
            "sizes": detail["sizes"],
            "repeats": detail["repeats"],
            "call_s": detail["call_s"],
            "failures": detail["failures"],
            "end_to_end": result["metrics"],
        }
        if args.trace:
            detail, result = run_child(args, workload, trace=1)
            entry["correct"] = entry["correct"] and result["correct"]
            entry["ops_attempted"] += result["attempted"]
            entry["ops_failed"] += result["failed"]
            entry["failures"] += detail["failures"]
            entry["self_time_s"] = detail["self_time_s"]
            # A layer this workload bypasses reads 0 in the driver's line;
            # the record keeps what was measured.
            entry["per_layer"] = {
                name: metric
                for name, metric in result["metrics"].items()
                if workload in ALL_METRICS[name].workloads
            }
        record["workloads"][workload] = entry
    record["load_end"] = load_average()
    record["noisy"] = record["load_start"] > (os.cpu_count() or 1)
    text = json.dumps(record, indent=1)
    if args.out:
        args.out.write_text(text + "\n")
    print(text)
    return 0 if all(entry["correct"] for entry in record["workloads"].values()) else 1


def main(argv: list[str] | None = None) -> int:
    sys.path.insert(0, str(BENCH_DIR))
    args = parse_args(argv)
    if args.workload:
        return run_workload(args)
    return run_all(args)


if __name__ == "__main__":
    sys.exit(main())
