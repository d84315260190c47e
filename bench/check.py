"""Compare two benchmark records metric by metric: ``check.py BASE.json NEW.json``.

Both files are documents printed by ``python bench/run.py`` (all workloads).
Every metric is judged by the direction and bound of ``metrics.py``: a metric
with bound 0 must be identical in both records, a bounded one may be worse in
NEW by at most that share of BASE, the rest are printed for the record.  One
row per workload and metric, with both values and NEW / BASE.

Exits 1 on any regression, on an exact metric that differs, or on a larger
share of failed operations; exits 2 without comparing when the records are not
comparable (smoke against full, other seed, other sizes).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from metrics import ALL_METRICS, EXACT


def verdict(name: str, base: float, new: float) -> str:
    """``ok``, ``REGRESSION``, ``DIFFERS`` (exact metric) or ``-`` (not gating)."""
    metric = ALL_METRICS[name]
    if metric.bound is None:
        return "-"
    if metric.bound == EXACT:
        return "ok" if new == base else "DIFFERS"
    if metric.better == "higher":
        worse = new < base * (1.0 - metric.bound)
    else:
        worse = new > base * (1.0 + metric.bound)
    return "REGRESSION" if worse else "ok"


def comparable(base: dict, new: dict) -> str | None:
    """Why the two records cannot be compared, if they cannot."""
    for key in ("smoke", "seed", "seconds"):
        if base[key] != new[key]:
            return f"{key} differs: {base[key]!r} vs {new[key]!r}"
    if set(base["workloads"]) != set(new["workloads"]):
        return "the records hold different workloads"
    for workload, entry in base["workloads"].items():
        if entry["sizes"] != new["workloads"][workload]["sizes"]:
            return f"sizes of {workload} differ"
    return None


def row(workload: str, name: str, base, new, ratio: str, state: str) -> None:
    print(f"{workload:<17}{name:<36}{base:>14.6g}{new:>14.6g}{ratio:>10}  {state}")


def compare(base: dict, new: dict) -> int:
    bad = 0
    print(f"{'workload':<17}{'metric':<36}{'base':>14}{'new':>14}{'new/base':>10}  verdict")
    for workload, old in base["workloads"].items():
        cur = new["workloads"][workload]
        old_share = old["ops_failed"] / old["ops_attempted"]
        cur_share = cur["ops_failed"] / cur["ops_attempted"]
        state = "REGRESSION" if cur_share > old_share or not cur["correct"] else "ok"
        bad += state != "ok"
        row(workload, "ops_failed / ops_attempted", old_share, cur_share, "", state)
        for kind in ("end_to_end", "per_layer"):
            for name, value in old.get(kind, {}).items():
                if name not in cur.get(kind, {}):
                    continue
                a, b = value["value"], cur[kind][name]["value"]
                state = verdict(name, a, b)
                bad += state not in ("ok", "-")
                row(workload, name, a, b, f"{b / a:.4f}" if a else "n/a", state)
    for label, record in (("base", base), ("new", new)):
        if record["noisy"]:
            print(f"note: the {label} record is marked noisy (load average above nproc at start)")
    print(f"{bad} regression(s); ratios are new / base")
    return 1 if bad else 0


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.split("\n\n")[0], file=sys.stderr)
        return 2
    base, new = (json.loads(Path(path).read_text()) for path in argv)
    reason = comparable(base, new)
    if reason is not None:
        print(f"not comparable: {reason}", file=sys.stderr)
        return 2
    return compare(base, new)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
