"""Spans and summary statistics for the layered benchmark.

The benchmark measures every layer from outside: the harness makes the calls
a top-level function makes and wraps each in a span.  A span's name starts
with its layer (``storage.replay`` belongs to ``storage``); a layer's *self
time* is its spans' durations minus the part their child spans cover, so the
self times of one trace sum exactly to its root spans.
"""

from __future__ import annotations

import dataclasses
import statistics
from contextlib import contextmanager

#: Layer of the harness's own time (root-span self time).
HARNESS = "harness"


def proc_io() -> dict[str, int]:
    """This process's I/O counters from ``/proc/self/io`` (empty where absent)."""
    try:
        with open("/proc/self/io", encoding="ascii") as handle:
            return {name: int(value) for name, value in (line.split(": ") for line in handle)}
    except OSError:
        return {}


def layer_of(span_name: str) -> str:
    """The layer a span belongs to: the part of its name before the first dot."""
    return span_name.split(".", 1)[0]


class Tracer:
    """In-memory span recorder; spans are written out when the run ends."""

    def __init__(self, workload: str, clock, real_io: bool = False) -> None:
        self.workload = workload
        #: Where span boundaries are read from: the speed sampler's reference
        #: clock (``calibrate.py``), so durations are at reference speed.
        self.clock = clock
        #: Whether spans given a disk also record the process's real I/O
        #: (``/proc/self/io`` deltas) — for the backend that touches files.
        self.real_io = real_io
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, disk=None, **attrs):
        """Record one span; ``disk`` adds the page-counter delta it caused.

        ``attrs`` (session index, shard, cell label, …) are stored verbatim.
        The yielded record can be updated by the caller before the span ends.
        """
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "workload": self.workload,
            **attrs,
        }
        before = disk.snapshot() if disk is not None else None
        io_before = proc_io() if disk is not None and self.real_io else None
        self.spans.append(record)
        self._stack.append(record["id"])
        record["start"] = self.clock()
        try:
            yield record
        finally:
            record["end"] = self.clock()
            self._stack.pop()
            if io_before is not None:
                record["proc_io"] = {
                    name: value - io_before[name] for name, value in proc_io().items()
                }
            if before is not None:
                record["pages"] = dataclasses.asdict(disk.counters.delta(before))

    def durations(self, name: str) -> list[float]:
        """Durations of every span called ``name``, in recording order."""
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]

    def self_times(self, root_id: int) -> dict[str, float]:
        """Self time per layer over the subtree of one root span.

        The root's own self time — what the harness spends between layer
        calls — is booked under :data:`HARNESS`.
        """
        children: dict[int, float] = {}
        for span in self.spans:
            if span["parent"] is not None:
                children[span["parent"]] = children.get(span["parent"], 0.0) + (
                    span["end"] - span["start"]
                )
        inside = {root_id}
        totals: dict[str, float] = {}
        for span in self.spans:  # parents are always recorded before children
            if span["id"] != root_id and span["parent"] not in inside:
                continue
            inside.add(span["id"])
            self_time = span["end"] - span["start"] - children.get(span["id"], 0.0)
            layer = HARNESS if span["id"] == root_id else layer_of(span["name"])
            totals[layer] = totals.get(layer, 0.0) + self_time
        return totals

    def to_dict(self) -> dict:
        """The trace as plain JSON data, times relative to the first span."""
        origin = self.spans[0]["start"] if self.spans else 0.0
        spans = []
        for span in self.spans:
            out = dict(span)
            out["start"] = span["start"] - origin
            out["end"] = span["end"] - origin
            spans.append(out)
        return {"workload": self.workload, "unit": "s", "spans": spans}


def summarize(values: list[float]) -> dict[str, float]:
    """Median, quartiles, min and n of a sample (the timing rule's record)."""
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "min": min(values),
        "n": len(values),
    }
