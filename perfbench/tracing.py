"""In-memory span tracer for the benchmark's traced runs.

Spans carry a name, a start and end on ``time.perf_counter`` (on Linux
the system-wide monotonic clock, so spans recorded in the daemon and in
the client share one time base), the id of the span that caused them,
and the id of the cell or job they belong to.  Work done in many tiny
pieces (the walker yields records one at a time) is recorded as an
aggregated *leaf*: one record per (parent span, name) with the summed
duration and a count, credited to the parent as covered time.

A span's self time is its duration minus the part of its interval that
its children cover; the self times of a tree therefore add up to the
root's duration, and the traced wall time minus the roots is the
remainder no span covers.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from contextlib import contextmanager

__all__ = ["Tracer", "self_times"]

clock = time.perf_counter


class Tracer:
    """Collects spans, leaves and counters; thread-safe, in memory only."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.counters: dict[str, float] = {}
        self._leaves: dict[tuple[int | None, str], dict] = {}
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list[dict]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> dict | None:
        stack = self._stack()
        return stack[-1] if stack else None

    @contextmanager
    def span(self, name: str, cell: str | None = None):
        """Time the enclosed block as a child of the innermost open span."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        record = {
            "id": next(self._ids),
            "name": name,
            "parent": parent["id"] if parent else None,
            "cell": cell if cell is not None else (parent["cell"] if parent else None),
            "start": clock(),
            "end": None,
        }
        stack.append(record)
        try:
            yield record
        finally:
            record["end"] = clock()
            stack.pop()
            with self._lock:
                self.spans.append(record)

    def leaf(self, name: str, start: float, end: float, count: int = 1) -> None:
        """Credit one small timed piece of work to the innermost open span."""
        parent = self.current()
        key = (parent["id"] if parent else None, name)
        with self._lock:
            agg = self._leaves.get(key)
            if agg is None:
                agg = self._leaves[key] = {
                    "id": next(self._ids),
                    "name": name,
                    "parent": key[0],
                    "cell": parent["cell"] if parent else None,
                    "start": start,
                    "end": end,
                    "seconds": 0.0,
                    "count": 0,
                }
            agg["seconds"] += end - start
            agg["count"] += count
            agg["end"] = end

    def add_span(self, name: str, start: float, end: float,
                 parent: int | None = None, cell: str | None = None) -> int:
        """Record a span timed elsewhere (e.g. from server-side stamps)."""
        record = {"id": next(self._ids), "name": name, "parent": parent,
                  "cell": cell, "start": start, "end": end}
        with self._lock:
            self.spans.append(record)
        return record["id"]

    def adopt(self, record: dict) -> None:
        """Take over a span or leaf record from another tracer's dump."""
        with self._lock:
            self.spans.append(record)

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + amount

    def records(self) -> list[dict]:
        """Every span and leaf aggregate (leaves carry ``seconds``/``count``)."""
        with self._lock:
            return [dict(s) for s in self.spans] + [dict(a) for a in self._leaves.values()]

    def dump(self, path) -> None:
        """Write spans and counters as JSON (called once, when the run ends)."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": self.records(), "counters": self.counters}, handle)


def _duration(record: dict) -> float:
    if "seconds" in record:
        return record["seconds"]
    return record["end"] - record["start"]


def self_times(records: list[dict]) -> tuple[dict[str, float], float]:
    """Per-name self time, and the summed duration of the root records.

    Children of one span run one after another (one thread per tree), so
    the part of a span its children cover is the sum of their durations,
    and the self times of a tree add up to its root's duration.
    """
    covered: dict[int, float] = {}
    for record in records:
        if record["parent"] is not None:
            covered[record["parent"]] = covered.get(record["parent"], 0.0) + _duration(record)
    totals: dict[str, float] = {}
    roots = 0.0
    for record in records:
        duration = _duration(record)
        own = duration - covered.get(record["id"], 0.0)
        totals[record["name"]] = totals.get(record["name"], 0.0) + own
        if record["parent"] is None:
            roots += duration
    return totals, roots
