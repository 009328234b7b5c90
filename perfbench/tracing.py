"""In-memory spans for the traced benchmark run.

A span records its name, start and end (``time.perf_counter`` seconds), the
index of the span that was open when it started, and the id of the workload
item it belongs to.  Spans stay in a list until the run ends; nothing is
written while timing.  The untraced passes use ``NULL_TRACER``, whose spans
cost one method call and record nothing.
"""

from __future__ import annotations

import contextlib
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.item: str | None = None
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        rec = {
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "item": self.item,
            "start": 0.0,
            "end": 0.0,
        }
        self.spans.append(rec)
        self._open.append(rec["id"])
        rec["start"] = time.perf_counter()
        try:
            yield
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()

    def within(self, *roots: str) -> bool:
        """Whether the outermost open span has one of the names ``roots``."""
        return bool(self._open) and self.spans[self._open[0]]["name"] in roots

    def self_times(self) -> tuple[dict[str, float], dict[str, int]]:
        """Per span name: summed self time (duration minus children) and call count."""
        child_time = defaultdict(float)
        for rec in self.spans:
            if rec["parent"] is not None:
                child_time[rec["parent"]] += rec["end"] - rec["start"]
        seconds: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for rec in self.spans:
            seconds[rec["name"]] += rec["end"] - rec["start"] - child_time[rec["id"]]
            calls[rec["name"]] += 1
        return dict(seconds), dict(calls)


class _NullTracer:
    _null = contextlib.nullcontext()

    def span(self, name: str):
        return self._null


NULL_TRACER = _NullTracer()
