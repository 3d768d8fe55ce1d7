"""Spans recorded around calls into whframe's public functions.

A span is a dict with name, start, end, parent span id and op id, plus
any counts passed when it was opened. Spans stay in memory until the run
ends. When tracemalloc is tracing, each span also records the peak number
of bytes traced while it was open; nested spans keep their parents' peaks
correct by folding the running peak into every open span before each
reset.
"""

from __future__ import annotations

import time
import tracemalloc
from contextlib import contextmanager


class NullTracer:
    """Tracer used in timed runs: calls pass straight through."""

    @contextmanager
    def span(self, name, **attrs):
        yield attrs

    def call(self, name, fn, *args, **attrs):
        return fn(*args)


class Tracer:
    """Tracer used in traced runs: records a span around each call."""

    def __init__(self):
        self.spans: list[dict] = []
        self.op_id: int | None = None
        self._open: list[dict] = []

    def _fold_peak(self, extra: list[dict]) -> None:
        if not tracemalloc.is_tracing():
            return
        peak = tracemalloc.get_traced_memory()[1]
        for rec in self._open + extra:
            rec["peak_bytes"] = max(rec.get("peak_bytes", 0), peak)
        tracemalloc.reset_peak()

    @contextmanager
    def span(self, name, **attrs):
        rec = {
            "id": len(self.spans),
            "name": name,
            "op": self.op_id,
            "parent": self._open[-1]["id"] if self._open else None,
            **attrs,
        }
        self.spans.append(rec)
        self._fold_peak([])
        self._open.append(rec)
        rec["start"] = time.perf_counter()
        try:
            yield rec
        except BaseException as e:
            rec["error"] = type(e).__name__
            raise
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()
            self._fold_peak([rec])

    def call(self, name, fn, *args, **attrs):
        with self.span(name, **attrs):
            return fn(*args)

    def self_times(self) -> dict[int, float]:
        """Span id -> duration minus the time its child spans cover."""
        child = {rec["id"]: 0.0 for rec in self.spans}
        for rec in self.spans:
            if rec["parent"] is not None:
                child[rec["parent"]] += rec["end"] - rec["start"]
        return {rec["id"]: rec["end"] - rec["start"] - child[rec["id"]] for rec in self.spans}
