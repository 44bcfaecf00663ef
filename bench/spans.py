"""In-memory span recorder for the traced benchmark run.

A span records its name, start, end, parent span and query id. Spans are
kept in a list while the run goes and written out once it ends, so the
recorder itself does no I/O on the measured path. The benchmark records
spans only around calls it makes into ``f4search``; the program itself
is not instrumented.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import defaultdict


class Tracer:
    """Nested spans for one single-threaded caller."""

    def __init__(self):
        self.origin_ns = time.perf_counter_ns()
        # Each span is [name, start_ns, end_ns, parent_index, query_id].
        self.spans: list[list] = []
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, query=None):
        parent = self._open[-1] if self._open else -1
        if query is None and parent >= 0:
            query = self.spans[parent][4]
        record = [name, time.perf_counter_ns(), 0, parent, query]
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[2] = time.perf_counter_ns()
            self._open.pop()

    def durations(self) -> dict[str, float]:
        """Total seconds per span name."""
        out: dict[str, float] = defaultdict(float)
        for name, start, end, _, _ in self.spans:
            out[name] += (end - start) / 1e9
        return out

    def self_times(self) -> dict[str, float]:
        """Seconds per span name, minus the time covered by child spans.

        One caller runs its children one after another inside the parent,
        so the covered time is the sum of the direct children's durations.
        """
        child = [0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name] += (end - start - child[i]) / 1e9
        return out

    def write(self, path) -> None:
        rows = [
            {
                "name": name,
                "start_ns": start - self.origin_ns,
                "end_ns": end - self.origin_ns,
                "parent": parent,
                "query": query,
            }
            for name, start, end, parent, query in self.spans
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(rows, fh)


class NullTracer:
    """Stand-in used by untraced runs: every span is a no-op."""

    def span(self, name: str, query=None):
        return contextlib.nullcontext()
