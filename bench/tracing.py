"""In-memory spans around the public calls the benchmark makes.

A span holds its name, start, end, parent and operation id. Spans stay in
memory until the run ends, when ``dump`` writes them out. A layer's self time
is its spans' durations minus the time their child spans cover.
"""

from __future__ import annotations

import contextlib
import json
from collections import defaultdict
from pathlib import Path
from time import perf_counter

_NULL = contextlib.nullcontext()


class NullTracer:
    """Records nothing; used for the untraced measurements."""

    enabled = False

    def span(self, name: str):
        return _NULL

    def begin_op(self, op_id: int) -> None:
        pass


class Tracer:
    enabled = True

    def __init__(self) -> None:
        # Each span is [name, start, end, parent index or None, op id].
        self.spans: list[list] = []
        self._open: list[int] = []
        self._op = -1

    def begin_op(self, op_id: int) -> None:
        self._op = op_id

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        record = [name, perf_counter(), None, parent, self._op]
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[2] = perf_counter()
            self._open.pop()

    def self_times(self) -> dict[str, float]:
        """Total self time per span name, in seconds."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            totals[name] += (end - start) - child_time[i]
        return dict(totals)

    def dump(self, path: Path, origin: float) -> None:
        rows = [
            {"name": n, "start": s - origin, "end": e - origin, "parent": p, "op": op}
            for n, s, e, p, op in self.spans
        ]
        path.write_text(json.dumps(rows) + "\n")
