"""In-memory spans around the benchmark's calls into the library.

A span has a name, a start, an end, its parent and the run id.  Spans stay
in memory and are written out once, at the end of the run.  A disabled
tracer hands out one shared no-op context, so untraced jobs pay almost
nothing for the ``with`` statements.
"""

from __future__ import annotations

import contextlib
import json
import time
from pathlib import Path

_NULL = contextlib.nullcontext()


class _Span:
    __slots__ = ("tracer", "name", "index")

    def __init__(self, tracer: "Tracer", name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        tr = self.tracer
        parent = tr.stack[-1] if tr.stack else None
        self.index = len(tr.spans)
        tr.spans.append([self.name, time.perf_counter(), None, parent])
        tr.stack.append(self.index)
        return self

    def __exit__(self, *exc):
        tr = self.tracer
        tr.spans[self.index][2] = time.perf_counter()
        tr.stack.pop()
        return False


class Tracer:
    def __init__(self, run_id: str, enabled: bool):
        self.run_id = run_id
        self.enabled = enabled
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.stack: list[int] = []

    def span(self, name: str):
        return _Span(self, name) if self.enabled else _NULL

    def self_times(self) -> dict[str, dict]:
        """Per span name: count, total duration and self time (duration
        minus the time its direct children cover; spans never overlap)."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out: dict[str, dict] = {}
        for i, (name, start, end, _) in enumerate(self.spans):
            entry = out.setdefault(name, {"count": 0, "total_s": 0.0, "self_s": 0.0})
            entry["count"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - child_time[i]
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "run_id": self.run_id,
            "spans": [
                {"id": i, "name": name, "start": start, "end": end, "parent": parent, "run": self.run_id}
                for i, (name, start, end, parent) in enumerate(self.spans)
            ],
            "self_times": self.self_times(),
        }
        with open(path, "w") as fh:
            json.dump(payload, fh)
