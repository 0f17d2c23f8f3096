"""The benchmark's own span recorder.

Spans are taken in the benchmark's files, around each call into a layer
of the program; nothing is recorded inside ``src/``.  They are held in
memory and written once, when the run ends.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager


class Tracer:
    """A flat list of ``(name, start, end, parent, request)`` spans.

    ``start``/``end`` are ``time.perf_counter`` seconds, ``parent`` is the
    index of the span that caused this one (or None) and ``request`` is
    the operation the span belongs to (or None for set-up and replay).
    """

    def __init__(self) -> None:
        self.spans: list[tuple] = []

    def add(self, name: str, start: float, end: float,
            parent: int | None = None, request=None) -> int:
        self.spans.append((name, start, end, parent, request))
        return len(self.spans) - 1

    @contextmanager
    def span(self, name: str, parent: int | None = None, request=None):
        """Record the body as one span; yields the span's index so that
        nested spans can name it as their parent."""
        index = self.add(name, 0.0, 0.0, parent, request)
        start = time.perf_counter()
        try:
            yield index
        finally:
            self.spans[index] = (name, start, time.perf_counter(),
                                 parent, request)

    def write(self, path) -> None:
        """Chrome trace-event JSON (open in Perfetto / chrome://tracing):
        one complete ("X") event per span, microseconds from the first
        span; ``args`` carry the span's index, parent and request."""
        origin = min((s[1] for s in self.spans), default=0.0)
        events = [
            {"name": name, "ph": "X", "pid": 0,
             "tid": 0 if request is None else 1,
             "ts": round((start - origin) * 1e6, 3),
             "dur": round((end - start) * 1e6, 3),
             "args": {"id": index, "parent": parent, "request": request}}
            for index, (name, start, end, parent, request)
            in enumerate(self.spans)]
        with open(path, "w") as handle:
            json.dump({"displayTimeUnit": "ms", "traceEvents": events},
                      handle)
