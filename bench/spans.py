"""Wall-clock span recorder for the benchmark's traced pass.

The benchmark records spans from its own files, around the calls it makes
into each layer of ``repro``; nothing inside the program is instrumented.
A span is ``[name, start, end, parent]`` with the parent given as an index
into the span list, and every span of one recorder belongs to one
workload.  Spans stay in memory and are written once, at exit, as Chrome
trace-event JSON (load it in ``chrome://tracing`` or Perfetto).

Calls that happen hundreds of thousands of times per sweep (one SYN probe,
one HTTP GET) are not given a span each.  They are *charged* to the span
that is open when they happen: one aggregate child per (parent, name)
holding the call count and the summed seconds.  Self time treats an
aggregate exactly like a child span.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter
from typing import Iterator

NAME, START, END, PARENT = range(4)


class Recorder:
    """In-memory span list for one workload's traced pass."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.spans: list[list] = []
        #: (parent span index, name) -> [calls, seconds]
        self.charges: dict[tuple[int, str], list] = {}
        self._open: list[int] = []

    def begin(self, name: str) -> None:
        parent = self._open[-1] if self._open else -1
        self._open.append(len(self.spans))
        self.spans.append([name, perf_counter(), 0.0, parent])

    def end(self) -> float:
        """Close the innermost open span and return its duration."""
        now = perf_counter()
        span = self.spans[self._open.pop()]
        span[END] = now
        return now - span[START]

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        self.begin(name)
        try:
            yield
        finally:
            self.end()

    def charge(self, name: str, seconds: float) -> None:
        """Add one call of ``name`` to the innermost open span's account."""
        key = (self._open[-1] if self._open else -1, name)
        entry = self.charges.get(key)
        if entry is None:
            self.charges[key] = [1, seconds]
        else:
            entry[0] += 1
            entry[1] += seconds

    # -- reading ------------------------------------------------------------

    def durations(self, name: str) -> list[float]:
        return [s[END] - s[START] for s in self.spans if s[NAME] == name]

    def total(self, name: str) -> float:
        """Summed seconds of every span and every charge called ``name``."""
        return sum(self.durations(name)) + sum(
            entry[1] for (_, n), entry in self.charges.items() if n == name
        )

    def calls(self, name: str) -> int:
        return sum(1 for s in self.spans if s[NAME] == name) + sum(
            entry[0] for (_, n), entry in self.charges.items() if n == name
        )

    def self_times(self) -> dict[str, float]:
        """Per name: span seconds minus the seconds its children cover."""
        covered = [0.0] * len(self.spans)
        for span in self.spans:
            if span[PARENT] >= 0:
                covered[span[PARENT]] += span[END] - span[START]
        for (parent, _), entry in self.charges.items():
            if parent >= 0:
                covered[parent] += entry[1]
        out: dict[str, float] = {}
        for index, span in enumerate(self.spans):
            own = span[END] - span[START] - covered[index]
            out[span[NAME]] = out.get(span[NAME], 0.0) + own
        for (_, name), entry in self.charges.items():
            out[name] = out.get(name, 0.0) + entry[1]
        return out

    # -- writing ------------------------------------------------------------

    def write_chrome_trace(self, path: Path, stamp: dict) -> None:
        origin = self.spans[0][START] if self.spans else 0.0
        events = []
        for index, span in enumerate(self.spans):
            events.append({
                "name": span[NAME], "ph": "X", "pid": 1, "tid": 1,
                "ts": (span[START] - origin) * 1e6,
                "dur": (span[END] - span[START]) * 1e6,
                "args": {
                    "id": index, "parent": span[PARENT],
                    "workload": self.workload,
                },
            })
        for (parent, name), (calls, seconds) in self.charges.items():
            # An aggregate has no start of its own: draw it at its
            # parent's start, on a second track so it never hides spans.
            start = self.spans[parent][START] if parent >= 0 else origin
            events.append({
                "name": name, "ph": "X", "pid": 1, "tid": 2,
                "ts": (start - origin) * 1e6, "dur": seconds * 1e6,
                "args": {
                    "parent": parent, "workload": self.workload,
                    "calls": calls, "aggregate": True,
                },
            })
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {
                **stamp,
                "self_seconds": self.self_times(),
            },
        }))
