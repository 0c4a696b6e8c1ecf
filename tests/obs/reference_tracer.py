"""The eager tracer, kept as the oracle for the row tracer.

This is ``repro.obs.trace`` as it was before the finished record became
rows: every span — per-host ones included — is a ``Span`` object from
its start, pushed on the stack, closed by ``end`` and kept as an object;
snapshots are one dict per span; ``fold`` copies live objects; the JSONL
export and the profile rollup read attributes.  ``test_trace_rows.py``
runs random programs against both and requires equal output.
"""

from __future__ import annotations

import json

from repro.obs.profile import PathStats, ProfileRollup


class Span:
    __slots__ = (
        "span_id", "parent_id", "name", "start", "end", "attrs",
        "wall_start", "wall_end",
    )

    def __init__(
        self, span_id, parent_id, name, start, end=None, attrs=None,
        wall_start=None, wall_end=None,
    ):
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.start = start
        self.end = end
        self.attrs = attrs if attrs is not None else {}
        self.wall_start = wall_start
        self.wall_end = wall_end

    @property
    def duration(self):
        if self.end is None:
            raise ValueError(f"span {self.name!r} is still open")
        return self.end - self.start

    def to_dict(self):
        return {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "attrs": {k: self.attrs[k] for k in sorted(self.attrs)},
        }

    @classmethod
    def from_dict(cls, payload):
        return cls(
            payload["span_id"], payload["parent_id"], payload["name"],
            payload["start"], payload["end"], dict(payload["attrs"]),
        )


class _Scope:
    __slots__ = ("_tracer", "_name", "_attrs", "_span")

    def __init__(self, tracer, name, attrs):
        self._tracer = tracer
        self._name = name
        self._attrs = attrs

    def __enter__(self):
        self._span = self._tracer.start(self._name, **self._attrs)
        return self._span

    def __exit__(self, exc_type, exc, tb):
        tracer, opened = self._tracer, self._span
        if exc_type is None:
            tracer.end(opened)
            return
        stack = tracer._stack
        while stack and stack[-1] is not opened:
            tracer.end()
        if stack and stack[-1] is opened:
            tracer.end(opened)


class Tracer:
    def __init__(self, clock=None):
        self.clock = clock
        self._stack = []
        self._finished = []
        self._next_id = 0
        self.wall_clock = None

    def _now(self):
        return self.clock.now if self.clock is not None else 0.0

    @property
    def active(self):
        return self._stack[-1] if self._stack else None

    @property
    def finished(self):
        return tuple(self._finished)

    def start(self, name, **attrs):
        stack = self._stack
        span = Span(
            self._next_id, stack[-1].span_id if stack else None, name,
            self._now(), None, attrs,
        )
        self._next_id += 1
        if self.wall_clock is not None:
            span.wall_start = self.wall_clock()
        stack.append(span)
        return span

    def end(self, span=None):
        if not self._stack:
            raise ValueError("no span is open")
        top = self._stack.pop()
        if span is not None and span is not top:
            self._stack.append(top)
            raise ValueError("span nesting violated")
        top.end = self._now()
        if self.wall_clock is not None:
            top.wall_end = self.wall_clock()
        self._finished.append(top)
        return top

    def span(self, name, **attrs):
        return _Scope(self, name, attrs)

    def fold(self, other):
        if other._stack:
            raise ValueError("cannot absorb a tracer with open spans")
        offset = self._next_id
        for span in other._finished:
            self._finished.append(Span(
                span.span_id + offset,
                None if span.parent_id is None else span.parent_id + offset,
                span.name, span.start, span.end, dict(span.attrs),
                span.wall_start, span.wall_end,
            ))
        self._next_id += other._next_id

    def snapshot_state(self, since=0):
        return {
            "next_id": self._next_id,
            "finished": [s.to_dict() for s in self._finished[since:]],
            "open": [s.to_dict() for s in self._stack],
        }

    def restore_state(self, state):
        self._next_id = state["next_id"]
        self._finished = [Span.from_dict(p) for p in state["finished"]]
        self._stack = [Span.from_dict(p) for p in state["open"]]


def export_spans(tracer: Tracer) -> str:
    """The span half of ``Telemetry.export_jsonl`` over span objects."""
    return "".join(
        json.dumps(
            {"kind": "span", **span.to_dict()},
            sort_keys=True, separators=(", ", ": "),
        ) + "\n"
        for span in tracer.finished
    )


def rollup(spans) -> ProfileRollup:
    """``ProfileRollup.from_spans`` as it read span objects."""
    result = ProfileRollup()
    closed = [s for s in spans if s.end is not None]
    by_id = {s.span_id: s for s in closed}
    child_total = {}
    for span in closed:
        if span.parent_id in by_id:
            child_total[span.parent_id] = (
                child_total.get(span.parent_id, 0.0) + span.duration
            )
    path_cache = {}

    def path_of(span):
        cached = path_cache.get(span.span_id)
        if cached is None:
            parent = by_id.get(span.parent_id)
            cached = (
                span.name if parent is None
                else f"{path_of(parent)}/{span.name}"
            )
            path_cache[span.span_id] = cached
        return cached

    for span in closed:
        stats = result.paths.setdefault(path_of(span), PathStats())
        self_time = span.duration - child_total.get(span.span_id, 0.0)
        stats.count += 1
        stats.total += span.duration
        stats.self_time += self_time
        if span.wall_start is not None and span.wall_end is not None:
            result.has_wall = True
            wall = span.wall_end - span.wall_start
            stats.wall_total += wall
            stats.wall_self += wall
        if span.parent_id not in by_id:
            result.root_total += span.duration
            result.root_self += self_time
    for span in by_id.values():
        parent = by_id.get(span.parent_id)
        if (
            parent is None
            or span.wall_start is None or span.wall_end is None
            or parent.wall_start is None or parent.wall_end is None
        ):
            continue
        result.paths[path_cache[parent.span_id]].wall_self -= (
            span.wall_end - span.wall_start
        )
    return result
