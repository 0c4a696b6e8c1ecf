"""Nested tracing spans charged to the SimClock.

The span hierarchy mirrors the pipeline's control flow::

    sweep
    ├── stage:masscan (one per batch accumulation)
    └── batch
        ├── stage:prefilter
        └── stage:tsunami
            ├── probe:<slug> (one per plugin run, tagged with the host)
            └── stage:fingerprint (one per stage-II finding)

Durations come from the simulated clock only — they grow when retry
backoff or injected chaos latency advances it — so span timings are as
reproducible as the rest of the run.  Open spans snapshot and restore
through :mod:`repro.core.checkpoint`, which is what lets a killed sweep
resume *inside* its still-open ``sweep`` span.
"""

from __future__ import annotations

from repro.util.clock import SimClock


class Span:
    """One timed region of the run.

    Slotted and hand-initialised: a probe span is opened and closed once
    per plugin run, so its construction is on the per-probe path.
    """

    __slots__ = (
        "span_id", "parent_id", "name", "start", "end", "attrs",
        "wall_start", "wall_end",
    )

    def __init__(
        self,
        span_id: int,
        parent_id: int | None,
        name: str,
        start: float,
        end: float | None = None,
        attrs: dict[str, object] | None = None,
        wall_start: float | None = None,
        wall_end: float | None = None,
    ) -> None:
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.start = start
        self.end = end
        self.attrs = attrs if attrs is not None else {}
        #: real perf_counter stamps, set only when the tracer's
        #: ``wall_clock`` is armed (profiling).  Deliberately excluded from
        #: ``to_dict`` — and therefore from the JSONL export and every
        #: snapshot — because wall time is nondeterministic and must never
        #: leak into canonical output.
        self.wall_start = wall_start
        self.wall_end = wall_end

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Span({self.span_id}, parent={self.parent_id}, {self.name!r}, "
            f"{self.start}..{self.end}, {self.attrs})"
        )

    @property
    def duration(self) -> float:
        if self.end is None:
            raise ValueError(f"span {self.name!r} is still open")
        return self.end - self.start

    def to_dict(self) -> dict:
        return {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "attrs": {k: self.attrs[k] for k in sorted(self.attrs)},
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "Span":
        return cls(
            payload["span_id"], payload["parent_id"], payload["name"],
            payload["start"], payload["end"], dict(payload["attrs"]),
        )


class _Scope:
    """``with tracer.span(...)``: open on entry, close on exit."""

    __slots__ = ("_tracer", "_name", "_attrs", "_span")

    def __init__(self, tracer: "Tracer", name: str, attrs: dict) -> None:
        self._tracer = tracer
        self._name = name
        self._attrs = attrs

    def __enter__(self) -> Span:
        self._span = self._tracer.start(self._name, **self._attrs)
        return self._span

    def __exit__(self, exc_type, exc, tb) -> None:
        tracer, opened = self._tracer, self._span
        if exc_type is None:
            tracer.end(opened)
            return
        # An escaping exception (including a simulated kill) may leave
        # abandoned child spans open; unwind them rather than masking
        # the original error with a nesting violation.
        stack = tracer._stack
        while stack and stack[-1] is not opened:
            tracer.end()
        if stack and stack[-1] is opened:
            tracer.end(opened)


class Tracer:
    """Maintains the active span stack and the finished-span record."""

    def __init__(self, clock: SimClock | None = None) -> None:
        self.clock = clock
        self._stack: list[Span] = []
        self._finished: list[Span] = []
        self._next_id = 0
        #: optional span observer with ``on_start(span)`` / ``on_end(span)``
        #: methods (the telemetry handle wires the flight recorder here)
        self.listener: object | None = None
        #: optional real-time source (``repro.obs.profile.wall_now``); when
        #: set, spans carry wall stamps alongside their SimClock times
        self.wall_clock = None

    def _now(self) -> float:
        return self.clock.now if self.clock is not None else 0.0

    @property
    def active(self) -> Span | None:
        return self._stack[-1] if self._stack else None

    @property
    def depth(self) -> int:
        return len(self._stack)

    @property
    def finished(self) -> tuple[Span, ...]:
        """Completed spans, in completion order (a copy: callers that
        only count them want :attr:`finished_count`)."""
        return tuple(self._finished)

    @property
    def finished_count(self) -> int:
        return len(self._finished)

    def start(self, name: str, **attrs: object) -> Span:
        """Open a span as a child of the currently active one."""
        stack = self._stack
        span = Span(
            self._next_id,
            stack[-1].span_id if stack else None,
            name,
            self._now(),
            None,
            attrs,  # ``**attrs`` is already a fresh dict
        )
        self._next_id += 1
        if self.wall_clock is not None:
            span.wall_start = self.wall_clock()
        stack.append(span)
        if self.listener is not None:
            self.listener.on_start(span)
        return span

    def end(self, span: Span | None = None) -> Span:
        """Close the innermost open span (which must be ``span`` if given)."""
        if not self._stack:
            raise ValueError("no span is open")
        top = self._stack.pop()
        if span is not None and span is not top:
            self._stack.append(top)
            raise ValueError(
                f"span nesting violated: closing {span.name!r} "
                f"but {top.name!r} is innermost"
            )
        top.end = self._now()
        if self.wall_clock is not None:
            top.wall_end = self.wall_clock()
        self._finished.append(top)
        if self.listener is not None:
            self.listener.on_end(top)
        return top

    def span(self, name: str, **attrs: object) -> _Scope:
        return _Scope(self, name, attrs)

    # -- queries -------------------------------------------------------------

    def spans_named(self, name: str) -> list[Span]:
        return [s for s in self._finished if s.name == name]

    def children_of(self, span: Span) -> list[Span]:
        return [s for s in self._finished if s.parent_id == span.span_id]

    # -- shard folding -------------------------------------------------------

    def absorb(self, other: "Tracer") -> None:
        """Fold another tracer's finished spans into this record.

        Shard tracers number spans from zero, so absorbed span ids (and
        the parent links between them) are rebased past this tracer's id
        space; absorbing shards in canonical order therefore yields the
        same ids for any worker count.
        """
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

    # -- checkpoint support --------------------------------------------------

    def snapshot_state(self, since: int = 0) -> dict:
        """Finished spans plus the still-open stack (a checkpoint may land
        while the sweep-level span is open).

        The finished record is append-only, so a checkpoint journal
        passes ``since`` — how many spans it already holds — and gets
        only the ones finished after that.
        """
        return {
            "next_id": self._next_id,
            "finished": [s.to_dict() for s in self._finished[since:]],
            "open": [s.to_dict() for s in self._stack],
        }

    def restore_state(self, state: dict) -> None:
        self._next_id = state["next_id"]
        self._finished = [Span.from_dict(p) for p in state["finished"]]
        self._stack = [Span.from_dict(p) for p in state["open"]]
