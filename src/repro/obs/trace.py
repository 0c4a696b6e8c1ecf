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

A span is a row until someone reads it.  The finished record is a list
of **rows** — flat tuples of atoms, the columns named below — and a row
is what the journal, a shard payload and the fold carry; a
:class:`Span` object exists only as

* the open handle of a span whose attrs its caller fills in while it
  runs (``sweep``, ``batch``, the stages: a handful per batch), turned
  into a row by :meth:`Tracer.end`, and
* the view :attr:`Tracer.finished`, :meth:`Tracer.spans_named` and
  :meth:`Tracer.children_of` build on demand for tests and tools.

The two per-host spans are **leaves**: nothing is ever opened beneath
them, so they never go on the stack and are recorded by one call at
their end (:meth:`Tracer.leaf`).  The rule that keeps that exact: while
a leaf is running, nothing else may be started on its tracer.
"""

from __future__ import annotations

from typing import Iterator, Sequence

from repro.net.ipv4 import dotted_quad
from repro.util.clock import SimClock

#: columns of a row.  ``HOST`` is the address *integer* and ``PORT`` the
#: port of a per-host span (both None otherwise); they surface as the
#: ``host`` (dotted quad) and ``port`` attrs wherever attrs are read.
#: ``ATTRS`` is one small mapping of the remaining attrs, or None.  It may
#: be shared between rows: nobody writes to a row's mapping.
SPAN_ID, PARENT_ID, NAME, START, END, HOST, PORT, ATTRS = range(8)

#: canonical row width.  A row stamped by an armed wall clock carries two
#: more columns; they are cut off wherever a row is serialised, because
#: wall time is nondeterministic and must never leak into canonical output.
ROW_WIDTH = 8
WALL_START, WALL_END = 8, 9


def row_attrs(row: Sequence) -> dict[str, object]:
    """A row's attrs as a fresh dict: the mapping plus host and port."""
    attrs = dict(row[ATTRS]) if row[ATTRS] else {}
    if row[HOST] is not None:
        attrs["host"] = dotted_quad(row[HOST])
    if row[PORT] is not None:
        attrs["port"] = row[PORT]
    return attrs


def row_to_dict(row: Sequence) -> dict:
    """A row in the canonical form of a span — what its view's
    ``to_dict`` gives, attrs unsorted — without building the view."""
    return {
        "span_id": row[SPAN_ID],
        "parent_id": row[PARENT_ID],
        "name": row[NAME],
        "start": row[START],
        "end": row[END],
        "attrs": row_attrs(row),
    }


class Span:
    """One timed region of the run: an open handle, or a view of a row."""

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
        #: ``wall_clock`` is armed (profiling); never serialised
        self.wall_start = wall_start
        self.wall_end = wall_end

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Span({self.span_id}, parent={self.parent_id}, {self.name!r}, "
            f"{self.start}..{self.end}, {self.attrs})"
        )

    def __eq__(self, other: object) -> bool:
        """By value: two views of one row are the same span."""
        if not isinstance(other, Span):
            return NotImplemented
        return all(
            getattr(self, field) == getattr(other, field)
            for field in Span.__slots__
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

    def row(self) -> tuple:
        """This span as a row.  The attrs are copied: what is written to
        the handle after this is not recorded."""
        row = (
            self.span_id, self.parent_id, self.name, self.start, self.end,
            None, None, dict(self.attrs) if self.attrs else None,
        )
        if self.wall_start is None or self.wall_end is None:
            return row
        return row + (self.wall_start, self.wall_end)

    @classmethod
    def from_row(cls, row: Sequence) -> "Span":
        return cls(*row[:END + 1], row_attrs(row), *row[ROW_WIDTH:])


class SpanViews(Sequence):
    """A span record read as :class:`Span` views, each built when it is
    reached.  A reader that can work on rows takes ``rows`` instead."""

    __slots__ = ("rows",)

    def __init__(self, rows: Sequence[Sequence]) -> None:
        self.rows = rows

    def __len__(self) -> int:
        return len(self.rows)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return SpanViews(self.rows[index])
        return Span.from_row(self.rows[index])

    def __iter__(self) -> Iterator[Span]:
        return map(Span.from_row, self.rows)


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
        self._finished: list[tuple] = []
        self._next_id = 0
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
    def finished(self) -> SpanViews:
        """Completed spans, in completion order, as of this call: views,
        or ``finished.rows`` for a reader that works on rows (callers
        that only count them want :attr:`finished_count`)."""
        return SpanViews(tuple(self._finished))

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
        self._finished.append(top.row())
        return top

    def span(self, name: str, **attrs: object) -> _Scope:
        return _Scope(self, name, attrs)

    # -- leaf spans ----------------------------------------------------------

    def leaf_start(self) -> tuple[float, float | None]:
        """The start stamps of a leaf span; hand them to :meth:`leaf`."""
        return (
            self.clock.now if self.clock is not None else 0.0,
            self.wall_clock() if self.wall_clock is not None else None,
        )

    def leaf(
        self,
        name: str,
        opened: tuple[float, float | None],
        host: int | None = None,
        port: int | None = None,
        attrs: dict[str, object] | None = None,
    ) -> tuple:
        """Record a leaf span, whole, at its end: a child of the active
        span that ran from ``opened`` until now.  Returns its row.

        It takes the id a span started at ``opened`` would have taken,
        provided nothing else was started since (the leaf rule).  To
        record the leaf even when its body raises, as ``with span(...)``
        does, call this from a ``finally``.
        """
        stack = self._stack
        start, wall_start = opened
        row = (
            self._next_id,
            stack[-1].span_id if stack else None,
            name,
            start,
            self.clock.now if self.clock is not None else 0.0,
            host,
            port,
            attrs,
        )
        if wall_start is not None:
            row += (wall_start, self.wall_clock())
        self._next_id += 1
        self._finished.append(row)
        return row

    # -- queries -------------------------------------------------------------

    def spans_named(self, name: str) -> list[Span]:
        return [
            Span.from_row(row) for row in self._finished if row[NAME] == name
        ]

    def children_of(self, span: Span) -> list[Span]:
        return [
            Span.from_row(row) for row in self._finished
            if row[PARENT_ID] == span.span_id
        ]

    # -- state ---------------------------------------------------------------

    def snapshot_state(self, since: int = 0) -> dict:
        """Finished rows plus the still-open stack (a checkpoint may land
        while the sweep-level span is open), all at canonical width.

        The finished record is append-only, so a checkpoint journal
        passes ``since`` — how many rows it already holds — and gets
        only the ones finished after that.
        """
        return {
            "next_id": self._next_id,
            "finished": [row[:ROW_WIDTH] for row in self._finished[since:]],
            "open": [span.row()[:ROW_WIDTH] for span in self._stack],
        }

    def absorb_state(self, state: dict) -> None:
        """Fold a snapshot's finished rows into this record (the decoder,
        and the shard-merge step); its rows are rebased as they are,
        nothing is rebuilt.

        Shard tracers number spans from zero, so absorbed span ids (and
        the parent links between them) are rebased past this tracer's id
        space; absorbing shards in canonical order therefore yields the
        same ids for any worker count.
        """
        if state["open"]:
            raise ValueError("cannot absorb a tracer with open spans")
        offset = self._next_id
        self._finished.extend(
            (
                row[SPAN_ID] + offset,
                None if row[PARENT_ID] is None else row[PARENT_ID] + offset,
                *row[NAME:],
            )
            for row in state["finished"]
        )
        self._next_id += state["next_id"]

    def restore_state(self, state: dict) -> None:
        """Replace the record with a snapshot's, reopening its open spans."""
        self._finished = []
        self._next_id = 0
        self.absorb_state({**state, "open": []})
        self._stack = [Span.from_row(row) for row in state["open"]]
