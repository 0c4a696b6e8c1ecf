"""The metrics registry: counters and fixed-bucket histograms.

Everything numeric the runtime wants to expose lives here, keyed by
``(name, sorted labels)``.  Every histogram has the default buckets
(no dynamic rebinning), values come only from instrumented code charged
to the SimClock, and every accessor iterates in sorted key order — so
snapshots and the Prometheus exposition are deterministic across
identical runs.

Write local, publish on read.  A per-probe or per-batch writer looks no
series up: it adds to a plain local — the registry's ``pending`` dict
under a :func:`series_key` it built once, its ``observed`` lists, or a
stats block of its own with a publish hook
(:meth:`MetricsRegistry.defer`).  ``counter(name, **labels)`` is for
cold writers, and for float series that must add in charge order.
Every read — ``counter_value``, ``histogram_count``, ``snapshot_state``,
``absorb_state``, ``to_prometheus`` — publishes first, so a reader sees
exactly what per-increment writes would have left, and a sweep nobody
reads pays one publish per batch.  Publishing is single-writer: only
the thread running the sweep may read through those accessors; any
other thread (the console's HTTP handler) takes
:meth:`MetricsRegistry.published_state`, which never publishes and is
at most one batch behind.
"""

from __future__ import annotations

import weakref
from bisect import bisect_left
from collections import defaultdict
from typing import Callable, Iterable

#: default latency buckets, simulated seconds (retry backoff and chaos
#: slow-responses are the only things that advance the clock mid-probe)
DEFAULT_BUCKETS: tuple[float, ...] = (
    0.05, 0.25, 1.0, 5.0, 15.0, 60.0, 300.0, 1800.0,
)

_LabelKey = tuple[tuple[str, str], ...]


def _label_key(labels: dict[str, object]) -> _LabelKey:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def series_key(name: str, **labels: object) -> tuple[str, _LabelKey]:
    """Canonical key of one series — what ``MetricsRegistry.pending``
    counts under.  Writers build theirs once, not per increment."""
    return (name, _label_key(labels))


class Counter:
    """Monotonically increasing value."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: float = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        self.value += amount


class Histogram:
    """Fixed-bucket histogram (cumulative-at-export, like Prometheus)."""

    __slots__ = ("bounds", "counts", "total", "count")

    def __init__(self, bounds: Iterable[float] = DEFAULT_BUCKETS) -> None:
        self.bounds = tuple(sorted(float(b) for b in bounds))
        if not self.bounds:
            raise ValueError("a histogram needs at least one bucket bound")
        #: per-bucket counts; the extra slot is the +Inf overflow bucket
        self.counts = [0] * (len(self.bounds) + 1)
        self.total = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        # first bound >= value; past the last bound is the +Inf slot
        self.counts[bisect_left(self.bounds, value)] += 1
        self.total += value
        self.count += 1

    def cumulative(self) -> list[tuple[float, int]]:
        """(upper bound, cumulative count) pairs, ending with +Inf."""
        out = []
        running = 0
        for bound, count in zip(self.bounds, self.counts):
            running += count
            out.append((bound, running))
        out.append((float("inf"), running + self.counts[-1]))
        return out


class MetricsRegistry:
    """Lazily-created, labelled counter and histogram families.

    Its state has one encoder, :meth:`snapshot_state`, and one decoder,
    :meth:`absorb_state`, which is also the shard fold; a restore is an
    emptied registry absorbing the snapshot.
    """

    def __init__(self) -> None:
        self._counters: dict[tuple[str, _LabelKey], Counter] = {}
        self._histograms: dict[tuple[str, _LabelKey], Histogram] = {}
        #: counter adds not yet folded in, by :func:`series_key`.  The
        #: per-probe write is ``pending[key] = pending.get(key, 0) + n``,
        #: whole counts only (a float series must add in charge order,
        #: see ``RetryExecutor.publish_counts``).  A key a writer touched
        #: mints its series even at zero, exactly as
        #: ``counter(...).inc(0)`` would, and one it never touched mints
        #: nothing.  Writers hold keys, never series objects, so
        #: ``restore_state`` replacing every series strands nobody.
        self.pending: dict[tuple[str, _LabelKey], float] = {}
        #: histogram observations not yet folded in, by :func:`series_key`
        #: (default buckets).  The per-probe write is
        #: ``observed[key].append(value)``; publishing replays each
        #: series' values in the order they were observed, so its float
        #: ``total`` adds up exactly as per-probe ``observe`` calls would
        #: have left it (series share no sum, so order *across* series
        #: never mattered).
        self.observed: defaultdict[tuple[str, _LabelKey], list[float]] = (
            defaultdict(list)
        )
        #: publish hooks of writers that keep their own books, held
        #: weakly: a writer that is gone has published for the last time
        self._deferred: list[weakref.WeakMethod] = []

    # -- deferred writers ----------------------------------------------------

    def defer(self, publish: Callable[[], None]) -> None:
        """Register a writer's publish hook (a bound method).

        The hook folds whatever the writer has accumulated locally into
        this registry through the write accessors; it must leave nothing
        pending and be free when nothing is.  Hooks run in registration
        order, on the reading thread — which must be the writing one.
        """
        self._deferred = [ref for ref in self._deferred if ref() is not None]
        self._deferred.append(weakref.WeakMethod(publish))

    def publish(self) -> None:
        """Fold the pending adds and observations and every deferred
        writer's books in.  Every read accessor starts here; a sweep also
        calls it at batch boundaries, which bounds how stale
        :meth:`published_state` is."""
        pending = self.pending
        if pending:
            counters = self._counters
            for key, amount in pending.items():
                metric = counters.get(key)
                if metric is None:
                    metric = counters[key] = Counter()
                metric.value += amount
            pending.clear()
        observed = self.observed
        if observed:
            histograms = self._histograms
            for key, values in observed.items():
                metric = histograms.get(key)
                if metric is None:
                    metric = histograms[key] = Histogram()
                for value in values:
                    metric.observe(value)
            observed.clear()
        for ref in self._deferred:
            publish = ref()
            if publish is not None:
                publish()

    # -- creation / lookup ---------------------------------------------------

    def counter(self, name: str, **labels: object) -> Counter:
        key = series_key(name, **labels)
        metric = self._counters.get(key)
        if metric is None:
            metric = self._counters[key] = Counter()
        return metric

    # -- read accessors (0 for series never touched) -------------------------

    def counter_value(self, name: str, **labels: object) -> float:
        self.publish()
        metric = self._counters.get((name, _label_key(labels)))
        return metric.value if metric is not None else 0.0

    def histogram_count(self, name: str, **labels: object) -> int:
        self.publish()
        metric = self._histograms.get((name, _label_key(labels)))
        return metric.count if metric is not None else 0

    # -- exposition ----------------------------------------------------------

    def to_prometheus(self) -> str:
        """Prometheus text exposition (types annotated, sorted series)."""
        self.publish()
        lines: list[str] = []
        seen_types: set[str] = set()

        def type_line(name: str, kind: str) -> None:
            if name not in seen_types:
                lines.append(f"# TYPE {name} {kind}")
                seen_types.add(name)

        def label_text(labels: _LabelKey, extra: tuple[tuple[str, str], ...] = ()) -> str:
            pairs = labels + extra
            if not pairs:
                return ""
            return (
                "{"
                + ",".join(f'{k}="{_escape_label(v)}"' for k, v in pairs)
                + "}"
            )

        for (name, labels), counter in sorted(self._counters.items()):
            type_line(name, "counter")
            lines.append(f"{name}{label_text(labels)} {_num(counter.value)}")
        for (name, labels), histogram in sorted(self._histograms.items()):
            type_line(name, "histogram")
            for bound, cumulative in histogram.cumulative():
                le = "+Inf" if bound == float("inf") else _num(bound)
                lines.append(
                    f"{name}_bucket{label_text(labels, (('le', le),))} {cumulative}"
                )
            lines.append(f"{name}_sum{label_text(labels)} {_num(histogram.total)}")
            lines.append(f"{name}_count{label_text(labels)} {histogram.count}")
        return "\n".join(lines) + ("\n" if lines else "")

    # -- checkpoint support --------------------------------------------------

    def snapshot_state(self) -> dict:
        self.publish()
        return self.published_state()

    def published_state(self) -> dict:
        """The snapshot as of the last publish, without publishing: the
        one read another thread may make of a live registry."""
        return {
            "counters": [
                [name, [list(p) for p in labels], metric.value]
                for (name, labels), metric in sorted(self._counters.items())
            ],
            "histograms": [
                [
                    name,
                    [list(p) for p in labels],
                    list(metric.bounds),
                    list(metric.counts),
                    metric.total,
                    metric.count,
                ]
                for (name, labels), metric in sorted(self._histograms.items())
            ],
        }

    def absorb_state(self, state: dict) -> None:
        """Fold a snapshot in: the decoder, and the shard-merge step.

        Counters add; histograms add bucket-wise and therefore require
        identical bounds.  The snapshot is in sorted key order, so the
        series the fold creates appear in a canonical order.  A
        ``"gauges"`` list, which snapshots carried before the gauge
        family went, is ignored.
        """
        self.publish()
        counters, histograms = self._counters, self._histograms
        for name, labels, value in state["counters"]:
            key = (name, tuple((k, v) for k, v in labels))
            mine = counters.get(key)
            if mine is None:
                mine = counters[key] = Counter()
            mine.value += value
        for name, labels, bounds, counts, total, count in state["histograms"]:
            key = (name, tuple((k, v) for k, v in labels))
            mine = histograms.get(key)
            if mine is None:
                mine = histograms[key] = Histogram(bounds)
            if mine.bounds != tuple(bounds):
                raise ValueError(
                    f"cannot absorb histogram {name!r}: bucket bounds differ"
                )
            mine.counts = [a + b for a, b in zip(mine.counts, counts)]
            mine.total += total
            mine.count += count

    def restore_state(self, state: dict) -> None:
        # Pending counts belong to the state being replaced.
        self.publish()
        self._counters.clear()
        self._histograms.clear()
        self.absorb_state(state)


def _num(value: float) -> str:
    """Render ``3.0`` as ``3`` but keep real fractions exact."""
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def _escape_label(value: str) -> str:
    """Escape a label value per the Prometheus text exposition format.

    Backslash, double quote, and newline are the three characters the
    format requires escaping inside quoted label values.
    """
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )
