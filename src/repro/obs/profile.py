"""Span profiling: flamegraph-style rollups with dual time accounting.

The :class:`~repro.obs.trace.Tracer` records *what* happened; this module
answers *where the time went*.  A rollup aggregates finished spans (as
the tracer holds them: rows, see :mod:`repro.obs.trace`) by
their **path** — the span names from the root down, joined with ``/``
(``sweep/batch/stage:tsunami/probe:jenkins``) — and reports, per path:

* **count** — spans completing on that path;
* **total** — summed span duration (a parent's total includes its
  children);
* **self** — total minus the direct children's totals: the time spent
  *on* that path rather than *under* it.  Self times across all paths
  sum exactly to the root totals, so attribution is complete by
  construction.

Two clocks, two books — the repo's central tension is that its output
must be deterministic while its performance is not:

* **SimClock accounting** is canonical.  Durations come from the shard
  clocks, so the rollup of a sweep is byte-identical for every worker
  count and across kill-and-resume — it can be committed, diffed, and
  CI-gated like any other artifact;
* **wall accounting** is diagnostic.  When profiling is armed
  (``ScanPipeline.profile=True``) every span also records real
  ``perf_counter`` stamps, rolled up *separately* per shard and folded
  into a :class:`WallProfile` that never touches the canonical report or
  telemetry export.  This is the view that can say *why* ``workers=8``
  is slower than ``workers=1`` when the simulated books say the two runs
  are identical.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.obs.trace import (
    END, NAME, PARENT_ID, ROW_WIDTH, SPAN_ID, START, WALL_END, WALL_START,
    Span, SpanViews,
)
from repro.util.tables import Table


def wall_now() -> float:
    """The one sanctioned wall-clock read in the package.

    Everything deterministic charges the SimClock; wall-time profiling is
    the explicit exception because attributing a real regression needs
    real seconds.  Callers must keep the values out of canonical reports
    and telemetry exports (``TestProfileInvariance`` in
    ``tests/core/test_parallel.py`` holds profiled output to unprofiled).
    """
    return time.perf_counter()


@dataclass
class PathStats:
    """Aggregate timings for one span path."""

    count: int = 0
    total: float = 0.0
    self_time: float = 0.0
    wall_total: float = 0.0
    wall_self: float = 0.0

    def to_dict(self) -> dict:
        return {
            "count": self.count,
            "total": round(self.total, 9),
            "self": round(self.self_time, 9),
        }


class ProfileRollup:
    """Per-path aggregation of a finished span record."""

    def __init__(self) -> None:
        self.paths: dict[str, PathStats] = {}
        #: summed duration of root spans (per-shard ``sweep`` spans all
        #: aggregate here, so this is the sweep's total SimClock cost)
        self.root_total: float = 0.0
        #: root time not covered by any child span
        self.root_self: float = 0.0
        self.has_wall: bool = False

    @classmethod
    def from_spans(cls, spans: Iterable[Span]) -> "ProfileRollup":
        """:meth:`from_rows` for spans held as views (open ones may be
        mixed in; they are skipped)."""
        if isinstance(spans, SpanViews):
            return cls.from_rows(spans.rows)
        return cls.from_rows(span.row() for span in spans)

    @classmethod
    def from_rows(cls, rows: Iterable[Sequence]) -> "ProfileRollup":
        """Roll up a span record (rows still open are skipped).

        Span ids only need to be consistent *within* the record handed
        in; absorbed shard records qualify because the tracer rebases ids
        during the fold.
        """
        rollup = cls()
        closed = [row for row in rows if row[END] is not None]
        by_id = {row[SPAN_ID]: row for row in closed}
        child_total: dict[int, float] = {}
        for row in closed:
            parent_id = row[PARENT_ID]
            if parent_id in by_id:
                child_total[parent_id] = (
                    child_total.get(parent_id, 0.0) + (row[END] - row[START])
                )

        #: siblings of one name share a path: by (parent id, name)
        path_by_step: dict[tuple, str] = {}

        def path_of(row: Sequence) -> str:
            step = (row[PARENT_ID], row[NAME])
            path = path_by_step.get(step)
            if path is None:
                parent = by_id.get(row[PARENT_ID])
                path = path_by_step[step] = (
                    row[NAME] if parent is None
                    else f"{path_of(parent)}/{row[NAME]}"
                )
            return path

        paths = rollup.paths
        for row in closed:
            path = path_of(row)
            stats = paths.get(path)
            if stats is None:
                stats = paths[path] = PathStats()
            duration = row[END] - row[START]
            self_time = duration - child_total.get(row[SPAN_ID], 0.0)
            stats.count += 1
            stats.total += duration
            stats.self_time += self_time
            if len(row) > ROW_WIDTH:
                rollup.has_wall = True
                wall = row[WALL_END] - row[WALL_START]
                stats.wall_total += wall
                stats.wall_self += wall
            if row[PARENT_ID] not in by_id:
                rollup.root_total += duration
                rollup.root_self += self_time
        if rollup.has_wall:
            rollup._subtract_child_wall(by_id, path_by_step)
        return rollup

    def _subtract_child_wall(
        self, by_id: dict[int, Sequence], path_by_step: dict[tuple, str]
    ) -> None:
        for row in by_id.values():
            parent = by_id.get(row[PARENT_ID])
            if (
                parent is None
                or len(row) == ROW_WIDTH or len(parent) == ROW_WIDTH
            ):
                continue
            stats = self.paths[path_by_step[parent[PARENT_ID], parent[NAME]]]
            stats.wall_self -= row[WALL_END] - row[WALL_START]

    # -- queries -------------------------------------------------------------

    def total(self, path: str) -> float:
        stats = self.paths.get(path)
        return stats.total if stats is not None else 0.0

    def self_time(self, path: str) -> float:
        stats = self.paths.get(path)
        return stats.self_time if stats is not None else 0.0

    def attributed_fraction(self) -> float:
        """Share of root (sweep) time attributed to descendant paths.

        The remainder is root self time — orchestration between spans.
        A record with zero simulated duration attributes trivially.
        """
        if self.root_total == 0.0:
            return 1.0
        return 1.0 - self.root_self / self.root_total

    def by_stage(self) -> dict[str, PathStats]:
        """Aggregate paths by their leaf span name (the stage view)."""
        stages: dict[str, PathStats] = {}
        for path in sorted(self.paths):
            stats = self.paths[path]
            leaf = stages.setdefault(path.rsplit("/", 1)[-1], PathStats())
            leaf.count += stats.count
            leaf.total += stats.total
            leaf.self_time += stats.self_time
            leaf.wall_total += stats.wall_total
            leaf.wall_self += stats.wall_self
        return stages

    # -- exports -------------------------------------------------------------

    def to_dict(self) -> dict:
        """Canonical (SimClock-only) rollup — deterministic and diffable."""
        return {
            "root_total": round(self.root_total, 9),
            "attributed_fraction": round(self.attributed_fraction(), 6),
            "paths": {
                path: self.paths[path].to_dict() for path in sorted(self.paths)
            },
        }

    def wall_to_dict(self) -> dict[str, dict]:
        """The diagnostic wall-time book; empty without profiling armed."""
        if not self.has_wall:
            return {}
        return {
            path: {
                "total": round(self.paths[path].wall_total, 6),
                "self": round(self.paths[path].wall_self, 6),
            }
            for path in sorted(self.paths)
            if self.paths[path].wall_total
        }

    def table(self, title: str = "Span profile (SimClock seconds)") -> Table:
        table = Table(title, ("path", "count", "total", "self"))
        for path in sorted(self.paths):
            stats = self.paths[path]
            table.add_row(
                path, stats.count,
                f"{stats.total:.3f}", f"{stats.self_time:.3f}",
            )
        return table

    def render(self) -> str:
        return self.table().render()


@dataclass
class WallProfile:
    """Folded wall-time attribution for one (parallel or sequential) run.

    Filled by the engines on the main thread, from per-shard measurements
    taken in the workers; the numbers are real seconds and therefore
    *diagnostic only* — they never feed the canonical report, telemetry
    export, or checkpoint-equivalence guarantees.
    """

    #: wall seconds per shard index (whole-shard execution, setup included)
    shards: dict[int, float] = field(default_factory=dict)
    #: self wall seconds per span path, summed across shards
    path_self: dict[str, float] = field(default_factory=dict)
    #: total wall seconds per span path, summed across shards
    path_total: dict[str, float] = field(default_factory=dict)

    @property
    def armed(self) -> bool:
        return bool(self.shards or self.path_self)

    def note_shard(self, index: int, wall: dict) -> None:
        """Fold one shard result's ``wall`` block (main thread only)."""
        if "elapsed" in wall:
            self.shards[index] = self.shards.get(index, 0.0) + wall["elapsed"]
        for path, timings in wall.get("paths", {}).items():
            self.path_self[path] = (
                self.path_self.get(path, 0.0) + timings["self"]
            )
            self.path_total[path] = (
                self.path_total.get(path, 0.0) + timings["total"]
            )

    def note_rollup(self, rollup: ProfileRollup) -> None:
        """Fold a sequential run's own wall-annotated rollup."""
        for path, timings in rollup.wall_to_dict().items():
            self.path_self[path] = self.path_self.get(path, 0.0) + timings["self"]
            self.path_total[path] = (
                self.path_total.get(path, 0.0) + timings["total"]
            )

    def elapsed(self) -> float:
        """Summed shard wall seconds (CPU-time-like under threading)."""
        return sum(self.shards.values())

    def dominant_path(self) -> str | None:
        """The path with the most self wall time — where a regression lives."""
        if not self.path_self:
            return None
        return max(sorted(self.path_self), key=lambda p: self.path_self[p])

    def shard_summary(self, top: int = 5) -> dict:
        """Distribution of per-shard wall times plus the slowest ``top``.

        A 100M-address sweep shards into hundreds of /24 groups; dumping
        every shard's wall time made the profile dump scale with the frame.
        The distribution plus the worst offenders is what a regression
        hunt actually reads.
        """
        if not self.shards:
            return {"count": 0, "top": {}}
        walls = sorted(self.shards.values())
        count = len(walls)
        slowest = sorted(
            sorted(self.shards), key=lambda index: -self.shards[index]
        )[:top]
        return {
            "count": count,
            "min": round(walls[0], 6),
            "median": round(walls[count // 2], 6),
            "p95": round(walls[min(count - 1, int(count * 0.95))], 6),
            "max": round(walls[-1], 6),
            "top": {
                str(index): round(self.shards[index], 6) for index in slowest
            },
        }

    def to_dict(self, top: int | None = None) -> dict:
        ranked = sorted(
            sorted(self.path_self),
            key=lambda p: -self.path_self[p],
        )
        if top is not None:
            ranked = ranked[:top]
        return {
            "elapsed": round(self.elapsed(), 6),
            "shards": self.shard_summary(),
            "dominant_path": self.dominant_path(),
            "paths": {
                path: {
                    "self": round(self.path_self[path], 6),
                    "total": round(self.path_total.get(path, 0.0), 6),
                }
                for path in ranked
            },
        }
