"""Interval-compressed address populations.

The paper's longevity study re-scans the same 100M-address frame every
three hours for four weeks.  A frame that size cannot be a Python list of
per-address objects: at ~100 bytes per address the population alone would
need tens of gigabytes before the first probe is sent.  This module
stores a population as sorted disjoint inclusive ``(start, end)`` runs
over raw 32-bit address integers — a frame is then proportional to the
number of *runs*, not the number of addresses, and stage I can skip a
dead run in one step instead of probing it host by host.

:class:`IntervalSet` is the algebra (union / intersect / difference /
membership / ordered iteration); :class:`CompressedPopulation` binds a
frame to a :class:`~repro.net.network.SimulatedInternet` so host state is
attached lazily, only for the handful of addresses that are actually
populated.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, Sequence

from repro.net.ipv4 import (
    BLOCK_MASK,
    MAX_IPV4,
    IPv4Address,
    _RESERVED_ENDS,
    _RESERVED_STARTS,
)
from repro.net.network import SimulatedInternet
from repro.util.rand import stable_hash

BLOCK_SIZE = 256


class IntervalSet:
    """An immutable set of IPv4 addresses stored as disjoint inclusive runs.

    Runs are kept sorted, non-overlapping, and non-adjacent (touching
    runs are merged on construction), so every set of addresses has
    exactly one representation and ``==`` compares populations.
    """

    __slots__ = ("_runs", "_starts", "_count")

    def __init__(self, runs: Iterable[tuple[int, int]] = ()) -> None:
        self._seat(_normalise(runs))

    def _seat(self, runs: tuple[tuple[int, int], ...]) -> None:
        self._runs: tuple[tuple[int, int], ...] = runs
        self._starts: tuple[int, ...] = tuple(start for start, _ in runs)
        self._count: int = sum(end - start + 1 for start, end in runs)

    @classmethod
    def _trusted(cls, runs: Iterable[tuple[int, int]]) -> "IntervalSet":
        """A set over runs already sorted, disjoint and non-adjacent — what
        the algebra's own walks over valid sets produce — not re-checked."""
        self = cls.__new__(cls)
        self._seat(tuple(runs))
        return self

    # -- constructors --------------------------------------------------

    @classmethod
    def from_values(cls, values: Iterable[int | IPv4Address]) -> "IntervalSet":
        """Compress individual addresses (ints or IPv4Address) into runs."""
        ints = sorted(
            {v.value if isinstance(v, IPv4Address) else int(v) for v in values}
        )
        runs: list[tuple[int, int]] = []
        for value in ints:
            if runs and value == runs[-1][1] + 1:
                runs[-1] = (runs[-1][0], value)
            else:
                runs.append((value, value))
        return cls(runs)

    # -- algebra -------------------------------------------------------

    def union(self, other: "IntervalSet") -> "IntervalSet":
        return IntervalSet(self._runs + other._runs)

    def intersect(self, other: "IntervalSet") -> "IntervalSet":
        out: list[tuple[int, int]] = []
        a, b = self._runs, other._runs
        i = j = 0
        while i < len(a) and j < len(b):
            start = max(a[i][0], b[j][0])
            end = min(a[i][1], b[j][1])
            if start <= end:
                out.append((start, end))
            if a[i][1] < b[j][1]:
                i += 1
            else:
                j += 1
        return IntervalSet._trusted(out)

    def difference(self, other: "IntervalSet") -> "IntervalSet":
        """The members not in ``other``; ``self`` itself when no hole of
        ``other`` meets a run, which one bisection per hole decides."""
        holes, runs = other._runs, self._runs
        for hole_start, hole_end in holes:
            index = bisect_right(self._starts, hole_end) - 1
            if index >= 0 and runs[index][1] >= hole_start:
                break
        else:
            return self
        out: list[tuple[int, int]] = []
        j = 0
        for start, end in self._runs:
            cursor = start
            while j < len(holes) and holes[j][1] < cursor:
                j += 1
            k = j
            while k < len(holes) and holes[k][0] <= end:
                hole_start, hole_end = holes[k]
                if hole_start > cursor:
                    out.append((cursor, hole_start - 1))
                cursor = max(cursor, hole_end + 1)
                if cursor > end:
                    break
                k += 1
            if cursor <= end:
                out.append((cursor, end))
        return IntervalSet._trusted(out)

    # -- queries -------------------------------------------------------

    def __contains__(self, value: int | IPv4Address) -> bool:
        v = value.value if isinstance(value, IPv4Address) else int(value)
        index = bisect_right(self._starts, v) - 1
        return index >= 0 and v <= self._runs[index][1]

    def __len__(self) -> int:
        return self._count

    @property
    def address_count(self) -> int:
        return self._count

    @property
    def runs(self) -> tuple[tuple[int, int], ...]:
        return self._runs

    def __bool__(self) -> bool:
        return bool(self._runs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IntervalSet):
            return NotImplemented
        return self._runs == other._runs

    def __hash__(self) -> int:
        return hash(self._runs)

    def __reduce__(self):
        # pickle as the runs alone: a multi-million-address frame crosses
        # a process boundary in a handful of pairs, whoever holds it
        return IntervalSet, (self._runs,)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"IntervalSet({self._count} addresses, {len(self._runs)} runs)"

    # -- iteration -----------------------------------------------------

    def iter_values(self) -> Iterator[int]:
        """All member addresses as raw ints, ascending."""
        for start, end in self._runs:
            yield from range(start, end + 1)

    def __iter__(self) -> Iterator[IPv4Address]:
        for value in self.iter_values():
            yield IPv4Address(value)

    def runs_in(self, start: int, end: int) -> list[tuple[int, int]]:
        """The runs overlapping ``[start, end]``, clipped to it.

        Both ends are found by bisection and only the piece is copied: a
        slice of the whole tail, or a walk from run 0, would make a pass
        over a frame of single-address runs quadratic.
        """
        first = bisect_right(self._starts, start) - 1
        if first < 0 or self._runs[first][1] < start:
            first += 1
        piece = list(self._runs[first:bisect_right(self._starts, end)])
        if piece:
            piece[0] = (max(piece[0][0], start), piece[0][1])
            piece[-1] = (piece[-1][0], min(piece[-1][1], end))
        return piece

    def values_in(self, start: int, end: int) -> list[int]:
        """Member addresses within the inclusive ``[start, end]`` range."""
        out: list[int] = []
        for lo, hi in self.runs_in(start, end):
            out.extend(range(lo, hi + 1))
        return out

    def count_in(self, start: int, end: int) -> int:
        """How many member addresses fall within ``[start, end]``."""
        return sum(hi - lo + 1 for lo, hi in self.runs_in(start, end))

    def clip(self, start: int, end: int) -> "IntervalSet":
        """The members within ``[start, end]`` (``start <= end``) as a new set.

        Equal to ``intersect(IntervalSet([(start, end)]))`` but found by
        bisection instead of a walk from run 0, so cutting a frame into
        many consecutive pieces stays linear in the frame.
        """
        return IntervalSet._trusted(self.runs_in(start, end))

    # -- /24 block views -----------------------------------------------

    def block_bases(self) -> list[int]:
        """Bases of every /24 block the set touches, ascending."""
        bases: list[int] = []
        for start, end in self._runs:
            base = start & BLOCK_MASK
            last = end & BLOCK_MASK
            if bases and base == bases[-1]:
                base += BLOCK_SIZE
            while base <= last:
                bases.append(base)
                base += BLOCK_SIZE
        return bases

    def block_values(self, base: int) -> list[int]:
        """Member addresses inside the /24 block at ``base``."""
        return self.values_in(base, base | (BLOCK_SIZE - 1))

    def block_counts(self) -> dict[int, int]:
        """Member count per /24 block base, ascending insertion order.

        One walk over the runs, so a sweep planner gets every block's
        size without a range query (or a materialised list) per block.
        """
        counts: dict[int, int] = {}
        for start, end in self._runs:
            first = start & BLOCK_MASK
            last = end & BLOCK_MASK
            if first == last:
                counts[first] = counts.get(first, 0) + (end - start + 1)
                continue
            counts[first] = counts.get(first, 0) + (first + BLOCK_SIZE - start)
            # Interior blocks are fully covered, and runs are disjoint, so
            # no other run can touch them: plain stores, no lookups.
            for base in range(first + BLOCK_SIZE, last, BLOCK_SIZE):
                counts[base] = BLOCK_SIZE
            counts[last] = counts.get(last, 0) + (end - last + 1)
        return counts

    # -- slicing -------------------------------------------------------

    def take(self, count: int) -> "IntervalSet":
        """The lowest ``count`` member addresses as a new set."""
        if count <= 0:
            return IntervalSet()
        out: list[tuple[int, int]] = []
        remaining = count
        for start, end in self._runs:
            size = end - start + 1
            if size >= remaining:
                out.append((start, start + remaining - 1))
                remaining = 0
                break
            out.append((start, end))
            remaining -= size
        return IntervalSet._trusted(out)

    # -- serialisation -------------------------------------------------

    def to_dict(self) -> dict:
        return {"runs": [[start, end] for start, end in self._runs]}

    @classmethod
    def from_dict(cls, payload: dict) -> "IntervalSet":
        return cls((int(start), int(end)) for start, end in payload["runs"])


def _normalise(runs: Iterable[tuple[int, int]]) -> tuple[tuple[int, int], ...]:
    cleaned = []
    for start, end in runs:
        start, end = int(start), int(end)
        if start > end:
            raise ValueError(f"interval start {start} exceeds end {end}")
        if start < 0 or end > MAX_IPV4:
            raise ValueError(f"interval [{start}, {end}] outside IPv4 space")
        cleaned.append((start, end))
    cleaned.sort()
    merged: list[tuple[int, int]] = []
    for start, end in cleaned:
        if merged and start <= merged[-1][1] + 1:
            merged[-1] = (merged[-1][0], max(merged[-1][1], end))
        else:
            merged.append((start, end))
    return tuple(merged)


@lru_cache(maxsize=1)
def reserved_intervals() -> IntervalSet:
    """The RFC-reserved address space as an interval set (cached)."""
    return IntervalSet(zip(_RESERVED_STARTS, _RESERVED_ENDS))


#: what a caller may hand the sweep as its candidate frame: individual
#: addresses (a list or a one-shot iterator) or an interval set
FrameLike = Iterable[int | IPv4Address] | IntervalSet


def as_frame(candidates: FrameLike, exclude_reserved: bool) -> IntervalSet:
    """The one frame representation the sweep knows, from whatever it is given.

    Callers hand stage I and the shard planner a list, a one-shot
    iterator or an interval set; this is the only place that difference
    is visible.  Individual addresses are compressed into runs (so a
    frame is a *set*: an address named twice is scanned once), and with
    ``exclude_reserved`` the IANA reserved allocations are cut out in one
    interval difference instead of a test per address.
    """
    frame = (
        candidates if isinstance(candidates, IntervalSet)
        else IntervalSet.from_values(candidates)
    )
    if exclude_reserved:
        frame = frame.difference(reserved_intervals())
    return frame


@dataclass(frozen=True)
class CompressedPopulation:
    """A scan frame bound to the simulated internet that backs it.

    The frame is pure intervals; host state is *not* stored here.  Stage
    I resolves liveness through the transport's
    ``live_values_in`` hint and only the populated addresses ever touch a
    :class:`~repro.net.host.Host` object — a 100M-address frame with ten
    thousand live hosts allocates ten thousand host records, not 100M.
    """

    internet: SimulatedInternet
    frame: IntervalSet

    @classmethod
    def build(
        cls,
        internet: SimulatedInternet,
        target_addresses: int,
        seed: int = 0,
    ) -> "CompressedPopulation":
        """Frame every populated /24 plus dead filler up to the target size.

        Filler runs come from unreserved, unpopulated space starting at a
        seed-derived offset, so two builds with the same world and seed
        produce the identical frame.
        """
        populated = IntervalSet.from_values(internet.populated_addresses())
        frame = IntervalSet(
            (base, base | (BLOCK_SIZE - 1)) for base in populated.block_bases()
        )
        needed = target_addresses - len(frame)
        if needed > 0:
            pool = (
                IntervalSet([(0, MAX_IPV4)])
                .difference(reserved_intervals())
                .difference(frame)
            )
            offset = stable_hash(seed, "frame-offset") % (MAX_IPV4 + 1)
            upper = pool.clip(offset, MAX_IPV4)
            filler = upper.take(needed)
            short = needed - len(filler)
            if short > 0 and offset > 0:
                lower = pool.clip(0, offset - 1)
                filler = filler.union(lower.take(short))
            frame = frame.union(filler)
        return cls(internet=internet, frame=frame)

    @property
    def address_count(self) -> int:
        return len(self.frame)

    def live_values(self) -> list[int]:
        """Populated addresses inside the frame, ascending."""
        values: Sequence[int] = sorted(
            ip.value for ip in self.internet.populated_addresses()
        )
        return [v for v in values if v in self.frame]
