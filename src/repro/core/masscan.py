"""Stage I: masscan-style TCP port sweep.

Models what matters about masscan for this study:

* **target selection** — the IANA reserved allocations are excluded,
  leaving the ~3.5B scannable addresses;
* **randomised order** — the paper scans /24 blocks in random order so no
  network sees a request flood; we implement the same block-level shuffle
  and expose burst statistics so the ablation bench can quantify the
  difference against sequential order;
* **batching** — the full pipeline runs on a fraction of targets before
  the port scan continues, so later stages never probe long-gone hosts.

Against the simulator a literal sweep of 3.5B addresses would spend hours
probing addresses that are empty *by construction*, so the scanner takes
an explicit candidate frame (usually the populated addresses plus decoys);
the frame is still filtered, shuffled, and probed exactly like a real
sweep would be.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from collections import deque
from dataclasses import dataclass, field
from typing import Iterator, Sequence

from repro.core.retry import RetryExecutor
from repro.net.intervals import BLOCK_MASK, BLOCK_SIZE, FrameLike, IntervalSet, as_frame
from repro.net.ipv4 import IPv4Address
from repro.net.transport import Transport
from repro.obs.metrics import series_key
from repro.obs.telemetry import Telemetry
from repro.util.rand import shuffled


@dataclass
class PortScanResult:
    """Open ports discovered by stage I."""

    #: ip value -> sorted tuple of open ports
    open_ports: dict[int, tuple[int, ...]] = field(default_factory=dict)
    probes_sent: int = 0
    addresses_scanned: int = 0

    def hosts_with_open_ports(self) -> list[IPv4Address]:
        return [IPv4Address(value) for value in sorted(self.open_ports)]

    def ports_of(self, ip: IPv4Address) -> tuple[int, ...]:
        return self.open_ports.get(ip.value, ())

    def merge(self, other: "PortScanResult") -> None:
        self.open_ports.update(other.open_ports)
        self.probes_sent += other.probes_sent
        self.addresses_scanned += other.addresses_scanned


_PROBES = series_key("masscan_probes_total")
_ADDRESSES = series_key("masscan_addresses_total")
_OPEN_PORTS = series_key("masscan_open_ports_total")
_RESENDS = series_key("masscan_resends_total")


@dataclass
class Masscan:
    """Stage-I scanner."""

    transport: Transport
    ports: tuple[int, ...]
    rng: random.Random = field(default_factory=lambda: random.Random(0))
    exclude_reserved: bool = True
    randomise_order: bool = True
    #: when set, an apparently-closed port is re-sent up to the policy's
    #: ``max_attempts`` SYNs (a lost SYN/ACK is indistinguishable from a
    #: filtered port — real masscan re-sends too); only the policy is read
    retry: RetryExecutor | None = None
    #: when set, stage-I work is traced and counted
    telemetry: Telemetry | None = None
    #: shard supervision hook: quarantine gate + sweep deadline (duck-typed
    #: to keep this module free of supervisor imports)
    supervision: object | None = None

    def _plan_blocks(
        self, candidates: FrameLike
    ) -> tuple[IntervalSet, dict[int, int], list[int]]:
        """The sweep's block plan: ``(frame, counts, bases)``.

        ``frame`` is the candidates as an interval set with the reserved
        allocations cut out; ``counts`` maps every /24 base it touches to
        the block's size, so a dead or skipped block costs a dict hit and
        is never materialised; ``bases`` lists those blocks in sweep
        order — shuffled on :attr:`rng` when ``randomise_order`` is on,
        the shuffle being the RNG's only job.

        Inside a block the order is always ascending: every address of a
        /24 lands in the same network whatever its position, so a
        within-block shuffle buys no politeness.  The ascending order is
        what lets stage I add a block to a batch in one step.  Plan once
        per sweep: the shuffle consumes the RNG.
        """
        frame = as_frame(candidates, self.exclude_reserved)
        counts = frame.block_counts()
        bases = list(counts)
        if self.randomise_order:
            bases = shuffled(self.rng, bases)
        return frame, counts, bases

    def iter_target_order(self, candidates: FrameLike) -> Iterator[IPv4Address]:
        """The sweep's address order (see :meth:`_plan_blocks`), lazily:
        one block is materialised at a time, never the whole order."""
        frame, _counts, bases = self._plan_blocks(candidates)
        for base in bases:
            for value in frame.block_values(base):
                yield IPv4Address(value)

    def target_order(self, candidates: FrameLike) -> list[IPv4Address]:
        """The full sweep order as a list (see :meth:`iter_target_order`)."""
        return list(self.iter_target_order(candidates))

    def scan(self, candidates: FrameLike) -> PortScanResult:
        """Probe every candidate on every configured port."""
        result = PortScanResult()
        for batch in self.scan_in_batches(candidates, batch_size=2**62):
            result.merge(batch)
        return result

    def scan_in_batches(
        self,
        candidates: FrameLike,
        batch_size: int,
        skip: int = 0,
    ) -> Iterator[PortScanResult]:
        """Yield partial results every ``batch_size`` addresses.

        The pipeline consumes each batch with stages II/III before this
        generator resumes, mirroring the paper's interleaved execution.
        ``skip`` resumes a checkpointed sweep: the deterministic target
        order is recomputed and the first ``skip`` addresses — already
        scanned before the interruption — are not probed again.

        One walk over the block plan: a /24 adds its dead addresses (the
        ones the transport's liveness hint, ``live_values_in`` asked once
        over the frame's hull, rules out) to the batch as a count and the
        rest — every member for a backend that cannot hint — to its probe
        list, split only where a batch boundary or ``skip`` cuts it.  The
        flush asks the transport once (``probe_ports``), or under a retry
        policy re-sends port by port over the same list.  Nothing in stage
        I reads an answer or moves the clock or the quarantine ledger, so
        the packets and decisions are the ones asking host by host made,
        in the same order.

        A supervised sweep gates the list: a quarantined host is a gate
        skip, neither probed nor counted; the dead around it are dead.
        The deadline is read at the first member and, after each flush,
        at the next member if the batch ended on a probed host, else at
        the next host (or the end) once the dead run is finished; a
        deadline ends the sweep there.
        """
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        if skip < 0:
            raise ValueError("skip must be non-negative")
        frame, counts, bases = self._plan_blocks(candidates)
        hints = self._prefetch_hints(frame.runs)
        gate, telemetry = self.supervision, self.telemetry
        # The batch: its probe list, its members, the dead among them.
        values: list[int] = []
        scanned = dead = 0
        span = None
        # A supervised sweep's next deadline read: at "any" member, at the
        # next "host", None (read since the last flush), or "stop" (hit).
        owed = None if gate is None else "any"
        for base in bases:
            count = counts[base]
            if skip >= count:
                skip -= count
                continue
            # To probe, ascending: the hinted (the hints are cut to the
            # frame's runs, so members only), or every member.
            live: Sequence[int] = (
                hints.get(base, ()) if hints is not None
                else range(base, base + BLOCK_SIZE) if count == BLOCK_SIZE
                else frame.block_values(base)
            )
            if not skip and gate is None and scanned + count <= batch_size:
                # The whole block fits: one step, whatever its hosts.
                if span is None and telemetry is not None:
                    span = telemetry.tracer.start("stage:masscan")
                values += live
                dead += count - len(live)
                scanned += count
                if scanned == batch_size:
                    yield self._flush(span, values, scanned, dead)
                    values, scanned, dead, span = [], 0, 0, None
                continue
            live, offsets = self._after_skip(frame, base, count, live, skip)
            members, skip, at, i = count - skip, 0, 0, 0
            while at < members:
                limit = members
                if owed is not None:
                    ahead = offsets[i] if i < len(offsets) else members
                    if owed == "host" and ahead > at:
                        limit = ahead  # finish the dead run, then read
                    elif gate.should_stop():
                        owed = "stop"
                        break
                    else:
                        owed = None
                # The members up to the batch boundary: a gated host
                # moves the boundary one member on.
                room, j, gated, newly = batch_size - scanned, i, 0, 1
                while newly:
                    end = min(at + room + gated, limit)
                    k = bisect_left(offsets, end, j)
                    newly = 0
                    for value in live[j:k]:
                        if gate is not None and gate.is_quarantined_value(value):
                            gate.note_gate_skip(IPv4Address(value))
                            newly += 1
                        else:
                            values.append(value)
                    j = k
                    gated += newly
                if span is None and telemetry is not None and end - at > gated:
                    span = telemetry.tracer.start("stage:masscan")
                scanned += end - at - gated
                dead += end - at - (j - i)
                on_host = j > i and offsets[j - 1] == end - 1
                at, i = end, j
                if scanned == batch_size:
                    yield self._flush(span, values, scanned, dead)
                    values, scanned, dead, span = [], 0, 0, None
                    if gate is not None:
                        owed = "any" if on_host else "host"
            if owed == "stop":
                break
        if owed == "host":
            gate.should_stop()  # the read a final dead run still owes
        if scanned:
            yield self._flush(span, values, scanned, dead)

    @staticmethod
    def _after_skip(
        frame: IntervalSet, base: int, count: int, live: Sequence[int], skip: int
    ) -> tuple[Sequence[int], Sequence[int]]:
        """A split block's addresses to probe past its first ``skip``
        members, and each one's offset among the members left."""
        if len(live) == count:  # every member is probed: offsets are indexes
            live = live[skip:]
            return live, range(len(live))
        offsets = [frame.count_in(base, value - 1) - skip for value in live]
        first = bisect_left(offsets, 0)
        return live[first:], offsets[first:]

    def _flush(
        self, span, values: list[int], scanned: int, dead: int
    ) -> PortScanResult:
        """Close a batch of ``scanned`` addresses: ask the transport
        about ``values``, and account every address as ``len(ports)``
        probes and the ``dead`` ones' SYNs with nothing sent."""
        ports, transport = self.ports, self.transport
        attempts = 1 if self.retry is None else self.retry.policy.max_attempts
        result, resends = PortScanResult(), 0
        if attempts == 1:
            # One transport call answers the whole batch.
            result.open_ports = transport.probe_ports(values, ports)
        else:
            # Stage I is a stateless sender: a re-send is one more SYN,
            # never a wait on the target.  No executor, backoff, jitter
            # draw, breaker or clock is involved; the fault stream alone
            # sees each packet.  Host by host, port by port, up to
            # ``attempts`` SYNs each until the first SYN/ACK: ``sent``
            # ends as the re-sends.
            syn_probe = transport.syn_probe
            for value in values:
                ip, found = IPv4Address(value), []
                for port in ports:
                    for sent in range(attempts):
                        if syn_probe(ip, port):
                            found.append(port)
                            break
                    resends += sent
                if found:
                    result.open_ports[value] = tuple(sorted(found))
        # A dead address's packets are counted as a probed one's would
        # be — every attempt, as a closed port sends — and nothing else:
        # not the fault stream, not the re-sends.
        transport.stats.syn_probes += dead * len(ports) * attempts
        result.addresses_scanned = scanned
        result.probes_sent = scanned * len(ports)
        if span is None:
            return result
        span.attrs["addresses"] = scanned
        span.attrs["open_hosts"] = len(result.open_ports)
        self.telemetry.tracer.end(span)
        # Stage I's series move together (the open-ports one by zero for a
        # batch with no open port, as it always has; the re-sends one in
        # every batch of a retry sweep and in no other) and are tallied
        # per batch, from the batch's own totals: they land in ``pending``
        # here, never mid-batch, and always before the batch is yielded.
        metrics = self.telemetry.metrics
        pending = metrics.pending
        for key, amount in (
            (_ADDRESSES, scanned),
            (_PROBES, result.probes_sent),
            (_OPEN_PORTS, sum(map(len, result.open_ports.values()))),
        ):
            pending[key] = pending.get(key, 0) + amount
        if self.retry is not None:
            pending[_RESENDS] = pending.get(_RESENDS, 0) + resends
        # A batch flush is a publish point: pending counts never outgrow
        # a batch, whoever drives the generator.
        metrics.publish()
        return result

    def _prefetch_hints(
        self, runs: Sequence[tuple[int, int]]
    ) -> dict[int, list[int]] | None:
        """The frame's live members by /24, from one liveness query over
        the frame's hull: a block absent from the map is guaranteed dead.
        None for a backend that cannot know; every member is then probed.

        One walk of the sorted answer beside the runs; hosts between two
        runs are skipped in one bisection, so a sparse frame in a dense
        world pays per run, not per host of its hull.
        """
        if not runs:
            return {}
        values = self.transport.live_values_in(runs[0][0], runs[-1][1])
        if values is None:
            return None
        hints: dict[int, list[int]] = {}
        index, size = 0, len(values)
        for start, end in runs:
            if index < size and values[index] < start:
                index = bisect_left(values, start, index)
            while index < size and values[index] <= end:
                value = values[index]
                hints.setdefault(value & BLOCK_MASK, []).append(value)
                index += 1
        return hints


def burst_profile(order: Sequence[IPv4Address], window: int = 256) -> dict[int, int]:
    """Max probes landing in any single /24 within a sliding window.

    Politeness metric for the scan-order ablation: for each /24, the peak
    number of its addresses hit within ``window`` consecutive probes.
    Sequential order maxes this out; randomised order keeps it near one.
    """
    peaks: dict[int, int] = {}
    window_counts: dict[int, int] = {}
    queue: deque[int] = deque(maxlen=window)
    for ip in order:
        block = ip.value & BLOCK_MASK
        if len(queue) == window:
            # queue[0] is about to be evicted by the bounded append.
            window_counts[queue[0]] -= 1
        queue.append(block)
        window_counts[block] = window_counts.get(block, 0) + 1
        peaks[block] = max(peaks.get(block, 0), window_counts[block])
    return peaks
