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
from bisect import bisect_left, bisect_right
from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

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

    def record(self, ip: IPv4Address, ports: Sequence[int]) -> None:
        if ports:
            self.open_ports[ip.value] = tuple(sorted(ports))

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
        within-block shuffle buys no politeness — the block-level
        shuffle alone spreads consecutive probes across unrelated
        networks.  The ascending order is what lets stage I account the
        dead gap between two live hosts in one step instead of one per
        address.
        """
        frame = as_frame(candidates, self.exclude_reserved)
        counts = frame.block_counts()
        bases = list(counts)
        if self.randomise_order:
            bases = shuffled(self.rng, bases)
        return frame, counts, bases

    def iter_target_order(self, candidates: FrameLike) -> Iterator[IPv4Address]:
        """Filter reserved ranges and order targets for the sweep, lazily.

        With randomisation on, /24 blocks are shuffled so consecutive
        probes land in unrelated networks (the paper's politeness
        measure); each block is probed in ascending order (see
        :meth:`_plan_blocks`).  Only one block is materialised beyond the
        block index itself, so resuming deep into a multi-million-address
        sweep does not copy the whole order.
        """
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

        Runs of addresses the transport's liveness hint (see
        ``Transport.live_values_in``) rules out are accounted in bulk —
        same probes, counters and batch boundaries as probing them one by
        one, nothing sent.  A /24 with no live candidate is never
        materialised at all.
        """
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        if skip < 0:
            raise ValueError("skip must be non-negative")
        ops = self._ops(candidates, skip)
        if self.supervision is not None:
            ops = self._gated(ops)
        ports, telemetry = self.ports, self.telemetry
        attempts = 1 if self.retry is None else self.retry.policy.max_attempts
        probe_ports, syn_probe = self.transport.probe_ports, self.transport.syn_probe
        # Stage I is a stateless sender: a re-send is one more SYN, never a
        # wait on the target.  No executor, backoff, jitter draw, breaker or
        # clock is involved; the fault stream alone sees each packet.  A
        # dead address's packets are counted in ``syn_probes`` as a probed
        # one's would be — every attempt, as a closed port sends — once per
        # batch, and nothing else: not the fault stream, not the re-sends.
        dead_syns = len(ports) * attempts
        result, scanned, dead, resends, span = PortScanResult(), 0, 0, 0, None
        # One consumer for every mode: an op is a ``gap`` of dead addresses
        # to account in bulk, then (unless None) one address to probe; a
        # full batch flushes wherever inside the op it fills up.
        for gap, value in ops:
            while gap:
                if span is None and telemetry is not None:
                    # Lazy: only a batch that scans at least one address
                    # opens a span, so resumed sweeps trace identically.
                    span = telemetry.tracer.start("stage:masscan")
                take = min(gap, batch_size - scanned)
                scanned += take
                dead += take
                gap -= take
                if scanned >= batch_size:
                    yield self._close_batch(
                        span, result, scanned, dead * dead_syns, resends
                    )
                    result, scanned, dead, resends, span = (
                        PortScanResult(), 0, 0, 0, None
                    )
            if value is None:
                continue
            if span is None and telemetry is not None:
                span = telemetry.tracer.start("stage:masscan")
            ip = IPv4Address(value)
            if attempts == 1:
                # One transport call answers all twelve ports.
                open_ports = probe_ports(ip, ports)
            else:
                # Port by port, up to ``attempts`` SYNs each, until the
                # first SYN/ACK: ``sent`` ends as the re-sends.
                open_ports = []
                for port in ports:
                    for sent in range(attempts):
                        if syn_probe(ip, port):
                            open_ports.append(port)
                            break
                    resends += sent
            scanned += 1
            if open_ports:
                result.open_ports[value] = tuple(sorted(open_ports))
            if scanned >= batch_size:
                yield self._close_batch(
                    span, result, scanned, dead * dead_syns, resends
                )
                result, scanned, dead, resends, span = (
                    PortScanResult(), 0, 0, 0, None
                )
        if scanned:
            yield self._close_batch(span, result, scanned, dead * dead_syns, resends)

    def _ops(
        self, candidates: FrameLike, skip: int
    ) -> Iterator[tuple[int, int | None]]:
        """The sweep as ``(dead gap, live value)`` ops, after ``skip``.

        Each op is the run of guaranteed-dead addresses before a hinted
        host, then that host; a backend that cannot hint degenerates to
        one ``(0, value)`` op per address.  Dead gaps accumulate
        across blocks and ride on the next live op (or one trailing
        ``(gap, None)``): nothing advances the clock or touches a result
        between a dead run and its flush, so deferral is observationally
        identical while a sparse frame collapses to a few ops per batch
        instead of one per dead /24.
        """
        frame, counts, bases = self._plan_blocks(candidates)
        hints = self._prefetch_hints(frame.runs)
        pending_dead = 0
        for base in bases:
            # Don't materialise yet: a dead or skipped block needs only
            # its size, and dead blocks are the bulk of a sparse frame.
            count = counts[base]
            if skip >= count:
                skip -= count
                continue
            # The addresses to probe: the hinted ones, or without hints
            # every member.  Hints come from queries over the frame's own
            # runs, so they are members too.
            live: Sequence[int] = (
                range(base, base + BLOCK_SIZE) if hints is None
                else hints.get(base, ())
            )
            if not live:
                pending_dead += count - skip
                skip = 0
                continue
            if len(live) == count:
                # As many to probe as members: they *are* the block.
                for value in live[skip:]:
                    yield pending_dead, value
                    pending_dead = 0
                skip = 0
                continue
            # Inside a run the members are the range itself, so the dead
            # stretch before each hinted host is ``value - cursor``: no
            # member list, no set, no per-address walk.  A whole /24 is one
            # run, with no lookup of its runs.  Hint values are ascending
            # (transport contract) and the hint is one-sided, so a "live"
            # value may still probe dead; it is probed either way.
            last = base | (BLOCK_SIZE - 1)
            runs = (
                ((base, last),) if count == BLOCK_SIZE
                else frame.runs_in(base, last)
            )
            for start, end in runs:
                if skip > end - start:
                    skip -= end - start + 1
                    continue
                cursor = start + skip
                skip = 0
                for value in live[bisect_left(live, cursor):bisect_right(live, end)]:
                    yield pending_dead + value - cursor, value
                    pending_dead = 0
                    cursor = value + 1
                pending_dead += end - cursor + 1
        if pending_dead:
            yield pending_dead, None

    def _gated(
        self, ops: Iterable[tuple[int, int | None]]
    ) -> Iterator[tuple[int, int | None]]:
        """The supervised sweep's gate, as a lazy filter on the op stream.

        A batch can flush inside a dead gap, so a gap and its host pass as
        two ops: the consumer pulls the second only after finishing the
        first, and the deadline and the quarantine ledger are read after
        whatever stages II/III did in between.  Only a host that may
        answer is refused (a gate skip); the dead around it are dead,
        quarantined /24 or not.  On the deadline the stream simply ends:
        the consumer flushes what it has and the pipeline accounts the
        un-probed remainder as deadline-skipped coverage.
        """
        supervision = self.supervision
        for gap, host in ops:
            for dead, value in ((gap, None), (0, host)):
                if supervision.should_stop():
                    return
                if value is not None and supervision.is_quarantined_value(value):
                    supervision.note_gate_skip(IPv4Address(value))
                else:
                    yield dead, value

    def _close_batch(
        self, span, result: PortScanResult, scanned: int, dead_syns: int,
        resends: int,
    ) -> PortScanResult:
        """Close a batch of ``scanned`` addresses: every one of them is
        ``len(ports)`` probes, probed or accounted dead; the dead ones sent
        ``dead_syns`` SYNs, and under a retry policy the probed ones took
        ``resends`` more."""
        self.transport.stats.syn_probes += dead_syns
        result.addresses_scanned = scanned
        result.probes_sent = scanned * len(self.ports)
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
        """One liveness query per frame run instead of one per /24.

        The hint sweep walks the frame's runs directly and groups the
        (few) live values by block — a block absent from the map is
        guaranteed dead.  Returns None for a backend that cannot know;
        the sweep is then per-address.
        """
        hints: dict[int, list[int]] = {}
        for start, end in runs:
            values = self.transport.live_values_in(start, end)
            if values is None:
                return None
            for value in values:
                hints.setdefault(value & BLOCK_MASK, []).append(value)
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
