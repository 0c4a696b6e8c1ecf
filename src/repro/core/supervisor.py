"""The supervised sweep runtime: deadlines, watchdogs, quarantine.

A sweep over the paper's ~3.5B addresses meets tarpits that hang
connections for an hour, middleboxes that answer every probe, and
services whose responses crash naive parsers.  Without supervision the
runtime has exactly two outcomes — "complete" or "crashed" — and one
pathological host can stall a shard forever.  This module adds the third
outcome real measurement infrastructure needs: **complete degraded**,
with an exact account of what was given up.

Supervision is a field of the shard runner, not a second engine: a
:class:`~repro.core.parallel.ShardRunner` carrying a
:class:`SupervisorConfig` hands each shard to :func:`run_supervised`,
and the sharded engine's fold replays what happened from the results.
The escalation ladder, every rung deterministic:

1. **retry** — the existing :class:`~repro.core.retry.RetryExecutor`
   handles transient transport faults (unchanged, but poison responses
   now bypass it entirely);
2. **restart** — a shard that dies with an exception is re-executed from
   scratch, at most ``max_shard_restarts`` times; shard seeds make the
   re-run bit-identical up to the point of failure;
3. **quarantine** — targets that keep producing poison responses or
   stalling the clock are pulled from the sweep (host first, the whole
   /24 after enough bad hosts), refused by every stage from then on;
4. **degrade** — a shard that exhausts its restarts is abandoned and its
   frame accounted unreachable; a shard that exhausts its deadline stops
   probing and accounts the remainder deadline-skipped.  The sweep still
   returns a report — partial, but with a
   :class:`~repro.core.coverage.CoverageReport` that reconciles exactly
   against it.

Determinism is load-bearing: deadlines are charged to each shard's
:class:`~repro.util.clock.SimClock` (every shard starts at zero, so a
sweep-wide deadline is a per-shard clock budget — the "all shards run
concurrently" fiction that makes the verdicts independent of worker
count), quarantine verdicts depend only on the deterministic fault
stream, and restart/abandon telemetry is emitted at fold time in
canonical shard order.  A hostile sweep is byte-identical across worker
counts and kill-and-resume, like every other run in this repo.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.net.ipv4 import BLOCK_MASK, IPv4Address
from repro.net.transport import TransportStats, transport_layers
from repro.obs.telemetry import Telemetry
from repro.util.clock import SimClock
from repro.util.errors import ShardCrash


@dataclass(frozen=True)
class SupervisorConfig:
    """How hard the supervisor pushes back against a hostile Internet.

    All durations are simulated seconds charged to shard-local clocks.
    The default config supervises without constraining: no deadlines,
    generous restart budget, quarantine only after repeated strikes.
    """

    #: sweep-wide clock budget; every shard conceptually starts at t=0,
    #: so this is charged per shard (None = no deadline)
    deadline: float | None = None
    #: per-probe watchdog: latency faults charge at most this much before
    #: the exchange times out (None = wait out the full injected latency)
    probe_deadline: float | None = 60.0
    #: restarts granted to a crashing shard before it is abandoned
    max_shard_restarts: int = 2
    #: poison/stall strikes before a host is quarantined
    quarantine_threshold: int = 2
    #: quarantined hosts in one /24 before the whole block is quarantined
    quarantine_block_threshold: int = 8
    #: one operation charging this much clock flags the shard as stalled
    stall_window: float = 600.0
    #: emit a progress heartbeat event every N scanned addresses
    heartbeat_every: int = 1024
    #: deterministic crash injection: ``(shard_index, crashes)`` pairs —
    #: shard ``shard_index`` raises ShardCrash on its first ``crashes``
    #: attempts (the test hook for the restart rung of the ladder)
    crash_shards: tuple[tuple[int, int], ...] = ()

    def __post_init__(self) -> None:
        for name in ("deadline", "probe_deadline", "stall_window"):
            value = getattr(self, name)
            if value is not None and value <= 0:
                raise ValueError(f"{name} must be positive, got {value}")
        if self.max_shard_restarts < 0:
            raise ValueError("max_shard_restarts must be non-negative")
        if self.quarantine_threshold < 1:
            raise ValueError("quarantine_threshold must be at least 1")
        if self.quarantine_block_threshold < 1:
            raise ValueError("quarantine_block_threshold must be at least 1")
        if self.heartbeat_every < 1:
            raise ValueError("heartbeat_every must be at least 1")
        for entry in self.crash_shards:
            index, crashes = entry
            if index < 0 or crashes < 1:
                raise ValueError(f"bad crash_shards entry: {entry}")


class Quarantine:
    """Strike ledger for poison targets.

    A host collects strikes (poison responses, stalls); at
    ``host_threshold`` strikes it is quarantined for the rest of the
    sweep — no half-open recovery, unlike a circuit breaker, because a
    poison body is a property of the target, not of the path to it.
    When ``block_threshold`` hosts of one /24 have been quarantined the
    whole block follows (the "middlebox answering for the whole prefix"
    case).
    """

    def __init__(self, host_threshold: int, block_threshold: int) -> None:
        self.host_threshold = host_threshold
        self.block_threshold = block_threshold
        #: quarantined host ip values
        self.hosts: set[int] = set()
        #: quarantined /24 network values
        self.blocks: set[int] = set()
        self._strikes: dict[int, int] = {}
        self._block_members: dict[int, set[int]] = {}

    def is_quarantined(self, value: int) -> bool:
        return value in self.hosts or (value & BLOCK_MASK) in self.blocks

    def strike(self, value: int) -> tuple[bool, bool]:
        """Record one strike; returns (host_newly, block_newly) flags."""
        if self.is_quarantined(value):
            return False, False
        strikes = self._strikes.get(value, 0) + 1
        self._strikes[value] = strikes
        if strikes < self.host_threshold:
            return False, False
        del self._strikes[value]
        self.hosts.add(value)
        block = value & BLOCK_MASK
        members = self._block_members.setdefault(block, set())
        members.add(value)
        if len(members) >= self.block_threshold and block not in self.blocks:
            self.blocks.add(block)
            return True, True
        return True, False


class ShardSupervision:
    """One shard's runtime guardian.

    Owned by a single shard attempt and wired (duck-typed) into that
    shard's retry executor and stage-I scanner.  Everything it decides —
    deadline stops, quarantine verdicts, stall flags — is a function of
    the shard-local clock and the deterministic fault stream, so
    supervision never breaks the byte-identity invariant.
    """

    def __init__(
        self,
        config: SupervisorConfig,
        clock: SimClock,
        planned: int,
        telemetry: Telemetry | None = None,
    ) -> None:
        self.config = config
        self.clock = clock
        #: addresses the shard was asked to sweep
        self.planned = planned
        self.telemetry = telemetry
        self.quarantine = Quarantine(
            config.quarantine_threshold, config.quarantine_block_threshold
        )
        self.deadline = config.deadline
        self.deadline_hit = False
        self.poison_events = 0
        self.stall_events = 0
        self.gate_skips_total = 0
        self._gate_skips_pending = 0
        self._last_activity = clock.now
        self._next_heartbeat = config.heartbeat_every

    # -- deadline ------------------------------------------------------------

    def should_stop(self) -> bool:
        """Has this shard's clock budget run out?"""
        if self.deadline is None or self.clock.now < self.deadline:
            return False
        self.deadline_hit = True
        return True

    # -- quarantine gate -----------------------------------------------------

    def is_quarantined(self, ip: IPv4Address) -> bool:
        return self.quarantine.is_quarantined(ip.value)

    def is_quarantined_value(self, value: int) -> bool:
        return self.quarantine.is_quarantined(value)

    def note_gate_skip(self, ip: IPv4Address) -> None:
        """Stage I refused to probe a quarantined address."""
        self.gate_skips_total += 1
        self._gate_skips_pending += 1
        self._count("supervisor_gate_skips_total")

    def drain_gate_skips(self) -> int:
        """Gate skips since the last drain (one batch's worth)."""
        pending = self._gate_skips_pending
        self._gate_skips_pending = 0
        return pending

    # -- incident intake -----------------------------------------------------

    def note_poison(self, ip: IPv4Address) -> None:
        """The executor classified a response from ``ip`` as poison."""
        self.poison_events += 1
        self._count("supervisor_poison_total")
        self._strike(ip, "poison")

    def note_activity(self, ip: IPv4Address) -> None:
        """Progress pulse from the executor, after every operation.

        A single operation that burns ``stall_window`` seconds of shard
        clock — a tarpit eating watchdog budgets and backoff across its
        retries — flags the shard as stalled and strikes the target that
        held it up.
        """
        elapsed = self.clock.now - self._last_activity
        self._last_activity = self.clock.now
        if elapsed < self.config.stall_window:
            return
        self.stall_events += 1
        self._count("supervisor_stall_total")
        if self.telemetry is not None:
            self.telemetry.events.warn(
                "supervisor", "stall", host=ip, elapsed=elapsed,
            )
        self._strike(ip, "stall")

    def heartbeat(self, completed: int) -> None:
        """Progress heartbeat, emitted every ``heartbeat_every`` addresses."""
        if completed < self._next_heartbeat:
            return
        while self._next_heartbeat <= completed:
            self._next_heartbeat += self.config.heartbeat_every
        if self.telemetry is not None:
            self.telemetry.events.info(
                "supervisor", "heartbeat",
                addresses=completed, planned=self.planned,
            )

    # -- internals -----------------------------------------------------------

    def _strike(self, ip: IPv4Address, reason: str) -> None:
        host_new, block_new = self.quarantine.strike(ip.value)
        if host_new:
            self._count("supervisor_quarantined_total", scope="host")
            if self.telemetry is not None:
                self.telemetry.events.warn(
                    "supervisor", "quarantine-host", host=ip, reason=reason,
                )
        if block_new:
            self._count("supervisor_quarantined_total", scope="slash24")
            if self.telemetry is not None:
                self.telemetry.events.warn(
                    "supervisor", "quarantine-block",
                    host=IPv4Address(ip.value & BLOCK_MASK), reason=reason,
                )

    def _count(self, name: str, **labels: object) -> None:
        if self.telemetry is not None:
            self.telemetry.metrics.counter(name, **labels).inc()


def run_supervised(runner, shard):
    """Run one shard under the restart rung of the ladder.

    ``runner`` is the :class:`~repro.core.parallel.ShardRunner` whose
    ``supervisor`` config asked for this.  Each attempt is a fresh
    private universe with the same seeds — a fresh
    :class:`ShardSupervision` on a fresh clock — so a retry after a
    mid-shard crash cannot diverge from what an uninterrupted attempt
    would have produced.  Only ``Exception`` triggers a restart: kill
    signals (``BaseException``) must keep propagating or checkpoint/kill
    tests would deadlock the ladder.
    """
    cfg = runner.supervisor
    last: Exception | None = None
    for attempt in range(cfg.max_shard_restarts + 1):
        try:
            if any(i == shard.index and attempt < n for i, n in cfg.crash_shards):
                raise ShardCrash(
                    f"injected crash: shard {shard.index} attempt {attempt}"
                )
            clock = SimClock()
            supervision = ShardSupervision(cfg, clock, len(shard.addresses))
            sub = runner.build_pipeline(shard, clock, supervision)
            _arm_watchdog(sub.transport, cfg.probe_deadline)
            supervision.telemetry = sub.telemetry
            report = sub.run(shard.addresses)
        except Exception as exc:
            last = exc
            continue
        return runner.result(
            sub, report, supervisor={"restarts": attempt, "abandoned": False}
        )
    return _abandoned_result(cfg, len(shard.addresses), last)


def _arm_watchdog(transport, probe_deadline: float | None) -> None:
    """Set the per-probe deadline on the first watchdog-capable layer
    of the (decorator) transport chain."""
    if probe_deadline is None:
        return
    for layer in transport_layers(transport):
        if hasattr(layer, "watchdog"):
            layer.watchdog = probe_deadline
            return


def _abandoned_result(cfg: SupervisorConfig, planned: int, error: Exception | None):
    """The degraded :class:`~repro.core.parallel.ShardResult` of a shard
    that exhausted its restarts: a stub report accounting the shard's
    whole frame as unreachable."""
    from repro.core.parallel import ShardResult
    from repro.core.pipeline import ScanReport

    report = ScanReport()
    report.coverage.charge("masscan", planned, 0, unreachable=planned)
    telemetry = Telemetry()
    telemetry.funnel("masscan", planned, 0)
    return ShardResult(
        report=report,
        telemetry=telemetry.snapshot_state(),
        transport_stats=TransportStats().to_dict(),
        addresses=0,
        supervisor={
            "restarts": cfg.max_shard_restarts,
            "abandoned": True,
            "error": f"{type(error).__name__}: {error}",
        },
    )


# -- fold (main thread) -------------------------------------------------------


def note_shard_supervision(events, index: int, meta: dict) -> None:
    """Emit one folded shard's supervision record, in canonical shard order.

    Restart and abandonment events are deliberately *not* emitted live
    from workers: replaying them from result metadata during the fold
    keeps the telemetry stream identical across worker counts and across
    kill-and-resume (where restarts that happened before the kill are
    folded from the checkpoint).
    """
    if meta["restarts"]:
        events.warn(
            "supervisor", "shard-restart",
            index=index, restarts=meta["restarts"],
        )
    if meta["abandoned"]:
        events.error(
            "supervisor", "shard-abandoned",
            index=index, error=meta.get("error"),
        )


def close_supervised_books(report, events, metas: list[dict]) -> None:
    """Close a supervised sweep's coverage account once every shard —
    ``metas`` holds each result's supervision record — is folded.

    A degraded report is only trustworthy if its books balance: every
    stage ledger must close and must add up to the report's own totals.
    Fail loudly here rather than ship bad accounting.
    """
    cov = report.coverage
    cov.shard_restarts += sum(meta["restarts"] for meta in metas)
    cov.shards_abandoned += sum(meta["abandoned"] for meta in metas)
    if cov.degraded:
        events.warn(
            "supervisor", "sweep-degraded",
            coverage=round(cov.coverage_fraction(), 6),
            quarantined_hosts=len(cov.quarantined_hosts),
            quarantined_blocks=len(cov.quarantined_blocks),
            shards_abandoned=cov.shards_abandoned,
            deadline_hits=cov.deadline_hits,
        )
    cov.verify()
    cov.reconcile(report)
