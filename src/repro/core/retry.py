"""Retry with backoff, circuit breaking, and retry accounting.

The paper concedes its results are a lower bound because transiently
unavailable hosts are lost (§6.2); today one dropped request loses the
host forever.  This module supplies the failure-handling machinery real
large-scale HTTP clients ship:

* :class:`RetryPolicy` — how often to retry and how long to wait:
  bounded attempts, exponential backoff with *seeded* jitter (runs stay
  deterministic), a per-host retry budget, and an optional per-operation
  deadline;
* :class:`CircuitBreaker` — per-host and per-/24 circuits that stop
  hammering targets that keep failing, with half-open recovery probes;
* :class:`RetryExecutor` — applies a policy to transport operations,
  charging backoff delays to a :class:`~repro.util.clock.SimClock` and
  recording everything in :class:`RetryStats`, which the pipeline
  surfaces on its :class:`~repro.core.pipeline.ScanReport`.

Stages II and III thread their transport operations through one shared
executor, so retries, budgets, and breaker state are coherent across
stage II probing, stage III plugin requests, and the fingerprint
crawler: an HTTP retry to a live server does wait.  Stage I does not
enter the executor.  It is a stateless SYN sender, and a re-send there
is one more packet (see :meth:`~repro.core.masscan.Masscan.scan_in_batches`);
only the policy's ``max_attempts`` reaches it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, fields
from typing import Callable, TypeVar

from repro.net.ipv4 import BLOCK_MASK, IPv4Address
from repro.obs.telemetry import Telemetry
from repro.util.clock import SimClock
from repro.util.errors import (
    CircuitOpen,
    PoisonError,
    QuarantineSkip,
    TransportError,
)
from repro.util.rand import rng_state_from_json, rng_state_to_json

T = TypeVar("T")


@dataclass(frozen=True)
class RetryPolicy:
    """How a transport operation is retried."""

    #: total tries including the first (1 = no retries)
    max_attempts: int = 3
    #: delay before the first retry, in simulated seconds
    base_delay: float = 1.0
    #: backoff cap, in simulated seconds
    max_delay: float = 60.0
    #: multiplier between consecutive delays
    exponential_base: float = 2.0
    #: draw the delay uniformly from [delay/2, delay] (seeded upstream)
    jitter: bool = True
    #: total retries allowed per host across the whole sweep (None = unbounded)
    per_host_budget: int | None = 64
    #: give up when cumulative backoff would exceed this (None = unbounded)
    deadline: float | None = None

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        if self.base_delay < 0 or self.max_delay < self.base_delay:
            raise ValueError("need 0 <= base_delay <= max_delay")
        if self.exponential_base < 1.0:
            raise ValueError("exponential_base must be >= 1")
        if self.per_host_budget is not None and self.per_host_budget < 0:
            raise ValueError("per_host_budget must be non-negative")
        if self.deadline is not None and self.deadline <= 0:
            raise ValueError("deadline must be positive")

    def backoff_delay(self, attempt: int, rng: random.Random) -> float:
        """Delay before retry number ``attempt + 1`` (0-based attempts)."""
        delay = min(
            self.base_delay * self.exponential_base ** attempt, self.max_delay
        )
        if self.jitter:
            delay *= 0.5 + rng.random() * 0.5
        return delay


@dataclass
class RetryStats:
    """What the resilience layer did during one sweep's stages II and III.

    Stage-I re-sends are packets, not operations: they are counted in the
    ``masscan_resends_total`` series and in the transport's ``syn_probes``.
    """

    #: transport operations that entered the executor
    operations: int = 0
    #: individual tries, including each operation's first
    attempts: int = 0
    #: tries beyond the first
    retries: int = 0
    #: operations that failed at least once, then succeeded
    recovered: int = 0
    #: operations that failed on their final allowed attempt
    exhausted: int = 0
    #: operations skipped because a circuit was open
    breaker_skips: int = 0
    #: retries denied by the per-host budget
    budget_denials: int = 0
    #: retries denied because backoff would blow the deadline
    deadline_denials: int = 0
    #: operations that raised a non-transport (poison) error — never retried
    poisoned: int = 0
    #: operations refused because the target is quarantined
    quarantine_skips: int = 0
    #: cumulative backoff charged to the clock, simulated seconds
    backoff_seconds: float = 0.0

    def merge(self, other: "RetryStats") -> None:
        for f in fields(self):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))

    def copy(self) -> "RetryStats":
        return RetryStats(**{f.name: getattr(self, f.name) for f in fields(self)})

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, payload: dict) -> "RetryStats":
        known = {f.name for f in fields(cls)}
        return cls(**{k: v for k, v in payload.items() if k in known})


class CircuitBreaker:
    """Per-host and per-/24 failure circuits.

    After ``failure_threshold`` consecutive failures against one host (or
    ``slash24_threshold`` against one /24 with no intervening success)
    the circuit *opens*: operations are refused without touching the wire
    for ``cooldown`` seconds.  After the cooldown the circuit goes
    *half-open* — one trial operation is let through; success closes the
    circuit, failure re-opens it immediately.

    Time comes from a :class:`~repro.util.clock.SimClock` when one is
    given; otherwise an internal event counter stands in, so the breaker
    still recovers in long clock-less runs.
    """

    def __init__(
        self,
        failure_threshold: int = 5,
        slash24_threshold: int = 64,
        cooldown: float = 300.0,
        clock: SimClock | None = None,
        telemetry: Telemetry | None = None,
    ) -> None:
        if failure_threshold < 1 or slash24_threshold < 1:
            raise ValueError("thresholds must be at least 1")
        if cooldown <= 0:
            raise ValueError("cooldown must be positive")
        self.failure_threshold = failure_threshold
        self.slash24_threshold = slash24_threshold
        self.cooldown = cooldown
        self.clock = clock
        self.telemetry = telemetry
        self._ticks = 0
        self._host_failures: dict[int, int] = {}
        self._host_open_until: dict[int, float] = {}
        self._block_failures: dict[int, int] = {}
        self._block_open_until: dict[int, float] = {}
        #: circuits opened over the breaker's lifetime (hosts + blocks)
        self.opened = 0

    def _now(self) -> float:
        return self.clock.now if self.clock is not None else float(self._ticks)

    def _allow_one(
        self, key: int, open_until: dict[int, float], failures: dict[int, int],
        threshold: int,
    ) -> bool:
        deadline = open_until.get(key)
        if deadline is None:
            return True
        if self._now() < deadline:
            return False
        # Half-open: admit one trial; the next failure re-opens at once.
        del open_until[key]
        failures[key] = threshold - 1
        return True

    def allow(self, ip: IPv4Address) -> bool:
        """May the executor touch ``ip`` right now?"""
        block_ok = self._allow_one(
            ip.value & BLOCK_MASK, self._block_open_until,
            self._block_failures, self.slash24_threshold,
        )
        host_ok = self._allow_one(
            ip.value, self._host_open_until,
            self._host_failures, self.failure_threshold,
        )
        return block_ok and host_ok

    def record_success(self, ip: IPv4Address) -> None:
        self._ticks += 1
        self._host_failures.pop(ip.value, None)
        self._block_failures.pop(ip.value & BLOCK_MASK, None)

    def record_failure(self, ip: IPv4Address) -> None:
        self._ticks += 1
        host = ip.value
        block = ip.value & BLOCK_MASK
        self._host_failures[host] = self._host_failures.get(host, 0) + 1
        if self._host_failures[host] >= self.failure_threshold:
            self._host_open_until[host] = self._now() + self.cooldown
            self._host_failures.pop(host, None)
            self.opened += 1
            self._note_opened("host", ip)
        self._block_failures[block] = self._block_failures.get(block, 0) + 1
        if self._block_failures[block] >= self.slash24_threshold:
            self._block_open_until[block] = self._now() + self.cooldown
            self._block_failures.pop(block, None)
            self.opened += 1
            self._note_opened("slash24", IPv4Address(block))

    def _note_opened(self, scope: str, target: IPv4Address) -> None:
        if self.telemetry is None:
            return
        self.telemetry.metrics.counter("circuit_opened_total", scope=scope).inc()
        self.telemetry.events.warn(
            "retry", "circuit-open", host=target,
            scope=scope, cooldown=self.cooldown,
        )

    def open_circuits(self) -> int:
        """Circuits currently open (hosts + /24 blocks)."""
        now = self._now()
        return sum(
            1
            for table in (self._host_open_until, self._block_open_until)
            for deadline in table.values()
            if deadline > now
        )

    # -- checkpoint support ------------------------------------------------

    def snapshot_state(self) -> dict:
        return {
            "ticks": self._ticks,
            "opened": self.opened,
            "host_failures": dict(self._host_failures),
            "host_open_until": dict(self._host_open_until),
            "block_failures": dict(self._block_failures),
            "block_open_until": dict(self._block_open_until),
        }

    def restore_state(self, state: dict) -> None:
        self._ticks = state["ticks"]
        self.opened = state["opened"]
        self._host_failures = {int(k): v for k, v in state["host_failures"].items()}
        self._host_open_until = {
            int(k): v for k, v in state["host_open_until"].items()
        }
        self._block_failures = {
            int(k): v for k, v in state["block_failures"].items()
        }
        self._block_open_until = {
            int(k): v for k, v in state["block_open_until"].items()
        }


class RetryExecutor:
    """Runs transport operations under a policy, breaker, and stats block.

    One executor is shared by stages II and III.  Its entry point,
    :meth:`call`, runs operations that raise
    :class:`~repro.util.errors.TransportError` on failure (HTTP requests,
    certificate fetches) and re-raises after the final attempt.

    Exceptions that are *not* :class:`~repro.util.errors.TransportError`
    are classified as poison: the target's response deterministically
    crashes whatever consumes it, so retrying burns budget for an
    identical crash.  They are re-raised immediately as
    :class:`~repro.util.errors.PoisonError` (which *is* a
    TransportError, so stage-level failure handling degrades
    gracefully) and reported to the supervision hook, which feeds the
    quarantine ledger instead of the retry loop.
    """

    def __init__(
        self,
        policy: RetryPolicy,
        rng: random.Random | None = None,
        clock: SimClock | None = None,
        breaker: CircuitBreaker | None = None,
        stats: RetryStats | None = None,
        telemetry: Telemetry | None = None,
        supervision=None,
    ) -> None:
        self.policy = policy
        self._rng = rng if rng is not None else random.Random(0)
        self.clock = clock
        self.breaker = breaker
        self.stats = stats if stats is not None else RetryStats()
        self.telemetry = telemetry
        #: shard supervision hook (quarantine gate, poison/stall notes);
        #: duck-typed to keep this module free of supervisor imports
        self.supervision = supervision
        self._host_retries: dict[int, int] = {}
        #: the stats as of the last publish; what they gained since is
        #: what the counter series are still owed
        self._published = self.stats.copy()
        #: backoff delays not yet published, in charge order: the series
        #: is a float sum, and only the same adds in the same order land
        #: on the same bits as adding at each charge
        self._backoffs: list[float] = []
        if telemetry is not None:
            telemetry.metrics.defer(self.publish_counts)

    # -- telemetry ---------------------------------------------------------

    #: RetryStats field -> the counter series that mirrors it
    _SERIES: tuple[tuple[str, str, dict[str, str]], ...] = (
        ("attempts", "retry_attempts_total", {}),
        ("retries", "retry_retries_total", {}),
        ("recovered", "retry_recovered_total", {}),
        ("exhausted", "retry_exhausted_total", {}),
        ("breaker_skips", "retry_breaker_skips_total", {}),
        ("budget_denials", "retry_denials_total", {"reason": "budget"}),
        ("deadline_denials", "retry_denials_total", {"reason": "deadline"}),
        ("poisoned", "retry_poisoned_total", {}),
        ("quarantine_skips", "retry_quarantine_skips_total", {}),
        ("operations", "retry_operations_total", {"kind": "call"}),
    )

    def publish_counts(self) -> None:
        """Hand the registry what the stats gained since the last publish.

        A series is minted only once its field has moved, as the first
        per-attempt increment used to.  Runs on the sweep's own thread
        (the registry's single-writer rule).
        """
        stats, published = self.stats, self._published
        if stats == published:
            return
        counter = self.telemetry.metrics.counter
        for name, series, labels in self._SERIES:
            gained = getattr(stats, name) - getattr(published, name)
            if gained:
                counter(series, **labels).inc(gained)
        if self._backoffs:
            backoff = counter("retry_backoff_seconds_total")
            for delay in self._backoffs:
                backoff.inc(delay)
        self._mark_published()

    def adopt(self, stats: RetryStats) -> None:
        """Count into ``stats`` from here on (a sweep's report keeps
        them), once the old stats have published what they are owed."""
        if self.telemetry is not None:
            self.publish_counts()
        self.stats = stats
        self._mark_published()

    def _mark_published(self) -> None:
        self._published = self.stats.copy()
        self._backoffs.clear()

    # -- internals ---------------------------------------------------------

    def _classify_poison(self, ip: IPv4Address, exc: Exception) -> PoisonError:
        """Account a non-transport crash and wrap it for the caller."""
        self.stats.poisoned += 1
        if self.telemetry is not None:
            self.telemetry.events.warn(
                "retry", "poison", host=ip, error=type(exc).__name__,
            )
        if self.supervision is not None:
            self.supervision.note_poison(ip)
        return PoisonError(f"poison response from {ip}: {exc}")

    def _note_activity(self, ip: IPv4Address) -> None:
        if self.supervision is not None:
            self.supervision.note_activity(ip)

    def _may_retry(self, ip: IPv4Address, attempt: int, elapsed: float) -> float | None:
        """Backoff delay for the next retry, or None to give up."""
        if attempt + 1 >= self.policy.max_attempts:
            return None
        budget = self.policy.per_host_budget
        if budget is not None and self._host_retries.get(ip.value, 0) >= budget:
            self.stats.budget_denials += 1
            return None
        if self.breaker is not None and not self.breaker.allow(ip):
            self.stats.breaker_skips += 1
            return None
        delay = self.policy.backoff_delay(attempt, self._rng)
        if self.policy.deadline is not None and elapsed + delay > self.policy.deadline:
            self.stats.deadline_denials += 1
            return None
        return delay

    def _charge(self, ip: IPv4Address, delay: float) -> None:
        self.stats.retries += 1
        self.stats.backoff_seconds += delay
        self._backoffs.append(delay)
        self._host_retries[ip.value] = self._host_retries.get(ip.value, 0) + 1
        if self.clock is not None:
            self.clock.advance(delay)

    # -- entry points ------------------------------------------------------

    def call(self, ip: IPv4Address, operation: Callable[[], T]) -> T:
        """Run a raising operation with retries; re-raise on exhaustion.

        Quarantined targets are refused up front (like an open circuit);
        non-transport exceptions are classified as poison and re-raised
        without consuming a single retry.
        """
        if self.supervision is not None and self.supervision.is_quarantined(ip):
            self.stats.quarantine_skips += 1
            raise QuarantineSkip(f"{ip} is quarantined")
        if self.breaker is not None and not self.breaker.allow(ip):
            self.stats.breaker_skips += 1
            raise CircuitOpen(f"circuit open for {ip}")
        self.stats.operations += 1
        elapsed = 0.0
        failed_before = False
        last: TransportError | None = None
        for attempt in range(self.policy.max_attempts):
            self.stats.attempts += 1
            try:
                result = operation()
            except PoisonError:
                # Already classified by a nested executor call.
                self._note_activity(ip)
                raise
            except TransportError as exc:
                last = exc
                failed_before = True
                if self.breaker is not None:
                    self.breaker.record_failure(ip)
            except Exception as exc:
                self._note_activity(ip)
                raise self._classify_poison(ip, exc) from exc
            else:
                if self.breaker is not None:
                    self.breaker.record_success(ip)
                if failed_before:
                    self.stats.recovered += 1
                self._note_activity(ip)
                return result
            delay = self._may_retry(ip, attempt, elapsed)
            if delay is None:
                break
            elapsed += delay
            self._charge(ip, delay)
        self.stats.exhausted += 1
        if self.telemetry is not None and self.telemetry.events.wants("debug"):
            self.telemetry.events.debug(
                "retry", "exhausted", host=ip,
                attempts=self.policy.max_attempts, error=type(last).__name__,
            )
        self._note_activity(ip)
        assert last is not None
        raise last

    # -- checkpoint support ------------------------------------------------

    def snapshot_state(self) -> dict:
        return {
            "rng": rng_state_to_json(self._rng.getstate()),
            "host_retries": dict(self._host_retries),
        }

    def restore_state(self, state: dict) -> None:
        # The stats ride in the report rows, which ``run`` adopts (an older
        # record's "stats" go unread); the restored telemetry counts the
        # sweep so far, so nothing counted before the resume is owed to it.
        self._rng.setstate(rng_state_from_json(state["rng"]))
        self._mark_published()
        self._host_retries = {int(k): v for k, v in state["host_retries"].items()}
