"""Composable failure injection: a transport that misbehaves on purpose.

Real sweeps see far more than silent packet loss (§6.2: hosts that were
"unresponsive [or] temporarily unavailable"), so :class:`ChaosTransport`
injects the whole taxonomy a production scanner must survive:

* **packet loss** — SYN probes vanish, requests time out;
* **connection resets** — the exchange starts, then dies with a RST;
* **slow responses** — the answer arrives but costs simulated latency,
  charged to a :class:`~repro.util.clock.SimClock`;
* **hangs** — the tarpit case: nothing arrives and the exchange burns an
  hour of simulated time (or the watchdog budget) before timing out;
* **stalls** — the response trickles in so slowly that, under a
  watchdog, the read is abandoned mid-stream;
* **poison bodies** — the bytes arrive but crash whatever parses them
  (raised as a *non*-transport error, exercising the quarantine path);
* **truncated / garbled bodies** — the response is delivered but its
  body is cut short or replaced with binary noise, so signature and
  plugin logic must cope with malformed HTTP content;
* **flapping hosts** — a host is down for N virtual minutes out of every
  cycle, then back, keyed to the clock;
* **per-/24 outage bursts** — a whole block disappears periodically, the
  routing-incident case.

All faults are configured through one :class:`FaultPlan` value and drawn
from a seeded RNG, so any combination is reproducible bit-for-bit.  The
time-keyed faults (flapping, outages) are derived from
:func:`~repro.util.rand.stable_hash` of the target address rather than
from RNG draws, which keeps them stable across checkpoint/resume.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, fields

from repro.net.http import HttpRequest, HttpResponse, Scheme
from repro.net.ipv4 import BLOCK_MASK, IPv4Address
from repro.net.transport import Transport
from repro.obs.metrics import series_key
from repro.obs.telemetry import Telemetry
from repro.util.clock import SimClock
from repro.util.errors import ConnectionReset, ConnectionTimeout
from repro.util.rand import rng_state_from_json, rng_state_to_json, stable_hash

_RATE_FIELDS = (
    "syn_loss",
    "request_loss",
    "reset_rate",
    "slow_rate",
    "hang_rate",
    "stall_rate",
    "poison_rate",
    "truncate_rate",
    "garble_rate",
    "flap_rate",
    "outage_rate",
)

#: every fault kind ``ChaosTransport`` injects -> its counter series
_FAULT_SERIES = {
    kind: series_key("chaos_faults_total", kind=kind)
    for kind in (
        "outage", "flap", "syn-drop", "hang", "request-drop", "reset",
        "slow", "stall", "poison", "truncate", "garble",
    )
}


@dataclass(frozen=True)
class FaultPlan:
    """Declarative description of how the network should misbehave.

    Rates are independent per-operation (or per-target for the time-keyed
    faults) probabilities in ``[0, 1]``; durations are simulated seconds.
    The zero plan injects nothing, so a ``ChaosTransport`` with the
    default plan is transparent.
    """

    #: probability a SYN probe is silently lost (looks filtered)
    syn_loss: float = 0.0
    #: probability an HTTP exchange times out without an answer
    request_loss: float = 0.0
    #: probability an HTTP exchange dies with a connection reset
    reset_rate: float = 0.0
    #: probability a response is delivered late (latency charged to clock)
    slow_rate: float = 0.0
    #: seconds of latency one slow response costs
    slow_latency: float = 30.0
    #: probability an exchange hangs — the tarpit case: nothing ever
    #: arrives, and without a watchdog the full hang latency is charged
    hang_rate: float = 0.0
    #: seconds a hung exchange burns before the simulated TCP stack gives up
    hang_latency: float = 3600.0
    #: probability a response trickles in so slowly it costs stall latency
    stall_rate: float = 0.0
    #: seconds a stalled (but eventually delivered) response costs
    stall_latency: float = 120.0
    #: probability a response body is poison: syntactically delivered but
    #: crashes naive parsers (the transport raises a non-transport error)
    poison_rate: float = 0.0
    #: probability a response body arrives cut short
    truncate_rate: float = 0.0
    #: probability a response body arrives as garbage bytes
    garble_rate: float = 0.0
    #: fraction of hosts that flap (down, then back, periodically)
    flap_rate: float = 0.0
    #: seconds a flapping host stays down per cycle
    flap_down: float = 120.0
    #: length of one flap cycle in seconds
    flap_period: float = 600.0
    #: fraction of /24 blocks hit by periodic outage bursts
    outage_rate: float = 0.0
    #: seconds one outage burst lasts
    outage_down: float = 300.0
    #: length of one outage cycle in seconds
    outage_period: float = 3600.0

    def __post_init__(self) -> None:
        for name in _RATE_FIELDS:
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        for name in ("slow_latency", "hang_latency", "stall_latency",
                     "flap_down", "flap_period",
                     "outage_down", "outage_period"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.flap_down > self.flap_period:
            raise ValueError("flap_down cannot exceed flap_period")
        if self.outage_down > self.outage_period:
            raise ValueError("outage_down cannot exceed outage_period")

    @classmethod
    def packet_loss(cls, rate: float) -> "FaultPlan":
        """Loss only: SYN probes and HTTP(S) exchanges dropped at ``rate``."""
        return cls(syn_loss=rate, request_loss=rate)

    def scaled(self, factor: float) -> "FaultPlan":
        """A plan with every *rate* multiplied by ``factor`` (capped at 1)."""
        updates = {
            name: min(1.0, getattr(self, name) * factor) for name in _RATE_FIELDS
        }
        kept = {
            f.name: getattr(self, f.name)
            for f in fields(self)
            if f.name not in updates
        }
        return FaultPlan(**kept, **updates)


class ChaosTransport(Transport):
    """Decorator transport injecting the faults described by a plan.

    Statistics are *delegated to the innermost transport*: wrapping a
    transport must not split ``syn_probes``/``http_requests``/per-/24
    counters across decorator layers, or pipeline load under-reports.
    Fault bookkeeping lives in :attr:`faults` (injected events by kind).
    """

    def __init__(
        self,
        inner: Transport,
        plan: FaultPlan | None = None,
        seed: int = 0,
        clock: SimClock | None = None,
        telemetry: Telemetry | None = None,
    ) -> None:
        super().__init__(enforce_ethics=inner.enforce_ethics)
        self.inner = inner
        self.stats = inner.stats  # shared: one counter set per transport chain
        self.plan = plan if plan is not None else FaultPlan()
        self.clock = clock
        self.seed = seed
        self.telemetry = telemetry
        self._rng = random.Random(seed)
        #: injected fault events by kind ("syn-drop", "reset", "flap", ...)
        self.faults: dict[str, int] = {}
        #: total simulated latency charged by slow responses
        self.slow_seconds: float = 0.0
        #: total simulated latency charged by hung exchanges
        self.hang_seconds: float = 0.0
        #: total simulated latency charged by stalled responses
        self.stall_seconds: float = 0.0
        #: per-probe deadline in simulated seconds: latency faults charge
        #: at most this much before the exchange times out (None = wait
        #: out the full injected latency, the unsupervised behaviour)
        self.watchdog: float | None = None

    # -- fault plumbing ----------------------------------------------------

    def _note(self, kind: str, ip: IPv4Address | None = None) -> None:
        self.faults[kind] = self.faults.get(kind, 0) + 1
        if self.telemetry is not None:
            # A pending add: the registry folds it in when read.
            pending = self.telemetry.metrics.pending
            series = _FAULT_SERIES[kind]
            pending[series] = pending.get(series, 0) + 1
            if self.telemetry.events.wants("debug"):
                self.telemetry.events.debug("chaos", "fault", host=ip, kind=kind)

    def _now(self) -> float:
        return self.clock.now if self.clock is not None else 0.0

    def _charge_latency(self, latency: float) -> float:
        """Charge injected latency to the clock, capped by the watchdog.

        Returns the seconds actually charged; a return below ``latency``
        means the watchdog fired first and the caller must raise the
        timeout instead of waiting out the fault.
        """
        charged = (
            latency if self.watchdog is None else min(latency, self.watchdog)
        )
        if self.clock is not None:
            self.clock.advance(charged)
        return charged

    def _affected(self, rate: float, *key: object) -> bool:
        """Deterministic per-target selection (no RNG state consumed)."""
        return (stable_hash(self.seed, *key) % 1_000_000) / 1_000_000 < rate

    def _phase(self, period: float, *key: object) -> float:
        return (stable_hash(self.seed, "phase", *key) % 1_000_000) / 1_000_000 * period

    def _down_now(self, ip: IPv4Address) -> str | None:
        """The time-keyed fault currently blacking out ``ip``, if any."""
        plan = self.plan
        if plan.outage_rate:
            block = ip.value & BLOCK_MASK
            if self._affected(plan.outage_rate, "outage", block):
                offset = (self._now() + self._phase(plan.outage_period, "outage", block))
                if offset % plan.outage_period < plan.outage_down:
                    return "outage"
        if plan.flap_rate and self._affected(plan.flap_rate, "flap", ip.value):
            offset = self._now() + self._phase(plan.flap_period, "flap", ip.value)
            if offset % plan.flap_period < plan.flap_down:
                return "flap"
        return None

    # -- transport hooks ---------------------------------------------------

    def _port_open(self, ip: IPv4Address, port: int) -> bool:
        down = self._down_now(ip)
        if down is not None:
            self._note(down, ip)
            return False
        if self.plan.syn_loss and self._rng.random() < self.plan.syn_loss:
            self._note("syn-drop", ip)
            return False
        return self.inner._port_open(ip, port)

    def _exchange(
        self, ip: IPv4Address, port: int, scheme: Scheme, request: HttpRequest
    ) -> HttpResponse:
        down = self._down_now(ip)
        if down is not None:
            self._note(down, ip)
            raise ConnectionTimeout(f"{ip}:{port} unreachable (injected {down})")
        plan = self.plan
        if plan.hang_rate and self._rng.random() < plan.hang_rate:
            # The tarpit: no bytes ever arrive.  Time passes — the full
            # hang latency, or the watchdog budget when one is armed —
            # and then the exchange dies as a timeout either way.
            self._note("hang", ip)
            self.hang_seconds += self._charge_latency(plan.hang_latency)
            raise ConnectionTimeout(f"exchange with {ip}:{port} hung (injected)")
        if plan.request_loss and self._rng.random() < plan.request_loss:
            self._note("request-drop", ip)
            raise ConnectionTimeout(f"request to {ip}:{port} timed out (injected)")
        if plan.reset_rate and self._rng.random() < plan.reset_rate:
            self._note("reset", ip)
            raise ConnectionReset(f"connection to {ip}:{port} reset (injected)")
        response = self.inner._exchange(ip, port, scheme, request)
        if plan.slow_rate and self._rng.random() < plan.slow_rate:
            self._note("slow", ip)
            charged = self._charge_latency(plan.slow_latency)
            self.slow_seconds += charged
            if charged < plan.slow_latency:
                raise ConnectionTimeout(
                    f"slow response from {ip}:{port} hit the watchdog (injected)"
                )
        if plan.stall_rate and self._rng.random() < plan.stall_rate:
            # The response trickles in byte by byte.  Without a watchdog
            # the caller waits it out and still gets the body; with one,
            # the read is abandoned mid-stream.
            self._note("stall", ip)
            charged = self._charge_latency(plan.stall_latency)
            self.stall_seconds += charged
            if charged < plan.stall_latency:
                raise ConnectionTimeout(
                    f"response from {ip}:{port} stalled past the watchdog "
                    f"(injected)"
                )
        if plan.poison_rate and self._rng.random() < plan.poison_rate:
            # Not a transport failure: the bytes arrived, but anything
            # that parses them blows up.  Raising a non-TransportError
            # here models the parser crash at the call site that would
            # have consumed the body.
            self._note("poison", ip)
            raise RuntimeError(
                f"poison response body from {ip}:{port} (injected)"
            )
        if plan.truncate_rate and self._rng.random() < plan.truncate_rate:
            self._note("truncate", ip)
            cut = self._rng.randrange(len(response.body) // 2 + 1)
            return HttpResponse(response.status, response.headers, response.body[:cut])
        if plan.garble_rate and self._rng.random() < plan.garble_rate:
            self._note("garble", ip)
            noise = bytes(self._rng.getrandbits(8) for _ in range(64))
            return HttpResponse(
                response.status, response.headers, noise.decode("latin1")
            )
        return response

    def fetch_certificate(self, ip: IPv4Address, port: int):
        down = self._down_now(ip)
        if down is not None:
            self._note(down, ip)
            raise ConnectionTimeout(f"{ip}:{port} unreachable (injected {down})")
        if self.plan.request_loss and self._rng.random() < self.plan.request_loss:
            self._note("request-drop", ip)
            raise ConnectionTimeout(
                f"TLS handshake with {ip}:{port} timed out (injected)"
            )
        return self.inner.fetch_certificate(ip, port)

    # -- sharding support --------------------------------------------------

    def fork(self, shard_seed: int, clock: SimClock | None = None) -> "ChaosTransport":
        """A shard-local chaos layer over a fork of the inner transport.

        The *time-keyed* faults (flap/outage selection and phase) keep the
        parent ``seed``: which hosts flap is a property of the network,
        not of who scans it, so every shard — and every worker count —
        sees the same unreliable Internet.  The *per-call* fault stream is
        re-seeded from ``shard_seed`` so concurrent shards draw from
        independent deterministic RNGs instead of racing on one.
        """
        clone = ChaosTransport(
            self.inner.fork(shard_seed, clock),
            plan=self.plan,
            seed=self.seed,
            clock=clock,
        )
        clone._rng = random.Random(stable_hash(self.seed, "chaos-shard", shard_seed))
        clone.watchdog = self.watchdog
        return clone

    def __getstate__(self) -> dict:
        # The chaos layer crosses the process-pool pickle boundary as
        # part of a ShardRunner.  Its telemetry handle must not: that is
        # main-process state, and the forked shard clone gets the shard
        # pipeline's own handle attached on construction anyway.
        state = self.__dict__.copy()
        state["telemetry"] = None
        return state

    # -- checkpoint support ------------------------------------------------

    def snapshot_state(self) -> dict:
        """Everything needed to replay the fault stream after a resume."""
        return {
            "rng": rng_state_to_json(self._rng.getstate()),
            "faults": dict(self.faults),
            "slow_seconds": self.slow_seconds,
            "hang_seconds": self.hang_seconds,
            "stall_seconds": self.stall_seconds,
        }

    def restore_state(self, state: dict) -> None:
        self._rng.setstate(rng_state_from_json(state["rng"]))
        self.faults = dict(state["faults"])
        self.slow_seconds = state["slow_seconds"]
        self.hang_seconds = state["hang_seconds"]
        self.stall_seconds = state["stall_seconds"]
