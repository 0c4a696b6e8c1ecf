"""Transport abstraction between the scanning pipeline and the network.

The pipeline never touches the simulator directly: it talks to a
:class:`Transport`, which answers two questions a real scanner asks the
wire — "is this TCP port open?" and "what does this HTTP(S) request
return?".  Two implementations exist:

* :class:`InMemoryTransport` — backed by the simulated Internet; this is
  what the experiments use.
* :class:`SocketTransport` (in :mod:`repro.net.server`) — real TCP to
  127.0.0.1, proving the pipeline is not coupled to the simulation.

The transport also enforces the paper's ethics constraints when asked to
(``enforce_ethics=True``): it refuses to forward state-changing requests,
exactly like the paper's pipeline which is "limited to non-state-changing
GET requests".
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Sequence

from repro.net.http import HttpRequest, HttpResponse, Scheme
from repro.net.ipv4 import BLOCK_MASK, IPv4Address
from repro.util.errors import ReproError


class EthicsViolation(ReproError):
    """The pipeline attempted a state-changing request during a scan."""


@dataclass
class TransportStats:
    """Counters for the load a scan places on the network.

    Used both for reporting (requests per stage) and for the scan-order
    ablation, which looks at how bursts concentrate within /24 blocks.
    """

    syn_probes: int = 0
    http_requests: int = 0
    requests_per_slash24: dict[int, int] = field(default_factory=dict)

    def note_probe(self, ip: IPv4Address) -> None:
        self.syn_probes += 1

    def note_request(self, ip: IPv4Address) -> None:
        self.http_requests += 1
        block = ip.value & BLOCK_MASK
        self.requests_per_slash24[block] = self.requests_per_slash24.get(block, 0) + 1

    def merge(self, other: "TransportStats") -> None:
        """Fold another transport's load accounting into this one."""
        self.syn_probes += other.syn_probes
        self.http_requests += other.http_requests
        for block, count in other.requests_per_slash24.items():
            self.requests_per_slash24[block] = (
                self.requests_per_slash24.get(block, 0) + count
            )

    def to_dict(self) -> dict:
        return {
            "syn_probes": self.syn_probes,
            "http_requests": self.http_requests,
            "requests_per_slash24": {
                str(block): count
                for block, count in sorted(self.requests_per_slash24.items())
            },
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "TransportStats":
        return cls(
            syn_probes=payload["syn_probes"],
            http_requests=payload["http_requests"],
            requests_per_slash24={
                int(block): count
                for block, count in payload["requests_per_slash24"].items()
            },
        )


def transport_layers(transport):
    """A (decorator) transport and every layer under it, outermost first:
    decorators hold the transport they wrap as ``inner``."""
    while transport is not None:
        yield transport
        transport = getattr(transport, "inner", None)


def stream_layer(transport):
    """The outermost layer that answers from a per-call stream — one with
    ``snapshot_state``, state a checkpoint must save and a resume restore —
    or None when no layer does."""
    for layer in transport_layers(transport):
        if callable(getattr(layer, "snapshot_state", None)):
            return layer
    return None


class Transport(ABC):
    """What the scanning pipeline knows about the network."""

    def __init__(self, enforce_ethics: bool = True) -> None:
        self.enforce_ethics = enforce_ethics
        self.stats = TransportStats()

    @abstractmethod
    def _port_open(self, ip: IPv4Address, port: int) -> bool:
        """Backend hook: SYN/ACK or not."""

    @abstractmethod
    def _exchange(
        self, ip: IPv4Address, port: int, scheme: Scheme, request: HttpRequest
    ) -> HttpResponse:
        """Backend hook: one HTTP round trip.  Raises TransportError."""

    def syn_probe(self, ip: IPv4Address, port: int) -> bool:
        """Stage-I probe: is the TCP port open?"""
        self.stats.note_probe(ip)
        return self._port_open(ip, port)

    def probe_ports(
        self, values: Sequence[int], ports: Sequence[int]
    ) -> dict[int, tuple[int, ...]]:
        """Stage-I batch probe: ``{value: sorted open ports}`` for each of
        the address ints ``values`` with a port open, in probe order.

        Semantically one ``syn_probe`` per (address, port), in order.
        Backends may override it with a cheaper equivalent (one host-map
        walk); fault-injecting transports keep the default so every
        probe still passes through their per-call machinery.
        """
        found: dict[int, tuple[int, ...]] = {}
        for value in values:
            ip = IPv4Address(value)
            open_ports = [port for port in ports if self.syn_probe(ip, port)]
            if open_ports:
                found[value] = tuple(sorted(open_ports))
        return found

    def live_values_in(self, start: int, end: int) -> Sequence[int] | None:
        """Liveness hint: addresses in ``[start, end]`` that *may* answer.

        Returns a sorted sequence of raw address ints, or None when the
        backend cannot know.  The contract is one-sided: an address absent
        from the hint is guaranteed to answer nothing, so stage I may
        account for its probes in bulk without sending them; an address
        present may still turn out dead.  Stage I asks once per sweep,
        over the frame's hull, so the answer may name addresses outside
        the frame; the scanner drops them.  A decorator (see
        :func:`transport_layers`) hints exactly as the transport it wraps.
        """
        inner = getattr(self, "inner", None)
        return None if inner is None else inner.live_values_in(start, end)

    def fork(self, shard_seed: int, clock=None) -> "Transport":
        """An independent transport over the same network for one shard.

        The fork shares the backend (the same simulated Internet) but
        carries its own :class:`TransportStats` and — for fault-injecting
        decorators — its own RNG stream derived from ``shard_seed``, so
        concurrent shards never contend on shared mutable state and each
        shard's traffic is deterministic in isolation.  The parallel
        engine merges the forks' stats back in canonical shard order.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not support sharded scanning"
        )

    def request(
        self, ip: IPv4Address, port: int, scheme: Scheme, request: HttpRequest
    ) -> HttpResponse:
        """One HTTP(S) round trip; raises TransportError on failure."""
        if self.enforce_ethics and request.is_state_changing:
            raise EthicsViolation(
                f"scan attempted a {request.method} to {ip}:{port}{request.path}; "
                "the pipeline must only send non-state-changing requests"
            )
        self.stats.note_request(ip)
        return self._exchange(ip, port, scheme, request)

    def fetch_certificate(self, ip: IPv4Address, port: int):
        """The TLS certificate on (ip, port), or None.

        Used by the responsible-disclosure workflow ("we try to connect
        to each via HTTPS and inspected the returned certificate").
        Backends without TLS visibility return None.
        """
        return None

    def get(
        self,
        ip: IPv4Address,
        port: int,
        path: str,
        scheme: Scheme = Scheme.HTTP,
        follow_redirects: int = 5,
    ) -> HttpResponse:
        """GET with bounded redirect following (same host only).

        The paper's stage II "followed redirects until we received a
        response body"; cross-host redirects are not followed because the
        scan is per-IP.
        """
        response = self.request(ip, port, scheme, HttpRequest.get(path, scheme))
        hops = 0
        while response.is_redirect and hops < follow_redirects:
            location = response.location or "/"
            if "://" in location:
                # Absolute URL: only follow if it stays on this host.
                _, _, rest = location.partition("://")
                hostpart, _, pathpart = rest.partition("/")
                if hostpart.split(":")[0] != str(ip):
                    break
                location = "/" + pathpart
            if not location.startswith("/"):
                location = "/" + location
            response = self.request(ip, port, scheme, HttpRequest.get(location, scheme))
            hops += 1
        return response


class InMemoryTransport(Transport):
    """Transport backed by a :class:`~repro.net.network.SimulatedInternet`."""

    def __init__(self, internet, enforce_ethics: bool = True) -> None:
        super().__init__(enforce_ethics=enforce_ethics)
        self.internet = internet

    def _port_open(self, ip: IPv4Address, port: int) -> bool:
        return self.internet.is_port_open(ip, port)

    def probe_ports(
        self, values: Sequence[int], ports: Sequence[int]
    ) -> dict[int, tuple[int, ...]]:
        # One host-map walk, one question per host for all twelve ports;
        # the probes are counted as per-port probing would count them.
        self.stats.syn_probes += len(values) * len(ports)
        return self.internet.open_ports_at(values, ports)

    def live_values_in(self, start: int, end: int) -> Sequence[int] | None:
        # Populated addresses are the only ones that can answer; offline
        # hosts stay in the hint (they answer nothing when probed, which
        # is exactly what probing them individually reports).
        return self.internet.populated_values_in(start, end)

    def fork(self, shard_seed: int, clock=None) -> "InMemoryTransport":
        # The simulated Internet is read-only during a sweep; only the
        # stats block is mutable, and the fork gets its own.
        return InMemoryTransport(self.internet, enforce_ethics=self.enforce_ethics)

    def _exchange(
        self, ip: IPv4Address, port: int, scheme: Scheme, request: HttpRequest
    ) -> HttpResponse:
        return self.internet.exchange(ip, port, scheme, request)

    def fetch_certificate(self, ip: IPv4Address, port: int):
        self.stats.note_probe(ip)
        return self.internet.certificate_on(ip, port)
