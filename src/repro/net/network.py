"""The simulated IPv4 Internet.

A sparse map from address to :class:`~repro.net.host.Host`: only hosts
that exist (are online and listen somewhere) are materialised; every other
address behaves like an unused one (SYN probes go unanswered).  This makes
an "Internet-wide" sweep tractable — the scanner still iterates candidate
addresses, but only populated ones cost memory.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from typing import Iterator, Sequence

from repro.net.host import Host, HostKind
from repro.net.http import HttpRequest, HttpResponse, Scheme
from repro.net.ipv4 import IPv4Address
from repro.util.errors import ConnectionTimeout


class SimulatedInternet:
    """Sparse IPv4 space with host lookup and HTTP exchange."""

    def __init__(self) -> None:
        self._hosts: dict[int, Host] = {}
        self._sorted_values: list[int] | None = None

    # -- population --------------------------------------------------------

    def add_host(self, host: Host) -> None:
        if host.ip.value in self._hosts:
            raise ValueError(f"duplicate host at {host.ip}")
        self._hosts[host.ip.value] = host
        if self._sorted_values is not None:
            insort(self._sorted_values, host.ip.value)

    def remove_host(self, ip: IPv4Address) -> None:
        if self._hosts.pop(ip.value, None) is not None and self._sorted_values:
            del self._sorted_values[bisect_left(self._sorted_values, ip.value)]

    def host_at(self, ip: IPv4Address) -> Host | None:
        return self._hosts.get(ip.value)

    def __len__(self) -> int:
        return len(self._hosts)

    def hosts(self) -> Iterator[Host]:
        yield from self._hosts.values()

    def online_hosts(self) -> Iterator[Host]:
        return (h for h in self._hosts.values() if h.online)

    def awe_hosts(self) -> Iterator[Host]:
        return (h for h in self.online_hosts() if h.kind is HostKind.AWE)

    def populated_addresses(self) -> list[IPv4Address]:
        """All addresses with a host, sorted (deterministic iteration)."""
        return [IPv4Address(v) for v in sorted(self._hosts)]

    def populated_values_in(self, start: int, end: int) -> list[int]:
        """Raw address ints with a host inside inclusive ``[start, end]``.

        Backed by a sorted-key list, built on the first query and kept
        current by ``add_host``/``remove_host``, so the interval fast path
        in stage I can classify a /24 block with two bisections instead of
        256 dictionary lookups, and a churned world is not re-sorted.
        """
        if self._sorted_values is None:
            self._sorted_values = sorted(self._hosts)
        values = self._sorted_values
        lo = bisect_left(values, start)
        hi = bisect_right(values, end)
        return values[lo:hi]

    # -- what the wire exposes ------------------------------------------------

    def open_ports_at(
        self, values: Sequence[int], ports: Sequence[int]
    ) -> dict[int, tuple[int, ...]]:
        """Stage I's batch question: ``{value: sorted open ports}`` for
        each of ``values`` with one of ``ports`` open, in their order.

        What :meth:`Host.is_port_open` says of each port, asked as one set
        intersection per live host."""
        host_at, found = self._hosts.get, {}
        wanted, every = frozenset(ports), tuple(sorted(ports))
        for value in values:
            host = host_at(value)
            if host is None or not host.online:
                continue
            if host.kind is HostKind.MIDDLEBOX:
                found[value] = every
            elif open_ports := wanted.intersection(host.services):
                found[value] = tuple(sorted(open_ports))
        return found

    def is_port_open(self, ip: IPv4Address, port: int) -> bool:
        host = self._hosts.get(ip.value)
        return host.is_port_open(port) if host else False

    def exchange(
        self, ip: IPv4Address, port: int, scheme: Scheme, request: HttpRequest
    ) -> HttpResponse:
        host = self._hosts.get(ip.value)
        if host is None:
            raise ConnectionTimeout(f"no route to {ip}")
        return host.exchange(port, scheme, request)

    def certificate_on(self, ip: IPv4Address, port: int):
        """The TLS certificate presented on (ip, port), if any."""
        host = self._hosts.get(ip.value)
        return host.certificate_on(port) if host else None

    # -- ground truth for evaluating the pipeline --------------------------------

    def true_vulnerable_hosts(self) -> list[Host]:
        """Hosts that actually expose a MAV (simulator omniscience).

        The scanning pipeline must *infer* this set from HTTP responses;
        tests compare its output against this ground truth to measure
        false positives/negatives.
        """
        return [h for h in self.online_hosts() if h.has_vulnerable_app()]

    def hosts_running(self, slug: str) -> list[Host]:
        return [
            h for h in self.online_hosts()
            if any(inst.slug == slug for inst in h.apps())
        ]


def allocate_addresses(
    rng, count: int, taken: set[int], avoid_reserved: bool = True
) -> list[IPv4Address]:
    """Draw ``count`` distinct, non-reserved, unused IPv4 addresses."""
    from repro.net.ipv4 import MAX_IPV4, is_reserved

    out: list[IPv4Address] = []
    while len(out) < count:
        value = rng.randrange(0, MAX_IPV4 + 1)
        if value in taken:
            continue
        address = IPv4Address(value)
        if avoid_reserved and is_reserved(address):
            continue
        taken.add(value)
        out.append(address)
    return out
