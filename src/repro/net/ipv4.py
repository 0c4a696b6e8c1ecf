"""IPv4 addresses, CIDR networks, and the IANA reserved ranges.

We implement our own small address types rather than using :mod:`ipaddress`
because the scanner works with addresses as plain integers in hot loops
(masscan-style block permutation over billions of candidates) and the
stdlib types allocate an object per address.  The types here are thin,
hashable value objects around an ``int`` with conversion helpers.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Iterator

MAX_IPV4 = 2**32 - 1

#: ``value & BLOCK_MASK`` is the base of the /24 block holding ``value``
BLOCK_MASK = 0xFFFFFF00


def dotted_quad(value: int) -> str:
    """Render an address integer (``0 <= value <= MAX_IPV4``) without
    building an :class:`IPv4Address` first."""
    return f"{value >> 24}.{value >> 16 & 255}.{value >> 8 & 255}.{value & 255}"


@dataclass(frozen=True, order=True)
class IPv4Address:
    """An IPv4 address stored as an unsigned 32-bit integer."""

    value: int

    def __post_init__(self) -> None:
        if not 0 <= self.value <= MAX_IPV4:
            raise ValueError(f"not a valid IPv4 address integer: {self.value}")

    @classmethod
    def parse(cls, text: str) -> "IPv4Address":
        parts = text.strip().split(".")
        if len(parts) != 4:
            raise ValueError(f"not a dotted quad: {text!r}")
        value = 0
        for part in parts:
            if not part.isdigit():
                raise ValueError(f"not a dotted quad: {text!r}")
            octet = int(part)
            if octet > 255:
                raise ValueError(f"octet out of range in {text!r}")
            value = (value << 8) | octet
        return cls(value)

    @property
    def octets(self) -> tuple[int, int, int, int]:
        v = self.value
        return ((v >> 24) & 0xFF, (v >> 16) & 0xFF, (v >> 8) & 0xFF, v & 0xFF)

    @property
    def slash24(self) -> "IPv4Network":
        """The /24 block containing this address."""
        return IPv4Network(IPv4Address(self.value & BLOCK_MASK), 24)

    def __str__(self) -> str:
        return dotted_quad(self.value)

    def __int__(self) -> int:
        return self.value

    def __reduce__(self):
        # Pickled as the constructor call: a shard result holds thousands.
        return IPv4Address, (self.value,)


@dataclass(frozen=True, order=True)
class IPv4Network:
    """A CIDR block, e.g. ``10.0.0.0/8``."""

    network: IPv4Address
    prefix: int

    def __post_init__(self) -> None:
        if not 0 <= self.prefix <= 32:
            raise ValueError(f"invalid prefix length: {self.prefix}")
        if self.network.value & (self.host_mask) != 0:
            raise ValueError(
                f"{self.network}/{self.prefix} has host bits set"
            )

    @classmethod
    def parse(cls, text: str) -> "IPv4Network":
        addr_text, _, prefix_text = text.partition("/")
        if not prefix_text:
            raise ValueError(f"missing prefix length in {text!r}")
        return cls(IPv4Address.parse(addr_text), int(prefix_text))

    @property
    def netmask(self) -> int:
        return (0xFFFFFFFF << (32 - self.prefix)) & 0xFFFFFFFF

    @property
    def host_mask(self) -> int:
        return (1 << (32 - self.prefix)) - 1

    @property
    def size(self) -> int:
        """Number of addresses in the block."""
        return 1 << (32 - self.prefix)

    @property
    def first(self) -> IPv4Address:
        return self.network

    @property
    def last(self) -> IPv4Address:
        return IPv4Address(self.network.value | self.host_mask)

    def contains(self, address: IPv4Address) -> bool:
        return (address.value & self.netmask) == self.network.value

    def addresses(self) -> Iterator[IPv4Address]:
        """Iterate every address in the block (use only on small blocks)."""
        for value in range(self.network.value, self.network.value + self.size):
            yield IPv4Address(value)

    def subnets_24(self) -> Iterator["IPv4Network"]:
        """Iterate the /24 blocks inside this network."""
        if self.prefix > 24:
            raise ValueError("network smaller than a /24")
        for base in range(self.network.value, self.network.value + self.size, 256):
            yield IPv4Network(IPv4Address(base), 24)

    def __str__(self) -> str:
        return f"{self.network}/{self.prefix}"

    def __contains__(self, address: object) -> bool:
        return isinstance(address, IPv4Address) and self.contains(address)


# The IANA special-purpose / reserved allocations the paper excludes
# (multicast, private use, loopback, link-local, DoD, documentation, ...).
# Removing them leaves roughly 3.5B scannable addresses, matching the paper.
_RESERVED_CIDRS = (
    "0.0.0.0/8",        # "this network"
    "6.0.0.0/8",        # US DoD (Army Information Systems Center)
    "7.0.0.0/8",        # US DoD (DISA)
    "10.0.0.0/8",       # private use
    "11.0.0.0/8",       # US DoD (DoD Intel Information Systems)
    "21.0.0.0/8",       # US DoD (DDN-RVN)
    "22.0.0.0/8",       # US DoD (DISA)
    "26.0.0.0/8",       # US DoD (DISA)
    "28.0.0.0/8",       # US DoD (DSI-North)
    "29.0.0.0/8",       # US DoD (DISA)
    "30.0.0.0/8",       # US DoD (DISA)
    "33.0.0.0/8",       # US DoD (DLA)
    "55.0.0.0/8",       # US DoD (Army)
    "100.64.0.0/10",    # carrier-grade NAT
    "127.0.0.0/8",      # loopback
    "169.254.0.0/16",   # link local
    "172.16.0.0/12",    # private use
    "192.0.0.0/24",     # IETF protocol assignments
    "192.0.2.0/24",     # documentation (TEST-NET-1)
    "192.88.99.0/24",   # 6to4 relay anycast
    "192.168.0.0/16",   # private use
    "198.18.0.0/15",    # benchmarking
    "198.51.100.0/24",  # documentation (TEST-NET-2)
    "203.0.113.0/24",   # documentation (TEST-NET-3)
    "214.0.0.0/7",      # US DoD (DDN)
    "224.0.0.0/4",      # multicast
    "240.0.0.0/4",      # reserved for future use
)


def iana_reserved_networks() -> tuple[IPv4Network, ...]:
    """The CIDR blocks excluded from the Internet-wide scan."""
    return tuple(IPv4Network.parse(cidr) for cidr in _RESERVED_CIDRS)


def is_reserved(address: IPv4Address) -> bool:
    """True if the address falls in an IANA reserved allocation.

    This sits on the stage-I hot path (every candidate address passes
    through it), so instead of probing all 27 networks it bisects a
    precomputed table of (non-overlapping) integer ranges.
    """
    value = address.value
    index = bisect_right(_RESERVED_STARTS, value) - 1
    return index >= 0 and value <= _RESERVED_ENDS[index]


_RESERVED_NETWORKS = iana_reserved_networks()
_RESERVED_STARTS, _RESERVED_ENDS = (
    tuple(bounds)
    for bounds in zip(*sorted(
        (net.first.value, net.last.value) for net in _RESERVED_NETWORKS
    ))
)


def scannable_address_count() -> int:
    """Number of addresses left after removing reserved allocations.

    The reserved blocks above do not overlap, so the count is exact.  The
    paper reports "roughly 3.5B" scannable addresses.
    """
    return (MAX_IPV4 + 1) - sum(net.size for net in _RESERVED_NETWORKS)
