"""IP metadata service (the paper uses IPHub for this role).

Maps an address to country, autonomous system, provider name, and whether
the network is a dedicated hosting provider.  The simulation *assigns*
metadata when it creates hosts or attackers, drawing from weighted
profiles calibrated to the paper's observed mixes (Tables 4, 7, 8); the
analysis layer then *queries* the service exactly like the paper queried
IPHub, without access to the generation-side truth.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.net.ipv4 import IPv4Address
from repro.util.rand import stable_hash, weighted_choice


@dataclass(frozen=True)
class IpMetadata:
    """What the metadata service knows about one address."""

    country: str
    asn: str            # e.g. "AS16509"
    provider: str       # e.g. "Amazon EC2"
    is_hosting: bool    # dedicated hosting provider network?


def _profile(*entries: tuple[str, str, str, bool, float]) -> dict[IpMetadata, float]:
    """A weighted mix, built once: ``(country, asn, provider, hosting,
    weight)`` rows as the metadata -> draw-weight map ``assign`` draws from."""
    return {IpMetadata(*entry[:4]): entry[4] for entry in entries}


# Mix for *vulnerable AWE hosts*, calibrated to Table 4: US and China
# dominate; Amazon EC2, Alibaba, Amazon AES, DigitalOcean and Google Cloud
# are the top ASes; ~64% sit in dedicated hosting networks.
VULNERABLE_HOST_PROFILE = _profile(
    ("United States", "AS16509", "Amazon EC2", True, 860),
    ("United States", "AS14618", "Amazon AES", True, 329),
    ("United States", "AS396982", "Google Cloud", True, 170),
    ("United States", "AS14061", "DigitalOcean", True, 130),
    ("United States", "AS7922", "Comcast Cable", False, 380),
    ("United States", "AS701", "Verizon Business", False, 235),
    ("China", "AS37963", "Alibaba", True, 542),
    ("China", "AS45090", "Tencent Cloud", True, 260),
    ("China", "AS4134", "China Telecom", False, 198),
    ("Germany", "AS24940", "Hetzner", True, 120),
    ("Germany", "AS3320", "Deutsche Telekom", False, 52),
    ("Singapore", "AS14061", "DigitalOcean", True, 60),
    ("Singapore", "AS16509", "Amazon EC2", True, 37),
    ("France", "AS16276", "OVH", True, 96),
    ("Netherlands", "AS49981", "WorldStream", True, 60),
    ("South Korea", "AS4766", "Korea Telecom", False, 95),
    ("India", "AS14061", "DigitalOcean", True, 54),
    ("Japan", "AS2516", "KDDI", False, 80),
    ("Brazil", "AS28573", "Claro", False, 75),
    ("Russia", "AS12389", "Rostelecom", False, 70),
    ("United Kingdom", "AS20712", "Andrews & Arnold", False, 48),
    ("Canada", "AS16276", "OVH", True, 70),
)

# Mix for generic background hosts: broader, more residential.
BACKGROUND_HOST_PROFILE = _profile(
    ("United States", "AS16509", "Amazon EC2", True, 180),
    ("United States", "AS7922", "Comcast Cable", False, 220),
    ("China", "AS4134", "China Telecom", False, 200),
    ("Germany", "AS24940", "Hetzner", True, 90),
    ("France", "AS16276", "OVH", True, 80),
    ("Japan", "AS4713", "NTT", False, 90),
    ("Brazil", "AS28573", "Claro", False, 70),
    ("Russia", "AS12389", "Rostelecom", False, 70),
)

# Mix for *attack origins*, calibrated to Tables 7 and 8: Serverion BV in
# the Netherlands and Gamers Club in Brazil lead, DigitalOcean spreads over
# many countries, Alexhost concentrates in Moldova.
ATTACKER_PROFILE = _profile(
    ("Netherlands", "AS211252", "Serverion BV", True, 450),
    ("Germany", "AS211252", "Serverion BV", True, 25),
    ("Brazil", "AS268624", "Gamers Club", True, 380),
    ("Poland", "AS268624", "Gamers Club", True, 16),
    ("United States", "AS14061", "DigitalOcean", True, 170),
    ("Singapore", "AS14061", "DigitalOcean", True, 110),
    ("India", "AS14061", "DigitalOcean", True, 40),
    ("United Kingdom", "AS14061", "DigitalOcean", True, 31),
    ("Moldova", "AS200019", "Alexhost", True, 135),
    ("United States", "AS16509", "Amazon EC2", True, 78),
    ("United States", "AS398101", "GoDaddy", True, 60),
    ("United States", "AS8075", "Microsoft Azure", True, 51),
    ("Russia", "AS12389", "Rostelecom", False, 100),
    ("Russia", "AS9123", "TimeWeb", True, 92),
    ("Netherlands", "AS60781", "LeaseWeb", True, 46),
    ("Poland", "AS12824", "home.pl", True, 53),
    ("Switzerland", "AS51395", "Softplus", True, 51),
    ("United Kingdom", "AS9009", "M247", True, 40),
    ("India", "AS45609", "Bharti Airtel", False, 12),
    ("China", "AS45090", "Tencent Cloud", True, 45),
    ("Singapore", "AS16509", "Amazon EC2", True, 58),
    ("France", "AS16276", "OVH", True, 30),
)


class GeoDatabase:
    """Registry + query service for IP metadata."""

    def __init__(self) -> None:
        self._records: dict[int, IpMetadata] = {}

    def assign(
        self,
        ip: IPv4Address,
        rng: random.Random,
        profile: dict[IpMetadata, float],
    ) -> IpMetadata:
        """Draw metadata from ``profile`` and register it for ``ip``."""
        metadata = weighted_choice(rng, profile)
        self._records[ip.value] = metadata
        return metadata

    def assign_fixed(self, ip: IPv4Address, metadata: IpMetadata) -> None:
        self._records[ip.value] = metadata

    def lookup(self, ip: IPv4Address) -> IpMetadata:
        """Query interface (what the paper buys from IPHub).

        Unregistered addresses get a stable, pseudo-random answer from the
        background mix, so lookups never fail — like a real metadata
        service, which has *some* answer for every routable address.
        """
        record = self._records.get(ip.value)
        if record is not None:
            return record
        rng = random.Random(stable_hash("geo-fallback", ip.value))
        return weighted_choice(rng, BACKGROUND_HOST_PROFILE)

    def __len__(self) -> int:
        return len(self._records)
