"""Attack scheduling and execution.

Turns the attacker population into a concrete four-week schedule of
:class:`AttackEvent` values whose timing matches the paper's Table 6 and
Figure 3:

* Hadoop is hit within the first hour and then near-continuously (average
  gap ~20 minutes); Docker and Jupyter Notebook are hit at least every
  other day;
* WordPress sees one fast fluke attack (~3h) and then nothing for over a
  week; Jenkins and GravCMS wait days to weeks for their first attack;
* Jupyter Lab starts quiet and heats up toward the end of the study.

Events from the same source IP are kept more than the 15-minute analysis
window apart so each scheduled event is one *attack* by the paper's
definition.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.attacker.actors import Attacker, build_attacker_population
from repro.attacker.exploits import exploit_requests
from repro.attacker.payloads import Payload, PayloadKind
from repro.net.geo import ATTACKER_PROFILE, GeoDatabase
from repro.net.ipv4 import IPv4Address
from repro.net.network import allocate_addresses
from repro.util.clock import HOUR, MINUTE, WEEK

#: time of the first attack on each application, in hours (Table 6).
FIRST_ATTACK_HOURS: dict[str, float] = {
    "hadoop": 0.8,
    "wordpress": 2.8,
    "docker": 6.7,
    "jupyter-notebook": 48.0,
    "jupyterlab": 133.7,
    "jenkins": 172.4,
    "grav": 355.1,
}

#: timing style per application
_LATE_SKEW_APPS = frozenset({"jupyterlab"})       # heats up toward the end
_FLUKE_THEN_QUIET = frozenset({"wordpress"})      # one early hit, long gap
_MIN_IP_GAP = 20 * MINUTE                          # > the 15-min merge window


@dataclass(frozen=True)
class AttackEvent:
    """One attack: an actor fires one payload at one honeypot."""

    time: float
    attacker: str
    source_ip: IPv4Address
    slug: str
    payload: Payload


@dataclass
class AttackSchedule:
    """The full four-week schedule plus the actors behind it."""

    events: list[AttackEvent] = field(default_factory=list)
    attackers: list[Attacker] = field(default_factory=list)
    duration: float = 4 * WEEK

    def source_ips(self) -> set[int]:
        return {event.source_ip.value for event in self.events}

    def total_attacks(self) -> int:
        return len(self.events)


def _draw_times(
    rng: random.Random, slug: str, count: int, anchor: float, duration: float
) -> list[float]:
    """Attack times for one (actor, app) block of ``count`` events."""
    if count <= 0:
        return []
    times: list[float] = []
    if slug in _FLUKE_THEN_QUIET:
        # One early coincidence, then slow background scanning much later.
        times.append(anchor)
        quiet_until = min(anchor + 1.2 * WEEK, duration - HOUR)
        for _ in range(count - 1):
            times.append(rng.uniform(quiet_until, duration))
        return sorted(times)
    span = duration - anchor
    for _ in range(count):
        u = rng.random()
        if slug in _LATE_SKEW_APPS:
            u = u ** (1.0 / 3.0)  # density 3u^2: concentrated late
        times.append(anchor + u * span)
    return sorted(times)


def _enforce_ip_spacing(events: list[AttackEvent], duration: float) -> list[AttackEvent]:
    """Push events from the same IP apart so none merge in analysis."""
    by_ip: dict[int, list[AttackEvent]] = {}
    for event in sorted(events, key=lambda e: e.time):
        by_ip.setdefault(event.source_ip.value, []).append(event)
    spaced: list[AttackEvent] = []
    for ip_events in by_ip.values():
        previous = -_MIN_IP_GAP
        for event in ip_events:
            when = max(event.time, previous + _MIN_IP_GAP)
            when = min(when, duration - 1.0)
            if when <= previous:  # clamped into the ceiling: nudge forward
                when = previous + _MIN_IP_GAP
            spaced.append(
                AttackEvent(when, event.attacker, event.source_ip, event.slug,
                            event.payload)
            )
            previous = when
    spaced.sort(key=lambda e: e.time)
    return spaced


def build_schedule(
    seed: int = 7,
    duration: float = 4 * WEEK,
    geo: GeoDatabase | None = None,
    taken_ips: set[int] | None = None,
) -> AttackSchedule:
    """Materialise the population and schedule all 2,195 attacks.

    ``geo`` (if given) learns every attacker IP's origin so the analysis
    can reproduce Tables 7 and 8.  ``taken_ips`` avoids collisions with
    the scan-study population when both run in one simulation.
    """
    rng = random.Random(seed)
    taken = taken_ips if taken_ips is not None else set()
    attackers = build_attacker_population(rng)

    # Allocate source IPs and register their metadata.
    for attacker in attackers:
        attacker.ips = allocate_addresses(rng, attacker.spec.ip_count, taken)
        pinned = attacker.pinned_metadata()
        if geo is not None:
            for index, ip in enumerate(attacker.ips):
                if pinned is not None:
                    geo.assign_fixed(ip, pinned[index % len(pinned)])
                else:
                    geo.assign(ip, rng, ATTACKER_PROFILE)

    # Which actor fires the very first attack on each app?  The largest
    # plan gets the anchor so the "first compromise" timing is stable.
    anchor_owner: dict[str, str] = {}
    best_volume: dict[str, int] = {}
    for attacker in attackers:
        for slug, plan in attacker.spec.plans.items():
            if plan.attacks > best_volume.get(slug, 0):
                best_volume[slug] = plan.attacks
                anchor_owner[slug] = attacker.name

    events: list[AttackEvent] = []
    for attacker in attackers:
        for slug, plan in attacker.spec.plans.items():
            payloads = attacker.payloads_for(slug)
            anchor = FIRST_ATTACK_HOURS.get(slug, 24.0) * HOUR
            if anchor_owner.get(slug) != attacker.name:
                if slug in _FLUKE_THEN_QUIET:
                    # Everyone but the fluke arrives after the quiet week.
                    anchor = max(anchor + 1.2 * WEEK,
                                 rng.uniform(1.3 * WEEK, 2.5 * WEEK))
                else:
                    # Non-anchor actors arrive somewhat later.
                    anchor = anchor + rng.uniform(0.5 * HOUR, 36 * HOUR)
            times = _draw_times(rng, slug, plan.attacks, anchor, duration)
            if anchor_owner.get(slug) == attacker.name and times:
                times[0] = FIRST_ATTACK_HOURS.get(slug, 24.0) * HOUR
            for index, when in enumerate(times):
                events.append(
                    AttackEvent(
                        time=when,
                        attacker=attacker.name,
                        source_ip=attacker.ips[index % len(attacker.ips)],
                        slug=slug,
                        payload=payloads[index % len(payloads)],
                    )
                )

    events = _enforce_ip_spacing(events, duration)
    return AttackSchedule(events=events, attackers=attackers, duration=duration)


def execute_event(fleet, event: AttackEvent) -> bool:
    """Fire one attack at the honeypot fleet.

    Returns True if the honeypot accepted the traffic (it may be mid-
    restore and unreachable, like the paper's snapshot-restore windows).
    """
    delivered = False
    for request in exploit_requests(event.slug, event.payload):
        response = fleet.deliver(event.slug, event.time, event.source_ip, request)
        if response is not None:
            delivered = True
    if not delivered:
        return False
    # Side effects of a successful compromise:
    if event.payload.kind is PayloadKind.VIGILANTE:
        # The vigilante powers the machine off; availability monitoring
        # notices the outage and the fleet restores the snapshot.
        fleet.restore(event.slug)
    else:
        fleet.apply_payload_load(
            event.slug, event.payload.cpu_load, event.payload.network_load
        )
    return True
