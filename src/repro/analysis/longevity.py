"""Longevity analysis of vulnerable hosts (RQ3 / Figure 2).

The observer re-scans the vulnerable population every three hours for
four weeks; each sweep classifies every host as still *vulnerable*,
*fixed* (reachable, MAV gone), or *offline* (no response).  This module
stores those sweeps and derives the survival curves of Figure 2 — overall,
per application, and split by whether the MAV was an insecure default or
an explicit modification.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field


class HostStatus(enum.Enum):
    VULNERABLE = "vulnerable"
    FIXED = "fixed"
    OFFLINE = "offline"


@dataclass(frozen=True)
class ObservedHost:
    """Immutable facts about one observed host (from the initial scan)."""

    ip_value: int
    slug: str
    #: was the MAV an insecure default (vs explicit misconfiguration)?
    insecure_by_default: bool
    version: str | None = None


@dataclass
class ObservationLog:
    """All sweeps of the four-week observation."""

    hosts: dict[int, ObservedHost] = field(default_factory=dict)
    #: sweep time -> {ip_value: status}
    sweeps: dict[float, dict[int, HostStatus]] = field(default_factory=dict)

    def register_host(self, host: ObservedHost) -> None:
        self.hosts[host.ip_value] = host

    def record_sweep(self, time: float, statuses: dict[int, HostStatus]) -> None:
        missing = set(self.hosts) - set(statuses)
        if missing:
            raise ValueError(f"sweep at {time} missing {len(missing)} hosts")
        self.sweeps[time] = dict(statuses)

    @property
    def times(self) -> list[float]:
        return sorted(self.sweeps)

    def final_counts(self) -> dict[HostStatus, int]:
        if not self.sweeps:
            return {status: 0 for status in HostStatus}
        last = self.sweeps[self.times[-1]]
        counts = {status: 0 for status in HostStatus}
        for status in last.values():
            counts[status] += 1
        return counts

    def status_fraction(
        self, time: float, status: HostStatus, subset: set[int] | None = None
    ) -> float:
        sweep = self.sweeps[time]
        population = subset if subset is not None else set(self.hosts)
        if not population:
            return 0.0
        hits = sum(1 for ip in population if sweep.get(ip) == status)
        return hits / len(population)

    # -- subsets for Figure 2's grouping -----------------------------------

    def subset_by_default(self, insecure_by_default: bool) -> set[int]:
        return {
            ip for ip, host in self.hosts.items()
            if host.insecure_by_default == insecure_by_default
        }

    def subset_by_category(self, category_slugs: set[str]) -> set[int]:
        return {ip for ip, host in self.hosts.items() if host.slug in category_slugs}

    def series(
        self, status: HostStatus, subset: set[int] | None = None
    ) -> "LongevitySeries":
        points = [
            (time, self.status_fraction(time, status, subset))
            for time in self.times
        ]
        return LongevitySeries(status, points)

    # -- summary statistics -------------------------------------------------------

    def still_vulnerable_after(self, seconds: float) -> float:
        """Fraction of hosts still vulnerable at the first sweep >= t."""
        for time in self.times:
            if time >= seconds:
                return self.status_fraction(time, HostStatus.VULNERABLE)
        return self.status_fraction(self.times[-1], HostStatus.VULNERABLE)

    def mean_vulnerable_duration_by_app(self) -> dict[str, float]:
        """Average time each app's hosts stayed observed-vulnerable."""
        durations: dict[str, list[float]] = {}
        times = self.times
        if not times:
            return {}
        step = times[1] - times[0] if len(times) > 1 else 0.0
        for ip, host in self.hosts.items():
            total = 0.0
            for time in times:
                if self.sweeps[time].get(ip) == HostStatus.VULNERABLE:
                    total += step
            durations.setdefault(host.slug, []).append(total)
        return {
            slug: sum(values) / len(values)
            for slug, values in durations.items()
            if values
        }


@dataclass(frozen=True)
class LongevitySeries:
    """One curve of Figure 2: fraction-in-status over time."""

    status: HostStatus
    points: list[tuple[float, float]]

    def at(self, time: float) -> float:
        best = 0.0
        for when, value in self.points:
            if when <= time:
                best = value
            else:
                break
        return best

    def final(self) -> float:
        return self.points[-1][1] if self.points else 0.0
