"""Data series behind the paper's Figures 1-4.

The benchmarks print these as text (the paper's figures are plots; our
harness regenerates the underlying series and summary statistics so the
shapes can be compared).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import networkx as nx

from repro.analysis.attacks import Attack, AttackerCluster, unique_attacks
from repro.analysis.longevity import HostStatus, ObservationLog
from repro.analysis.versions import BIN_LABELS, VersionedObservation, binned_counts
from repro.apps.catalog import in_scope_apps
from repro.util.clock import DAY


# ---------------------------------------------------------------------------
# Figure 1: release-date distribution, secure vs vulnerable
# ---------------------------------------------------------------------------

@dataclass
class Figure1:
    """Seven-bin release-date histograms."""

    overall_secure: dict[str, int]
    overall_vulnerable: dict[str, int]
    #: per-app detail for the paper's two highlighted products
    detail: dict[str, dict[str, dict[str, int]]] = field(default_factory=dict)

    @classmethod
    def build(
        cls,
        observations: list[VersionedObservation],
        detail_slugs: tuple[str, ...] = ("jupyter-notebook", "hadoop"),
    ) -> "Figure1":
        figure = cls(
            overall_secure=binned_counts(observations, vulnerable=False),
            overall_vulnerable=binned_counts(observations, vulnerable=True),
        )
        for slug in detail_slugs:
            figure.detail[slug] = {
                "secure": binned_counts(observations, slug=slug, vulnerable=False),
                "vulnerable": binned_counts(observations, slug=slug, vulnerable=True),
            }
        return figure

    def render(self) -> str:
        lines = ["Figure 1: software release dates (7 bins), secure vs vulnerable"]
        header = "group/bin".ljust(28) + "".join(label.rjust(8) for label in BIN_LABELS)
        lines.append(header)

        def row(label: str, counts: dict[str, int]) -> str:
            return label.ljust(28) + "".join(
                str(counts.get(bin_label, 0)).rjust(8) for bin_label in BIN_LABELS
            )

        lines.append(row("all/secure", self.overall_secure))
        lines.append(row("all/vulnerable", self.overall_vulnerable))
        for slug, groups in self.detail.items():
            lines.append(row(f"{slug}/secure", groups["secure"]))
            lines.append(row(f"{slug}/vulnerable", groups["vulnerable"]))
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# Figure 2: longevity curves
# ---------------------------------------------------------------------------

@dataclass
class Figure2:
    """Vulnerable / fixed / offline curves, by app and by default posture."""

    log: ObservationLog

    def curves_by_default(
        self, status: HostStatus
    ) -> dict[str, list[tuple[float, float]]]:
        return {
            "insecure-by-default": self.log.series(
                status, self.log.subset_by_default(True)
            ).points,
            "explicitly-modified": self.log.series(
                status, self.log.subset_by_default(False)
            ).points,
        }

    def curves_by_category(
        self, status: HostStatus
    ) -> dict[str, list[tuple[float, float]]]:
        """Per-category curves (the paper contrasts CI vs notebooks)."""
        out = {}
        for category in ("CI", "CMS", "CM", "NB", "CP"):
            slugs = {
                spec.slug for spec in in_scope_apps()
                if spec.category.short == category
            }
            subset = self.log.subset_by_category(slugs)
            if subset:
                out[category] = self.log.series(status, subset).points
        return out

    def render(self) -> str:
        lines = ["Figure 2: longevity of detected MAVs (fraction over days)"]
        marks = [0, 1, 3, 7, 14, 21, 28]
        header = "series".ljust(34) + "".join(f"d{m}".rjust(8) for m in marks)
        lines.append(header)

        def row(label: str, points: list[tuple[float, float]]) -> str:
            series_values = []
            for mark in marks:
                value = 0.0
                for when, fraction in points:
                    if when <= mark * DAY:
                        value = fraction
                series_values.append(f"{value:.2f}".rjust(8))
            return label.ljust(34) + "".join(series_values)

        for status in HostStatus:
            lines.append(f"-- {status.value} --")
            lines.append(row("all", self.log.series(status).points))
            for label, points in self.curves_by_default(status).items():
                lines.append(row(label, points))
            for label, points in self.curves_by_category(status).items():
                lines.append(row(f"category:{label}", points))
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# Figure 3: attack timeline
# ---------------------------------------------------------------------------

@dataclass
class Figure3:
    """Per-application attack timeline with new/repeated flags."""

    #: slug -> list of (time_seconds, is_new_payload)
    timeline: dict[str, list[tuple[float, bool]]]

    @classmethod
    def build(cls, attacks: list[Attack]) -> "Figure3":
        new_ids = {id(a) for a in unique_attacks(attacks)}
        timeline: dict[str, list[tuple[float, bool]]] = {}
        for attack in sorted(attacks, key=lambda a: a.start):
            timeline.setdefault(attack.honeypot, []).append(
                (attack.start, id(attack) in new_ids)
            )
        return cls(timeline)

    def daily_histogram(self, slug: str, days: int = 28) -> list[int]:
        counts = [0] * days
        for when, _is_new in self.timeline.get(slug, ()):
            index = min(days - 1, int(when // DAY))
            counts[index] += 1
        return counts

    def render(self) -> str:
        lines = ["Figure 3: attack timeline (attacks per day; * = any new payload that day)"]
        for slug in sorted(self.timeline):
            histogram = self.daily_histogram(slug)
            new_days = {
                int(when // DAY) for when, is_new in self.timeline[slug] if is_new
            }
            cells = [
                f"{count}{'*' if day in new_days else ''}".rjust(6)
                for day, count in enumerate(histogram)
            ]
            lines.append(slug.ljust(18) + "".join(cells))
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# Figure 4: attacker <-> application bipartite graph
# ---------------------------------------------------------------------------

@dataclass
class Figure4:
    """Cross-application attackers with their IPs and targets."""

    graph: nx.Graph
    multi_app_clusters: list[AttackerCluster]

    @classmethod
    def build(cls, clusters: list[AttackerCluster]) -> "Figure4":
        multi = [c for c in clusters if c.is_multi_app]
        graph = nx.Graph()
        for cluster in multi:
            graph.add_node(cluster.label, kind="attacker")
            for slug in cluster.honeypots:
                graph.add_node(f"app:{slug}", kind="application")
                graph.add_edge(cluster.label, f"app:{slug}")
            for ip in cluster.ips:
                graph.add_node(f"ip:{ip}", kind="ip")
                graph.add_edge(cluster.label, f"ip:{ip}")
        return cls(graph, multi)

    @property
    def total_multi_app_attacks(self) -> int:
        return sum(c.attack_count for c in self.multi_app_clusters)

    def render(self) -> str:
        lines = [
            "Figure 4: attackers hitting >= 2 applications "
            f"({len(self.multi_app_clusters)} attackers, "
            f"{self.total_multi_app_attacks} attacks)"
        ]
        for cluster in self.multi_app_clusters:
            apps = ", ".join(sorted(cluster.honeypots))
            lines.append(
                f"{cluster.label}: {cluster.attack_count} attacks, "
                f"{len(cluster.ips)} IPs -> {apps}"
            )
        return "\n".join(lines)
