"""The complete reproduction: all four studies plus the combined report.

Runs §3's scan, RQ3's observer, §4's honeypots, and §5's scanners on one
shared configuration, then renders every table and figure.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.longevity import HostStatus
from repro.analysis.tables import table9
from repro.experiments.config import StudyConfig
from repro.experiments.defenders import DefenderStudy, run_defender_study
from repro.experiments.honeypots import HoneypotStudy, run_honeypot_study
from repro.experiments.observe import ObserverStudy, run_observer_study
from repro.experiments.scan import ScanStudy, run_scan_study
from repro.util.tables import Table


@dataclass
class FullStudy:
    """All four studies, ready for rendering."""

    config: StudyConfig
    scan: ScanStudy
    observer: ObserverStudy
    honeypots: HoneypotStudy
    defenders: DefenderStudy

    def table9(self) -> Table:
        return table9(
            self.scan.report,
            self.scan.census,
            self.honeypots.attacks,
            self.defenders.detections(),
        )

    def render(self) -> str:
        """The full plain-text report: every table and figure."""
        from repro.analysis.report import render_text

        return render_text(self)

    def render_markdown(self) -> str:
        """The same report with markdown structure."""
        from repro.analysis.report import render_markdown

        return render_markdown(self)

    def _headline_numbers(self) -> str:
        counts = self.observer.final_counts()
        total_watched = len(self.observer.log.hosts)
        lines = [
            "Headline numbers (paper -> this run):",
            f"  MAV hosts found by the scan: 4,221 -> {self.scan.total_mavs():,}",
            f"  attacks on the honeypots: 2,195 -> {len(self.honeypots.attacks):,}",
            f"  attacked applications: 7 -> {len(self.honeypots.attacked_applications())}",
            f"  top-5 attacker share: 67% -> {100 * self.honeypots.top_share(5):.0f}%",
            f"  scanners detect 5 and 3 of 18 -> "
            + " and ".join(
                str(self.defenders.detected_count(name))
                for name in sorted(self.defenders.runs)
            ),
        ]
        if total_watched:
            lines.append(
                "  still vulnerable after 4 weeks: >50% -> "
                f"{100 * counts[HostStatus.VULNERABLE] / total_watched:.0f}%"
            )
        return "\n".join(lines)


def run_full_study(
    config: StudyConfig | None = None,
    supervisor: object | None = None,
) -> FullStudy:
    """Run the complete reproduction on one configuration.

    ``supervisor`` (a :class:`~repro.core.supervisor.SupervisorConfig`)
    runs the §3 sweep under the supervised runtime; the report then
    carries a coverage account, rendered in its own section.
    """
    config = config or StudyConfig.default()
    scan = run_scan_study(config, supervisor=supervisor)
    observer = run_observer_study(scan)
    honeypots = run_honeypot_study(
        config,
        geo=scan.geo,
        taken_ips={ip.value for ip in scan.internet.populated_addresses()},
    )
    defenders = run_defender_study()
    return FullStudy(
        config=config,
        scan=scan,
        observer=observer,
        honeypots=honeypots,
        defenders=defenders,
    )
