"""The Internet-wide scan study (paper §3).

Generates the calibrated Internet, runs the three-stage pipeline over it,
and exposes everything the analysis layer needs for Tables 2-4 and
Figure 1.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis import versions as version_analysis
from repro.analysis.figures import Figure1
from repro.analysis.tables import table2, table3, table4
from repro.apps.catalog import scanned_ports
from repro.core.pipeline import ScanPipeline, ScanReport
from repro.experiments.config import StudyConfig
from repro.net.geo import GeoDatabase
from repro.net.network import SimulatedInternet
from repro.net.population import Census, generate_internet
from repro.net.transport import InMemoryTransport
from repro.obs.telemetry import Telemetry
from repro.util.tables import Table


@dataclass
class ScanStudy:
    """Everything §3 produced."""

    config: StudyConfig
    internet: SimulatedInternet
    geo: GeoDatabase
    census: Census
    transport: InMemoryTransport
    pipeline: ScanPipeline
    report: ScanReport

    @property
    def telemetry(self) -> Telemetry:
        """The pipeline's shared observability handle."""
        return self.pipeline.telemetry

    # -- analysis products ---------------------------------------------------

    def table2(self) -> Table:
        return table2(self.report, self.census, scanned_ports())

    def table3(self) -> Table:
        return table3(self.report, self.census)

    def table4(self) -> Table:
        return table4(self.report.vulnerable_ips(), self.geo)

    def figure1(self) -> Figure1:
        observations = version_analysis.to_versioned(self.report.observations())
        return Figure1.build(observations)

    def total_mavs(self) -> int:
        return len(self.report.vulnerable_ips())


def run_scan_study(
    config: StudyConfig | None = None,
    workers: int | None = None,
    executor: str = "thread",
    supervisor: object | None = None,
    profile: bool = False,
    console: object | None = None,
) -> ScanStudy:
    """Generate the Internet and sweep it with the full pipeline.

    ``workers`` dispatches the sweep to the sharded parallel engine; the
    report and telemetry are byte-identical for every worker count, so
    the analysis products do not depend on it.  ``executor`` picks the
    engine's backend ("thread" or "process" — byte-identical too; only
    "process" escapes the GIL).  ``supervisor`` (a
    :class:`~repro.core.supervisor.SupervisorConfig`) runs the sweep
    under the supervised runtime — deadlines, quarantine, and coverage
    accounting — which also implies the sharded engine.  ``profile``
    arms span profiling (wall attribution in ``pipeline.wall_profile``;
    canonical output unchanged), and ``console`` attaches a
    :class:`~repro.obs.console.ConsoleHub` for live observation.
    """
    config = config or StudyConfig.default()
    internet, geo, census = generate_internet(config.population)
    transport = InMemoryTransport(internet)
    pipeline = ScanPipeline(
        transport,
        scanned_ports(),
        seed=config.seed,
        fingerprint=config.fingerprint,
        workers=workers,
        executor=executor,
        supervisor=supervisor,
        profile=profile,
        console=console,
    )
    report = pipeline.run(internet.populated_addresses())
    return ScanStudy(
        config=config,
        internet=internet,
        geo=geo,
        census=census,
        transport=transport,
        pipeline=pipeline,
        report=report,
    )
