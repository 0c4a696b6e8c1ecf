"""The four-week observer study (RQ3 / Figure 2).

After the initial scan, the paper re-scans every vulnerable host on a
three-hour cadence.  That is the longevity campaign
(:mod:`repro.experiments.longevity`) over one particular frame: the
addresses the scan found vulnerable, not the Internet.
"""

from __future__ import annotations

from repro.experiments.longevity import ObserverStudy, run_campaign
from repro.experiments.scan import ScanStudy
from repro.net.intervals import IntervalSet
from repro.net.population import generate_internet
from repro.obs.telemetry import Telemetry


def run_observer_study(
    study: ScanStudy, telemetry: Telemetry | None = None
) -> ObserverStudy:
    """Watch every detected-vulnerable host for the configured window.

    The owners' fates play out in a world rebuilt from the scan's
    population model, so ``study.internet`` stays a faithful image of
    scan time for later consumers (re-scans, disclosure planning).
    """
    internet, _, _ = generate_internet(study.config.population)
    watched = IntervalSet.from_values(
        value for value, finding in study.report.findings.items()
        if finding.vulnerable_slugs
    )
    # Every address of this frame is a live host, so an oracle sweep costs
    # five or six ticks: every 8th tick would be over a third of the campaign.
    _, observer = run_campaign(
        study.config, internet, watched,
        planned_from=study.report, telemetry=telemetry, verify_every=32,
    )
    return observer
