"""The longevity re-scan campaign (RQ3 / Figure 2).

The paper's four-week observation re-scans the same address frame every
three hours.  Done naively that is a full three-stage sweep per cadence
tick — at 100M addresses, hundreds of full sweeps.  This experiment runs
the campaign the way a real longitudinal study must: one recorded
baseline sweep, then an *incremental* re-scan per tick that replays the
unchanged hosts from the prior sweep and deep-probes only the hosts that
changed.

Between ticks the lifecycle model plays out against the simulated hosts
(owners go offline, complete installations, flip authentication on,
update versions).  Port-level churn is self-detected by the engine, host
by host, from stage I; content-level churn (a fix or version update that leaves
the open ports alone) is hinted via ``churned_blocks``, exactly the
signal a real campaign gets from CT logs or passive DNS.  Every sweep's
report classifies each watched host by *observation alone* — the plugin
fired → vulnerable; the application answers but the plugin stayed silent
→ fixed; no finding → offline — and Figure 2 is a view over that log.

The campaign is honest by construction: on sampled ticks the incremental
report is compared byte-for-byte against a from-scratch sequential sweep
of the whole frame, and every tick's funnel must reconcile.  A mismatch
raises :class:`~repro.util.errors.VerificationError` — this is a CI
gate, not a logged warning.
"""

from __future__ import annotations

import json
import random
from collections import Counter
from dataclasses import dataclass, field

from repro.analysis.figures import Figure2
from repro.analysis.longevity import HostStatus, ObservationLog, ObservedHost
from repro.apps.catalog import app_by_slug, scanned_ports
from repro.core.pipeline import ScanPipeline, ScanReport
from repro.core.rescan import RescanEngine, RescanState
from repro.core.serialize import report_to_dict
from repro.experiments.config import StudyConfig
from repro.net.intervals import BLOCK_MASK, CompressedPopulation, IntervalSet
from repro.net.lifecycle import Churn, Deployment, LifecycleModel
from repro.net.network import SimulatedInternet
from repro.net.population import generate_internet
from repro.net.transport import InMemoryTransport
from repro.obs.profile import wall_now
from repro.obs.telemetry import Telemetry
from repro.util.errors import VerificationError
from repro.util.tables import Table


@dataclass
class SweepCost:
    """What one sweep of the campaign actually cost."""

    index: int
    at_hours: float
    mode: str  # "baseline" | "incremental" | "oracle"
    churned_blocks: int
    syn_probes: int
    http_requests: int
    wall_seconds: float
    vulnerable: int
    verified: bool = False

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "at_hours": self.at_hours,
            "mode": self.mode,
            "churned_blocks": self.churned_blocks,
            "syn_probes": self.syn_probes,
            "http_requests": self.http_requests,
            "wall_seconds": self.wall_seconds,
            "vulnerable": self.vulnerable,
            "verified": self.verified,
        }


@dataclass
class ObserverStudy:
    """What the campaign observed of the hosts it watches."""

    log: ObservationLog
    sweep_count: int
    version_updates: int
    #: updates the campaign *measured* from the last sweep's fingerprints
    #: (vs the generator-side count above); the paper found 101 hosts (2.4%)
    observed_version_updates: int = 0
    #: sweep/status counters for the observation window
    telemetry: Telemetry | None = None

    def figure2(self) -> Figure2:
        return Figure2(self.log)

    def final_counts(self) -> dict[HostStatus, int]:
        return self.log.final_counts()


@dataclass
class LongevityStudy:
    """Results of the interval-compressed longevity campaign."""

    config: StudyConfig
    frame: IntervalSet
    baseline_cost: SweepCost
    sweeps: list[SweepCost] = field(default_factory=list)
    final_state: RescanState | None = None
    verified_sweeps: int = 0

    @property
    def sweep_count(self) -> int:
        return len(self.sweeps)

    def incremental_totals(self) -> dict[str, float]:
        return {
            "syn_probes": sum(s.syn_probes for s in self.sweeps),
            "http_requests": sum(s.http_requests for s in self.sweeps),
            "wall_seconds": sum(s.wall_seconds for s in self.sweeps),
        }

    def full_projection(self) -> dict[str, float]:
        """What the campaign would have cost as from-scratch sweeps."""
        n = len(self.sweeps)
        return {
            "syn_probes": self.baseline_cost.syn_probes * n,
            "http_requests": self.baseline_cost.http_requests * n,
            "wall_seconds": self.baseline_cost.wall_seconds * n,
        }

    def savings_factor(self) -> float:
        """HTTP-traffic ratio of from-scratch vs incremental sweeps."""
        spent = self.incremental_totals()["http_requests"]
        projected = self.full_projection()["http_requests"]
        if spent <= 0:
            return float("inf") if projected > 0 else 1.0
        return projected / spent

    def decay_curve(self) -> list[tuple[float, int]]:
        """(hours, still-vulnerable hosts) per sweep, baseline included."""
        curve = [(self.baseline_cost.at_hours, self.baseline_cost.vulnerable)]
        curve.extend((s.at_hours, s.vulnerable) for s in self.sweeps)
        return curve

    def table(self) -> Table:
        table = Table(
            "Longevity campaign: incremental vs from-scratch cost",
            ["sweep", "t (h)", "mode", "churned /24s", "SYN probes",
             "HTTP requests", "wall (s)", "vulnerable", "verified"],
        )
        table.add_row(
            0, f"{self.baseline_cost.at_hours:.0f}", self.baseline_cost.mode,
            "-", self.baseline_cost.syn_probes,
            self.baseline_cost.http_requests,
            f"{self.baseline_cost.wall_seconds:.2f}",
            self.baseline_cost.vulnerable,
            "yes" if self.baseline_cost.verified else "",
        )
        for sweep in self.sweeps:
            table.add_row(
                sweep.index, f"{sweep.at_hours:.0f}", sweep.mode,
                sweep.churned_blocks, sweep.syn_probes, sweep.http_requests,
                f"{sweep.wall_seconds:.2f}", sweep.vulnerable,
                "yes" if sweep.verified else "",
            )
        return table

    def render(self) -> str:
        totals = self.incremental_totals()
        projected = self.full_projection()
        lines = [
            self.table().render(),
            "",
            f"frame: {len(self.frame):,} addresses in {len(self.frame.runs):,} runs",
            f"incremental campaign: {totals['http_requests']:,.0f} HTTP requests, "
            f"{totals['syn_probes']:,.0f} SYN probes, "
            f"{totals['wall_seconds']:.1f}s wall",
            f"from-scratch projection: {projected['http_requests']:,.0f} HTTP "
            f"requests, {projected['syn_probes']:,.0f} SYN probes, "
            f"{projected['wall_seconds']:.1f}s wall",
            f"HTTP savings factor: {self.savings_factor():.1f}x "
            f"({self.verified_sweeps} sweeps verified byte-identical "
            f"against from-scratch oracles)",
        ]
        return "\n".join(lines)


def _report_digest(report) -> str:
    return json.dumps(report_to_dict(report), sort_keys=True)


def _observed(
    report: ScanReport, deployment: Deployment
) -> tuple[HostStatus, str | None]:
    """One watched deployment as one sweep's report shows it: the status,
    and the fingerprinted version while the watched app still answers."""
    finding = report.findings.get(deployment.host.ip.value)
    if finding is None:
        return HostStatus.OFFLINE, None
    observation = finding.observations.get(deployment.slug)
    if observation is None:  # answers, but no longer with the watched app
        return HostStatus.FIXED, None
    status = HostStatus.VULNERABLE if observation.vulnerable else HostStatus.FIXED
    return status, observation.version


#: frozen into every saved re-scan state, so a resumed campaign must match
_BATCH_SIZE = 16384


def run_longevity_study(
    config: StudyConfig | None = None,
    frame_addresses: int = 10_000_000,
    max_sweeps: int | None = None,
    verify_every: int = 8,
    resume_from: RescanState | None = None,
) -> LongevityStudy:
    """Run the campaign over an interval-compressed frame.

    ``frame_addresses`` sizes the interval frame (the paper's full scale
    is 100M; CI runs 10M).  ``resume_from`` continues a saved campaign
    over the frame it was saved with; it, ``max_sweeps`` and
    ``verify_every`` are :func:`run_campaign`'s.
    """
    config = config or StudyConfig.tiny()
    internet, _, _ = generate_internet(config.population)
    if resume_from is not None:
        frame = resume_from.frame
    else:
        frame = CompressedPopulation.build(
            internet, frame_addresses, seed=config.seed
        ).frame
    campaign, _ = run_campaign(
        config, internet, frame, max_sweeps=max_sweeps,
        verify_every=verify_every, resume_from=resume_from,
    )
    return campaign


def run_campaign(
    config: StudyConfig,
    internet: SimulatedInternet,
    frame: IntervalSet,
    planned_from: ScanReport | None = None,
    telemetry: Telemetry | None = None,
    max_sweeps: int | None = None,
    verify_every: int = 8,
    resume_from: RescanState | None = None,
) -> tuple[LongevityStudy, ObserverStudy]:
    """Baseline ``frame``, then re-scan it incrementally on the cadence.

    One fate is drawn per vulnerable host of ``planned_from`` (default:
    the baseline's own report), in that report's order, and each sweep's
    report is read into the observation log.  ``max_sweeps`` caps the
    cadence ticks for smoke runs; by default the cadence covers the whole
    observation window.  Every ``verify_every``-th sweep (and the last)
    is verified byte-for-byte against a from-scratch sequential sweep.
    ``resume_from`` continues a saved campaign: the baseline sweep is
    skipped and the first tick diffs against the loaded state.  The two
    results are the campaign's cost account and what it observed.
    """
    telemetry = telemetry or Telemetry()
    transport = InMemoryTransport(internet)
    engine = RescanEngine(
        transport,
        scanned_ports(),
        seed=config.seed,
        batch_size=_BATCH_SIZE,
        fingerprint=config.fingerprint,
    )

    def run_recorded(prior: RescanState | None, hints: set[int]) -> tuple[RescanState, SweepCost]:
        syn0 = transport.stats.syn_probes
        http0 = transport.stats.http_requests
        wall0 = wall_now()
        if prior is None:
            state = engine.baseline(frame)
        else:
            state = engine.rescan(frame, prior, churned_blocks=hints)
        cost = SweepCost(
            index=0,
            at_hours=0.0,
            mode="baseline" if prior is None else "incremental",
            churned_blocks=len(hints),
            syn_probes=transport.stats.syn_probes - syn0,
            http_requests=transport.stats.http_requests - http0,
            wall_seconds=wall_now() - wall0,
            vulnerable=len(state.report.vulnerable_ips()),
        )
        state.report.coverage.reconcile(state.report)
        return state, cost

    def verify(state: RescanState, label: str) -> SweepCost:
        """From-scratch oracle sweep; raises if the reports diverge.

        Also the campaign's measured "full sweep" cost: the projection
        column compares incremental sweeps against what an oracle sweep
        actually costs, not against the baseline's recording overhead.
        """
        syn0 = transport.stats.syn_probes
        http0 = transport.stats.http_requests
        wall0 = wall_now()
        oracle = ScanPipeline(
            transport,
            scanned_ports(),
            seed=config.seed,
            batch_size=_BATCH_SIZE,
            fingerprint=config.fingerprint,
        ).run(frame)
        cost = SweepCost(
            index=-1,
            at_hours=0.0,
            mode="oracle",
            churned_blocks=0,
            syn_probes=transport.stats.syn_probes - syn0,
            http_requests=transport.stats.http_requests - http0,
            wall_seconds=wall_now() - wall0,
            vulnerable=len(oracle.vulnerable_ips()),
        )
        if _report_digest(state.report) != _report_digest(oracle):
            raise VerificationError(
                f"{label}: incremental report diverged from the "
                f"from-scratch oracle sweep"
            )
        return cost

    revalidate: set[int] = set()
    if resume_from is not None:
        engine.check_prior(frame, resume_from)
        state = resume_from
        baseline_cost = SweepCost(
            index=0, at_hours=0.0, mode="resumed", churned_blocks=0,
            syn_probes=0, http_requests=0, wall_seconds=0.0,
            vulnerable=len(state.report.vulnerable_ips()),
        )
        # The world may have drifted arbitrarily while the campaign was
        # down, and content drift is invisible to stage I.  The
        # first resumed tick therefore re-validates every /24 the prior
        # sweep saw live; later ticks are hint-driven again.
        revalidate = {value & BLOCK_MASK for value in state.records}
    else:
        state, baseline_cost = run_recorded(None, set())
        oracle_cost = verify(state, "baseline")
        baseline_cost.verified = True
        # The projection uses the *oracle's* measured cost so incremental
        # sweeps are not compared against their own recording overhead.
        baseline_cost.syn_probes = oracle_cost.syn_probes
        baseline_cost.http_requests = oracle_cost.http_requests
        baseline_cost.wall_seconds = oracle_cost.wall_seconds

    study = LongevityStudy(
        config=config, frame=frame, baseline_cost=baseline_cost
    )

    deployments = LifecycleModel(window=config.observation_window).plan(
        random.Random(config.seed ^ 0xA11CE),
        [
            # one observed application per host, like the paper
            (internet.host_at(finding.ip), slugs[0])
            for finding in (planned_from or state.report).findings.values()
            if (slugs := finding.vulnerable_slugs)
        ],
    )
    log = ObservationLog()
    for d in deployments:
        version = d.host.app_instance(d.slug).version
        by_default = app_by_slug(d.slug).default_mav_in(version)
        log.register_host(ObservedHost(d.host.ip.value, d.slug, by_default, version))

    def observe(now: float, report: ScanReport) -> None:
        statuses = {d.host.ip.value: _observed(report, d)[0] for d in deployments}
        log.record_sweep(now, statuses)
        telemetry.metrics.counter("observer_sweeps_total").inc()
        for status, count in Counter(statuses.values()).items():
            telemetry.metrics.counter(
                "observer_status_total", status=status.value
            ).inc(count)

    observe(0.0, state.report)
    interval = config.rescan_interval
    total_ticks = int(config.observation_window // interval)
    if max_sweeps is not None:
        total_ticks = min(total_ticks, max_sweeps)

    updates = 0
    for tick in range(1, total_ticks + 1):
        now = tick * interval
        # Only content churn needs a hint; port churn is self-detected.
        hints, revalidate = revalidate, set()
        for deployment in deployments:
            changed = deployment.advance(now)
            if changed is Churn.NONE:
                continue
            if changed & Churn.CONTENT:
                hints.add(deployment.host.ip.value & BLOCK_MASK)
            if changed & Churn.UPDATED:
                updates += 1
        state, cost = run_recorded(state, hints)
        observe(now, state.report)
        cost.index = tick
        cost.at_hours = now / 3600.0
        if tick % verify_every == 0 or tick == total_ticks:
            oracle_cost = verify(state, f"sweep {tick}")
            cost.verified = True
            study.verified_sweeps += 1
            if study.baseline_cost.mode == "resumed" and study.verified_sweeps == 1:
                # A resumed campaign has no measured baseline; the first
                # oracle sweep stands in for the from-scratch cost.
                study.baseline_cost.syn_probes = oracle_cost.syn_probes
                study.baseline_cost.http_requests = oracle_cost.http_requests
                study.baseline_cost.wall_seconds = oracle_cost.wall_seconds
        study.sweeps.append(cost)

    study.final_state = state
    observed_updates = sum(
        1 for d in deployments
        if _observed(state.report, d)[1]
        not in (None, log.hosts[d.host.ip.value].version)
    )
    return study, ObserverStudy(
        log=log,
        sweep_count=len(log.sweeps),
        version_updates=updates,
        observed_version_updates=observed_updates,
        telemetry=telemetry,
    )
