"""Chaos soak: the supervised runtime against a hostile Internet.

Two studies exercise the degradation path end to end:

* :func:`run_chaos_soak` — one sweep under an aggressive
  :class:`~repro.net.chaos.FaultPlan` (hangs, stalls, poison bodies, an
  injected shard crash) with a tight sweep deadline.  The run must
  *complete degraded*: no exception, a partial report, and a
  :class:`~repro.core.coverage.CoverageReport` whose books balance and
  reconcile against the report's own totals.  CI runs this as a gate —
  a supervised sweep that crashes, hangs, or mis-accounts fails the job;
* :func:`run_chaos_coverage_study` — scales the same fault plan from
  zero to several times the soak severity and tabulates how the coverage
  fraction, quarantine counts, and MAV yield degrade, quantifying the
  "our results are a lower bound" caveat for the hostile-network
  component.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.apps.catalog import scanned_ports
from repro.core.coverage import CoverageReport
from repro.core.pipeline import ScanPipeline, ScanReport
from repro.core.retry import RetryPolicy
from repro.core.supervisor import SupervisorConfig
from repro.net.chaos import ChaosTransport, FaultPlan
from repro.net.population import PopulationModel, generate_internet
from repro.net.transport import InMemoryTransport
from repro.obs.telemetry import Telemetry
from repro.util.clock import SimClock
from repro.util.errors import ConfigError
from repro.util.tables import Table

#: The soak's weather: every fault family at once.  Severe enough that a
#: run *must* quarantine and hit its deadline, mild enough that most of
#: the frame is still covered — a sweep that degrades to nothing would
#: not exercise the accounting.
HOSTILE_PLAN = FaultPlan(
    syn_loss=0.05,
    request_loss=0.05,
    reset_rate=0.02,
    slow_rate=0.02,
    slow_latency=30.0,
    hang_rate=0.01,
    hang_latency=3600.0,
    stall_rate=0.01,
    stall_latency=120.0,
    poison_rate=0.05,
    truncate_rate=0.02,
)

#: Supervision for the soak: a per-probe watchdog well under the injected
#: hang, a sweep deadline the hostile run cannot meet, a hair-trigger
#: quarantine, and one injected crash of shard 0 (restarted, not fatal).
SOAK_SUPERVISOR = SupervisorConfig(
    deadline=120.0,
    probe_deadline=30.0,
    max_shard_restarts=2,
    quarantine_threshold=1,
    quarantine_block_threshold=4,
    stall_window=300.0,
    crash_shards=((0, 1),),
)


@dataclass
class ChaosSoakResult:
    """One supervised sweep through the storm."""

    plan: FaultPlan
    supervisor: SupervisorConfig
    report: ScanReport
    #: the pipeline's full observability handle (events, spans, metrics,
    #: flight recorder) so degraded-run telemetry can be exported and
    #: diffed exactly like the scan experiments'
    telemetry: object | None = None

    @property
    def coverage(self) -> CoverageReport:
        return self.report.coverage

    def render(self) -> str:
        return self.coverage.render()


def _hostile_pipeline(
    internet,
    plan: FaultPlan,
    supervisor: SupervisorConfig,
    seed: int,
    workers: int,
    profile: bool = False,
    console: object | None = None,
) -> ScanPipeline:
    clock = SimClock()
    transport = ChaosTransport(
        InMemoryTransport(internet), plan, seed=seed, clock=clock
    )
    return ScanPipeline(
        transport,
        scanned_ports(),
        seed=seed,
        fingerprint=False,
        retry_policy=RetryPolicy(max_attempts=3, base_delay=0.5, max_delay=8.0),
        clock=clock,
        workers=workers,
        # The sparse soak frame holds ~1 address per /24: shards of 64
        # blocks are big enough that a hostile shard can actually burn
        # its clock budget (and shard 0, the injected-crash target,
        # still exists many times over).
        shard_blocks=64,
        # Stage I sends SYNs without waiting, so a shard's clock moves
        # only in stages II/III, between batches: a quarter of a shard per
        # batch lets its later batches meet a clock the earlier ones ran.
        batch_size=16,
        supervisor=supervisor,
        profile=profile,
        console=console,
    )


def run_chaos_soak(
    seed: int = 13,
    workers: int = 2,
    plan: FaultPlan = HOSTILE_PLAN,
    supervisor: SupervisorConfig = SOAK_SUPERVISOR,
    profile: bool = False,
    console: object | None = None,
) -> ChaosSoakResult:
    """One hostile sweep that must complete degraded, books balanced.

    Raises :class:`~repro.util.errors.ConfigError` if the run fails any
    gate: it must finish (the supervisor's job), it must be *degraded*
    (otherwise the plan was not hostile and the soak proves nothing),
    and its coverage account must verify and reconcile (the fold checks
    this too — re-checked here so the gate does not rely on internals).
    """
    internet, _geo, _census = generate_internet(
        PopulationModel(awe_rate=0.002, vuln_rate=0.1, background_rate=1e-7)
    )
    pipeline = _hostile_pipeline(
        internet, plan, supervisor, seed, workers,
        profile=profile, console=console,
    )
    report = pipeline.run(internet.populated_addresses())

    coverage = report.coverage
    if not coverage.degraded:
        raise ConfigError(
            "chaos soak completed clean — the fault plan exercised nothing"
        )
    coverage.verify()
    coverage.reconcile(report)
    return ChaosSoakResult(
        plan=plan, supervisor=supervisor, report=report,
        telemetry=pipeline.telemetry,
    )


@dataclass(frozen=True)
class SeverityPoint:
    """Coverage under one multiple of the hostile plan."""

    severity: float
    coverage_fraction: float
    quarantined_hosts: int
    quarantined_blocks: int
    deadline_skipped: int
    unreachable: int
    mavs_found: int


@dataclass
class ChaosCoverageResult:
    points: list[SeverityPoint]
    #: per-arm telemetry folded in severity order (``--telemetry-out``
    #: support); ``None`` only for hand-built results
    telemetry: object | None = None

    def table(self) -> Table:
        table = Table(
            "Extension: coverage under scaled chaos (supervised runtime)",
            ("Severity", "Coverage", "Quarantined hosts", "Quarantined /24s",
             "Deadline-skipped", "Unreachable", "MAVs found"),
        )
        for point in self.points:
            table.add_row(
                f"{point.severity:g}x",
                f"{point.coverage_fraction:.1%}",
                point.quarantined_hosts,
                point.quarantined_blocks,
                point.deadline_skipped,
                point.unreachable,
                point.mavs_found,
            )
        return table


def run_chaos_coverage_study(
    severities: tuple[float, ...] = (0.0, 0.5, 1.0, 2.0, 4.0),
    seed: int = 13,
    workers: int = 2,
) -> ChaosCoverageResult:
    """Sweep one population as the fault plan scales from calm to brutal.

    Every severity sees the same frame, seeds, and supervision; only the
    fault rates change (``HOSTILE_PLAN.scaled``), so the coverage curve
    is attributable to the weather alone.  The injected shard crash is
    left out here — this study measures fault-driven degradation, not
    the restart ladder.
    """
    internet, _geo, _census = generate_internet(
        PopulationModel(awe_rate=0.002, vuln_rate=0.1, background_rate=1e-7)
    )
    addresses = internet.populated_addresses()
    supervisor = SupervisorConfig(
        # Ten times the soak's: generous enough that even the 4x arm
        # fits inside it, so the study shows where the weather's cost
        # lands (quarantine, yield) with stage-I coverage held whole.
        deadline=10 * SOAK_SUPERVISOR.deadline,
        probe_deadline=SOAK_SUPERVISOR.probe_deadline,
        quarantine_threshold=SOAK_SUPERVISOR.quarantine_threshold,
        quarantine_block_threshold=SOAK_SUPERVISOR.quarantine_block_threshold,
        stall_window=SOAK_SUPERVISOR.stall_window,
    )
    points = []
    merged = Telemetry()
    for severity in severities:
        pipeline = _hostile_pipeline(
            internet, HOSTILE_PLAN.scaled(severity), supervisor, seed, workers
        )
        report = pipeline.run(addresses)
        # Fold the arm's record in severity order: one deterministic
        # stream covering the whole study, diffable like any other run's.
        merged.events.info(
            "chaos-coverage", "severity-arm", severity=severity
        )
        merged.absorb_state(pipeline.telemetry.snapshot_state())
        coverage = report.coverage
        coverage.verify()
        coverage.reconcile(report)
        stages = coverage.stages.values()
        points.append(
            SeverityPoint(
                severity=severity,
                coverage_fraction=coverage.coverage_fraction(),
                quarantined_hosts=len(coverage.quarantined_hosts),
                quarantined_blocks=len(coverage.quarantined_blocks),
                deadline_skipped=sum(s.deadline_skipped for s in stages),
                unreachable=sum(s.unreachable for s in stages),
                mavs_found=len(report.vulnerable_ips()),
            )
        )
    return ChaosCoverageResult(points, telemetry=merged)
