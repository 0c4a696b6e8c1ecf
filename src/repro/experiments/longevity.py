"""The longevity re-scan campaign over an interval-compressed frame.

The paper's four-week observation re-scans the same address frame every
three hours.  Done naively that is a full three-stage sweep per cadence
tick — at 100M addresses, hundreds of full sweeps.  This experiment runs
the campaign the way a real longitudinal study must: one recorded
baseline sweep, then an *incremental* re-scan per tick that replays the
unchanged hosts from the prior sweep and deep-probes only the /24s that
churned.

Between ticks the lifecycle model plays out against the simulated hosts
(owners go offline, complete installations, flip authentication on,
update versions).  Port-level churn is self-detected by the engine's
stage-I diff; content-level churn (a fix or version update that leaves
the open ports alone) is hinted via ``churned_blocks``, exactly the
signal a real campaign gets from CT logs or passive DNS.

The campaign is honest by construction: on sampled ticks the incremental
report is compared byte-for-byte against a from-scratch sequential sweep
of the whole frame, and every tick's funnel must reconcile.  A mismatch
raises :class:`~repro.util.errors.VerificationError` — this is a CI
gate, not a logged warning.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field

from repro.apps.catalog import scanned_ports
from repro.apps.versions import RELEASE_DB
from repro.core.pipeline import ScanPipeline
from repro.core.rescan import RescanEngine, RescanState
from repro.core.serialize import report_to_dict
from repro.experiments.config import StudyConfig
from repro.net.intervals import BLOCK_MASK, CompressedPopulation, IntervalSet
from repro.net.lifecycle import Fate, FateKind, LifecycleModel
from repro.net.network import SimulatedInternet
from repro.net.population import generate_internet
from repro.net.transport import InMemoryTransport
from repro.obs.profile import wall_now
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
class _Deployment:
    """One vulnerable deployment under lifecycle churn."""

    ip_value: int
    slug: str
    fate: Fate
    exit_applied: bool = False
    update_applied: bool = False


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


def _plan_deployments(
    internet: SimulatedInternet,
    state: RescanState,
    lifecycle: LifecycleModel,
    rng: random.Random,
) -> list[_Deployment]:
    """One lifecycle fate per vulnerable host found by the baseline."""
    deployments = []
    for finding in state.report.findings.values():
        for slug in finding.vulnerable_slugs:
            host = internet.host_at(finding.ip)
            app = host.app_instance(slug) if host else None
            if app is None:
                continue
            deployments.append(
                _Deployment(
                    ip_value=finding.ip.value,
                    slug=slug,
                    fate=lifecycle.fate_for(rng, slug, app.version),
                )
            )
            break  # one observed application per host, like the paper
    return deployments


def _apply_churn(
    internet: SimulatedInternet, deployments: list[_Deployment], now: float
) -> tuple[set[int], set[int]]:
    """Advance every deployment's fate to time ``now``.

    Returns ``(content_blocks, port_blocks)``: /24 bases whose hosts
    changed *content* (fix, version update — invisible to stage I, must
    be hinted) and bases whose hosts changed their *port picture*
    (offline — the engine self-detects these from the stage-I diff).
    """
    from repro.net.ipv4 import IPv4Address

    content_blocks: set[int] = set()
    port_blocks: set[int] = set()
    for record in deployments:
        host = internet.host_at(IPv4Address(record.ip_value))
        if host is None:
            continue
        fate = record.fate
        block = record.ip_value & BLOCK_MASK

        if (
            fate.update_time is not None
            and now >= fate.update_time
            and not record.update_applied
        ):
            record.update_applied = True
            if host.online:
                app = host.app_instance(record.slug)
                if app is not None:
                    next_release = RELEASE_DB.next_release_after(
                        record.slug,
                        RELEASE_DB.release_date(record.slug, app.version),
                    )
                    if next_release is not None:
                        app.version = next_release.version
                        content_blocks.add(block)

        if (
            fate.exit_time is not None
            and now >= fate.exit_time
            and not record.exit_applied
        ):
            record.exit_applied = True
            if fate.kind is FateKind.OFFLINE:
                host.take_offline()
                port_blocks.add(block)
            elif fate.kind is FateKind.FIXED and host.online:
                app = host.app_instance(record.slug)
                if app is not None and app.is_vulnerable():
                    try:
                        app.secure()
                        content_blocks.add(block)
                    except NotImplementedError:
                        host.take_offline()  # no auth knob to flip
                        port_blocks.add(block)
    return content_blocks, port_blocks


def run_longevity_study(
    config: StudyConfig | None = None,
    frame_addresses: int = 10_000_000,
    max_sweeps: int | None = None,
    verify_every: int = 8,
    batch_size: int = 16384,
    resume_from: RescanState | None = None,
) -> LongevityStudy:
    """Run the incremental longevity campaign.

    ``frame_addresses`` sizes the interval frame (the paper's full scale
    is 100M; CI runs 10M).  ``max_sweeps`` caps the cadence ticks for
    smoke runs; by default the cadence covers the whole observation
    window.  Every ``verify_every``-th sweep (and the last) is verified
    byte-for-byte against a from-scratch sequential sweep.
    ``resume_from`` continues a saved campaign: the baseline sweep is
    skipped and the first tick diffs against the loaded state.
    """
    config = config or StudyConfig.tiny()
    internet, _, _ = generate_internet(config.population)
    transport = InMemoryTransport(internet)
    if resume_from is not None:
        frame = resume_from.frame
    else:
        frame = CompressedPopulation.build(
            internet, frame_addresses, seed=config.seed
        ).frame
    engine = RescanEngine(
        transport,
        scanned_ports(),
        seed=config.seed,
        batch_size=batch_size,
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
            batch_size=batch_size,
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
        # down, and content drift is invisible to the stage-I diff.  The
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

    lifecycle = LifecycleModel(window=config.observation_window)
    rng = random.Random(config.seed ^ 0xA11CE)
    deployments = _plan_deployments(internet, state, lifecycle, rng)

    interval = config.rescan_interval
    total_ticks = int(config.observation_window // interval)
    if max_sweeps is not None:
        total_ticks = min(total_ticks, max_sweeps)

    for tick in range(1, total_ticks + 1):
        now = tick * interval
        content_blocks, _port_blocks = _apply_churn(internet, deployments, now)
        # Only content churn needs a hint; port churn is self-detected.
        state, cost = run_recorded(state, content_blocks | revalidate)
        revalidate = set()
        cost.index = tick
        cost.at_hours = now / 3600.0
        if tick % verify_every == 0 or tick == total_ticks:
            oracle_cost = verify(state, f"sweep {tick}")
            cost.verified = True
            study.verified_sweeps += 1
            if study.baseline_cost.mode == "resumed":
                # A resumed campaign has no measured baseline; the first
                # oracle sweep stands in for the from-scratch cost.
                study.baseline_cost.syn_probes = oracle_cost.syn_probes
                study.baseline_cost.http_requests = oracle_cost.http_requests
                study.baseline_cost.wall_seconds = oracle_cost.wall_seconds
        study.sweeps.append(cost)

    study.final_state = state
    return study
