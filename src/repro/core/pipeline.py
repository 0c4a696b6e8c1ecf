"""The three-stage scanning pipeline (orchestration).

Wires stage I (masscan) → stage II (prefilter) → stage III (Tsunami) and
the version fingerprinter together, with the paper's interleaving: the
port scan yields batches, and each batch flows through the later stages
before the sweep continues, "to prevent running the next two stages on
hosts that went offline in the meantime".

The pipeline only sees a :class:`~repro.net.transport.Transport`; it runs
unchanged against the simulator or a real loopback socket.

Resilience (§6.2's "lower bound" gap): an optional
:class:`~repro.core.retry.RetryPolicy` threads one shared
:class:`~repro.core.retry.RetryExecutor` — with a per-host/per-/24
circuit breaker — through stages II and III (stage I only re-sends SYNs
up to the policy's attempts), and an optional
:class:`~repro.core.checkpoint.Checkpointer` persists progress at batch
boundaries so a killed sweep resumes without re-scanning.
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass, field, fields
from typing import Iterable

from repro.core.checkpoint import GROWTH, Checkpointer, check_config_matches
from repro.core.coverage import CoverageReport
from repro.core.fingerprint.fingerprinter import Fingerprint, VersionFingerprinter
from repro.core.fingerprint.knowledge_base import (
    KnowledgeBase,
    build_default_knowledge_base,
)
from repro.core.masscan import BlockPlan, Masscan, PortScanResult
from repro.core.prefilter import Prefilter, PrefilterFinding
from repro.core.retry import CircuitBreaker, RetryExecutor, RetryPolicy, RetryStats
from repro.core.tsunami.engine import TsunamiEngine
from repro.core.tsunami.plugin import DetectionReport
from repro.net.chaos import FaultPlan
from repro.net.http import Scheme
from repro.net.intervals import BLOCK_MASK, FrameLike, IntervalSet, as_frame
from repro.net.ipv4 import IPv4Address
from repro.net.transport import stream_layer, transport_layers
from repro.obs.profile import ProfileRollup, WallProfile, wall_now
from repro.obs.telemetry import Telemetry
from repro.util.clock import SimClock
from repro.util.rand import stable_hash


@dataclass
class AppObservation:
    """Everything the pipeline learned about one application on one host."""

    ip: IPv4Address
    slug: str
    port: int
    scheme: Scheme
    vulnerable: bool = False
    detection: DetectionReport | None = None
    fingerprint: Fingerprint | None = None

    @property
    def version(self) -> str | None:
        return self.fingerprint.version if self.fingerprint else None

    def __reduce__(self):
        return AppObservation, (self.ip, self.slug, self.port, self.scheme,
                                self.vulnerable, self.detection, self.fingerprint)


@dataclass
class HostFinding:
    """Stage-II/III results for one responsive host."""

    ip: IPv4Address
    observations: dict[str, AppObservation] = field(default_factory=dict)

    def __reduce__(self):
        return HostFinding, (self.ip, self.observations)

    @property
    def slugs(self) -> tuple[str, ...]:
        return tuple(sorted(self.observations))

    @property
    def vulnerable_slugs(self) -> tuple[str, ...]:
        return tuple(
            sorted(s for s, o in self.observations.items() if o.vulnerable)
        )

    @property
    def is_vulnerable(self) -> bool:
        """:attr:`vulnerable_slugs` as a yes/no, without sorting a tuple
        (an ``any`` as a loop: twice a sweep for every finding)."""
        for observation in self.observations.values():
            if observation.vulnerable:
                return True
        return False


@dataclass
class HostRecord:
    """One open host's stage-II/III contribution to a sweep: a re-scan
    ledger entry (see repro.core.rescan).

    What replaying the host without touching the network needs beyond the
    sweep's report: the responses it gave stage II (in probe order), and
    whether the prefilter sent it on to stage III, whose finding the
    report holds.  Records are the unit of reuse *and* the unit of
    checkpointing, which is what makes resumed and uninterrupted
    incremental passes bit-identical.
    """

    value: int
    #: ``(port, scheme value)`` pairs in the order stage II recorded them
    responses: tuple[tuple[int, str], ...] = ()
    #: whether the host reached stage III (its finding is in the report)
    finding: bool = False

    def to_dict(self) -> dict:
        return {
            "ip": self.value,
            "responses": [[port, scheme] for port, scheme in self.responses],
            "finding": self.finding,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "HostRecord":
        return cls(
            value=int(payload["ip"]),
            responses=tuple(
                (int(port), str(scheme)) for port, scheme in payload["responses"]
            ),
            # a version-1 record holds the finding itself, or None
            finding=bool(payload["finding"]),
        )


@dataclass
class ScanReport:
    """Aggregate output of one full pipeline run."""

    port_scan: PortScanResult = field(default_factory=PortScanResult)
    http_responses: dict[int, int] = field(default_factory=dict)
    https_responses: dict[int, int] = field(default_factory=dict)
    findings: dict[int, HostFinding] = field(default_factory=dict)
    #: what the resilience layer did (zeros when no RetryPolicy is set)
    retry_stats: RetryStats = field(default_factory=RetryStats)
    #: per-stage scanned/dropped/quarantined/skipped accounting
    coverage: CoverageReport = field(default_factory=CoverageReport)

    def finding_for(self, ip: IPv4Address) -> HostFinding:
        finding = self.findings.get(ip.value)
        if finding is None:
            finding = HostFinding(ip)
            self.findings[ip.value] = finding
        return finding

    # -- Table-3-shaped accessors ------------------------------------------

    def hosts_per_app(self) -> dict[str, int]:
        """Hosts running each application (counted once per host)."""
        counts: dict[str, int] = {}
        for finding in self.findings.values():
            for slug in finding.observations:
                counts[slug] = counts.get(slug, 0) + 1
        return counts

    def mavs_per_app(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for finding in self.findings.values():
            for slug in finding.vulnerable_slugs:
                counts[slug] = counts.get(slug, 0) + 1
        return counts

    def vulnerable_ips(self) -> list[IPv4Address]:
        return [
            finding.ip
            for finding in self.findings.values()
            if finding.is_vulnerable
        ]

    def vulnerable_values(self) -> set[int]:
        """The values of :meth:`vulnerable_ips`, as a set."""
        return {
            value for value, finding in self.findings.items()
            if finding.is_vulnerable
        }

    def observations(self) -> list[AppObservation]:
        return [
            observation
            for finding in self.findings.values()
            for observation in finding.observations.values()
        ]

    def total_awe_hosts(self) -> int:
        return len(self.findings)

    @property
    def detections(self) -> tuple[DetectionReport, ...]:
        """Each observation's detection, host by host: a view of the
        findings, not a second copy of them."""
        return tuple(
            observation.detection
            for finding in self.findings.values()
            for observation in finding.observations.values()
            if observation.detection is not None
        )

    def merge(self, other: "ScanReport") -> None:
        self.port_scan.merge(other.port_scan)
        for port, count in other.http_responses.items():
            self.http_responses[port] = self.http_responses.get(port, 0) + count
        for port, count in other.https_responses.items():
            self.https_responses[port] = self.https_responses.get(port, 0) + count
        self.findings.update(other.findings)
        self.retry_stats.merge(other.retry_stats)
        self.coverage.merge(other.coverage)


#: /24 blocks per shard when ``ScanPipeline.workers`` is set; small
#: enough to balance load, large enough to keep the per-shard pipeline
#: setup and fold costs amortised on sparse census frames (~1 populated
#: address per block)
DEFAULT_SHARD_BLOCKS = 256

#: shard execution backends (the ``ScanPipeline.executor`` field)
EXECUTORS = ("thread", "process")

_HTTP = Scheme.HTTP.value

#: The ``ScanPipeline`` fields a sweep's output does not depend on (the
#: reasons: DESIGN.md §6).  Every other field goes into :func:`resume_key`,
#: so a field added later is refused across a resume until named here.
OUTPUT_NEUTRAL = frozenset({
    "transport", "clock", "telemetry", "console", "profile", "workers",
    "executor", "mp_start_method", "supervision", "circuit_breaker",
    "knowledge_base",
})


@dataclass
class _JournalMarks:
    """How much of each append-only section the checkpoint journal holds.

    Batches partition the address space and the telemetry records only
    append, so nothing before a mark can change: a save serialises the
    entries past it and nothing else.
    """

    open_ports: int = 0
    findings: int = 0
    events: int = 0
    spans: int = 0
    responsive_hosts: set[int] = field(default_factory=set)


@dataclass
class ScanPipeline:
    """Configurable three-stage pipeline."""

    journal_engine = "sequential"  # the ``engine`` its checkpoints name

    transport: object  # Transport; typed loosely to avoid import cycles in docs
    ports: tuple[int, ...]
    seed: int = 0
    batch_size: int = 4096
    fingerprint: bool = True
    use_prefilter: bool = True
    knowledge_base: KnowledgeBase | None = None
    #: retry failed transport operations with backoff (None = fail fast)
    retry_policy: RetryPolicy | None = None
    #: time source for backoff charging and breaker cooldowns
    clock: SimClock | None = None
    #: stops hammering dead targets; built when a policy is set
    circuit_breaker: CircuitBreaker | None = field(default=None, init=False)
    #: shared observability handle; auto-created on the pipeline clock
    telemetry: Telemetry | None = None
    #: shard the sweep over this many workers: threads, or processes that
    #: compute shards, the parent included (None = the sequential engine).
    #: Output is byte-identical for every count; see repro.core.parallel.
    workers: int | None = None
    #: /24 blocks per shard when ``workers`` is set
    shard_blocks: int = DEFAULT_SHARD_BLOCKS
    #: shard execution backend when ``workers`` is set: "thread" (shared
    #: memory, GIL-bound) or "process" (true multicore — the shard runner
    #: crosses the pickle boundary once per child).  Output is
    #: byte-identical either way; see repro.core.parallel.
    executor: str = "thread"
    #: multiprocessing start method for the process executor (None =
    #: the REPRO_MP_START_METHOD env var, falling back to "spawn")
    mp_start_method: str | None = None
    #: a SupervisorConfig: run the sweep's shards under the supervised
    #: runtime (escalation ladder, deadlines, quarantine); typed loosely
    #: to keep this module import-cycle-free with repro.core.supervisor
    supervisor: object | None = None
    #: runtime supervision handle for a shard-local pipeline — set by a
    #: supervised shard runner, never by callers
    supervision: object | None = None
    #: arm wall-clock span stamps and wall-time attribution.  Profiling
    #: never changes canonical output: wall numbers live only in the
    #: ``wall_profile`` side book (see repro.obs.profile).
    profile: bool = False
    #: a ConsoleHub (repro.obs.console) to notify of sweep progress
    console: object | None = None

    def __post_init__(self) -> None:
        # Refused here, before a sweep has emitted anything.
        if self.batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        if self.workers is not None and self.workers < 1:
            raise ValueError("workers must be at least 1")
        if self.shard_blocks < 1:
            raise ValueError("shard_blocks must be at least 1")
        if self.executor not in EXECUTORS:
            raise ValueError(
                f"unknown executor {self.executor!r}; pick from {EXECUTORS}"
            )
        if self.telemetry is None:
            self.telemetry = Telemetry(clock=self.clock)
        if self.profile:
            self.telemetry.tracer.wall_clock = wall_now
        #: diagnostic wall-time book for the last run (empty when
        #: profiling is off); filled on the main thread only
        self.wall_profile = WallProfile()
        #: per-shard SimClock rollups from the last parallel run (empty
        #: when profiling is off or the run was sequential)
        self.shard_profiles: dict[int, ProfileRollup] = {}
        # Telemetry-aware transports (ChaosTransport) join the shared
        # handle unless the caller wired their own.
        for layer in transport_layers(self.transport):
            if hasattr(layer, "telemetry"):
                if layer.telemetry is None:
                    layer.telemetry = self.telemetry
                break
        if self.retry_policy is not None:
            self.circuit_breaker = CircuitBreaker(
                clock=self.clock, telemetry=self.telemetry
            )
            self._retry = RetryExecutor(
                self.retry_policy,
                rng=random.Random(stable_hash(self.seed, "retry")),
                clock=self.clock,
                breaker=self.circuit_breaker,
                telemetry=self.telemetry,
                supervision=self.supervision,
            )
        else:
            self._retry = None
        self._coverage = CoverageReport()
        self._masscan = Masscan(
            self.transport, self.ports, rng=random.Random(self.seed),
            retry=self._retry, telemetry=self.telemetry,
            supervision=self.supervision,
        )
        self._engine = TsunamiEngine(
            self.transport, retry=self._retry, telemetry=self.telemetry
        )
        self._prefilter = Prefilter(
            self.transport, retry=self._retry, telemetry=self.telemetry,
            unfiltered=(
                None if self.use_prefilter
                else tuple(p.slug for p in self._engine.plugins)
            ),
        )
        if self.fingerprint:
            if self.knowledge_base is None:
                # Kept, so shards and a re-scan engine's later sweeps share it.
                self.knowledge_base = build_default_knowledge_base()
            self._fingerprinter = VersionFingerprinter(
                self.transport, self.knowledge_base,
                retry=self._retry, telemetry=self.telemetry,
            )
        else:
            self._fingerprinter = None
        #: this sweep's vulnerable hosts (values), counted as stage III
        #: finds them: the tsunami funnel's count, and what a re-scan of
        #: this sweep carries for the hosts it replays
        self.vulnerable: set[int] = set()
        #: a re-scan's ledger (repro.core.rescan), None for a plain sweep:
        #: this sweep's record of each open host, replayed or fresh
        self.records: dict[int, HostRecord] | None = None
        #: the sweep a re-scan replays from (a RescanState: its open
        #: ports, ledger, findings and vulnerable set), None: probe all
        self.prior = None
        #: /24 bases the caller says may have changed behind unchanged ports
        self.hinted: set[int] = set()
        #: a re-scan campaign's block plan (Masscan.plan_blocks), made
        #: once for all its sweeps; None: stage I plans for this run
        self.block_plan: BlockPlan | None = None

    @property
    def engine(self) -> TsunamiEngine:
        return self._engine

    @property
    def prefilter(self) -> Prefilter:
        return self._prefilter

    @property
    def retry(self) -> RetryExecutor | None:
        return self._retry

    def run(
        self,
        candidates: FrameLike,
        checkpoint: Checkpointer | None = None,
    ) -> ScanReport:
        """Sweep ``candidates`` through all three stages.

        With a :class:`~repro.core.checkpoint.Checkpointer`, progress is
        persisted at batch boundaries, and an existing checkpoint file is
        resumed: already-scanned addresses are skipped and every seeded
        component continues its random sequence where it stopped, so the
        final report equals an uninterrupted run's bit-for-bit.

        With ``workers`` or ``supervisor`` set, the sweep is dispatched
        to the sharded engine instead: shard-local pipelines run
        concurrently and are folded deterministically (checkpoints then
        live at shard boundaries).  Under ``supervisor`` each shard runs
        inside an escalation ladder with deadlines, watchdogs, and
        quarantine, and a degraded run returns a partial report whose
        coverage ledger says exactly what was given up.
        """
        if self.workers is not None or self.supervisor is not None:
            from repro.core.parallel import ParallelScanEngine

            return ParallelScanEngine(self).run(candidates, checkpoint)
        tel = self.telemetry
        if self.console is not None:
            self.console.attach_telemetry(tel)
        report = ScanReport()
        completed = 0
        batches_done = 0
        # The books a report folds start empty, so a second run() on one
        # pipeline reports itself alone (a resume re-seats them).
        self._coverage = CoverageReport()
        stats = self._prefilter.stats
        stats.http_responses, stats.https_responses = {}, {}
        stats.responsive_hosts = set()
        self.vulnerable = set()
        self._journal = _JournalMarks()
        payload = None
        if checkpoint is not None:
            candidates = as_frame(candidates, exclude_reserved=False)
            self._key = resume_key(self, self.journal_engine, candidates)
            payload = checkpoint.load()
        if payload is not None:
            completed, batches_done, report = self._restore_checkpoint(payload)
        else:
            tel.events.info(
                "pipeline", "sweep-start",
                ports=len(self.ports), batch_size=self.batch_size,
            )
            tel.tracer.start("sweep")
        for batch in self._masscan.scan_in_batches(
            candidates, self.batch_size, skip=completed, plan=self.block_plan
        ):
            report.port_scan.merge(batch)
            self._run_batch(batch, batches_done, report)
            completed += batch.addresses_scanned
            batches_done += 1
            if self.supervision is not None:
                self.supervision.heartbeat(completed)
            if checkpoint is not None and checkpoint.due(batches_done):
                self._fold_stats(report)
                checkpoint.save(
                    self._checkpoint_payload(completed, batches_done, report)
                )
        if self.supervision is not None:
            self._finish_supervised(completed)
        sweep_span = tel.tracer.active
        sweep_span.attrs["addresses"] = report.port_scan.addresses_scanned
        sweep_span.attrs["batches"] = batches_done
        tel.tracer.end(sweep_span)
        tel.events.info(
            "pipeline", "sweep-complete",
            addresses=report.port_scan.addresses_scanned,
            awe_hosts=report.total_awe_hosts(),
            # the ledger is this run's, so it counts vulnerable_ips()
            mav_hosts=self._coverage.stages["tsunami"].completed,
        )
        self._fold_stats(report)
        if checkpoint is not None:
            checkpoint.clear()  # a completed sweep must not be "resumed"
        if self.profile:
            self.wall_profile.note_rollup(
                ProfileRollup.from_spans(tel.tracer.finished)
            )
        if self.console is not None:
            self.console.finish_sweep(report)
        return report

    # -- internals -----------------------------------------------------------

    def _run_batch(
        self, batch: PortScanResult, index: int, report: ScanReport
    ) -> None:
        """One stage-I batch through stages II/III, inside its span."""
        tel = self.telemetry
        batch_span = tel.tracer.start("batch", index=index)
        self._run_later_stages(batch, report)
        batch_span.attrs["addresses"] = batch.addresses_scanned
        tel.tracer.end(batch_span)
        # The batch boundary bounds what another thread's view of the
        # registry (the console) can be missing.
        tel.metrics.publish()
        tel.events.info(
            "pipeline", "batch-complete",
            index=index,
            addresses=batch.addresses_scanned,
            open_hosts=len(batch.open_ports),
        )

    def _run_later_stages(self, batch: PortScanResult, report: ScanReport) -> None:
        tel = self.telemetry
        sup = self.supervision
        # Addresses the quarantine gate refused to probe at all: they
        # entered stage I but left through the quarantined door.
        gate_skips = sup.drain_gate_skips() if sup is not None else 0
        entered = batch.addresses_scanned + gate_skips
        open_ports = batch.open_ports
        open_hosts = len(open_ports)
        # Batches partition the address space, so per-batch funnel charges
        # sum to exactly the ScanReport totals.
        tel.funnel("masscan", entered, open_hosts, quarantined=gate_skips)
        self._coverage.charge(
            "masscan", entered, open_hosts, quarantined=gate_skips
        )
        # Hosts in sorted order, replayed or fresh, so a re-scan's tallies
        # and findings interleave as a from-scratch sweep's do.  With a
        # prior sweep, a host replays when stage I found it with the open
        # ports the prior found, its /24 is not hinted and the prior's
        # ledger holds it (everything the rule reads is the host's own).
        # A replayed host is folded in place, without the network: the
        # tally of its recorded responses (``PrefilterStats.note``'s,
        # added straight in), its ledger entry, and, if it reached stage
        # III, its prior finding in the stage-III list.
        prefilter = self._prefilter
        stats = prefilter.stats
        http, https = stats.http_responses, stats.https_responses
        records, noted, prior = self.records, stats.noted, self.prior
        if prior is not None:
            before, ledger = prior.report.port_scan.open_ports, prior.records
            prior_findings, hinted = prior.report.findings, self.hinted
        # (host value, its prior finding or one of its stage-II findings)
        found: list[tuple[int, PrefilterFinding | HostFinding]] = []
        with tel.tracer.span("stage:prefilter", hosts=open_hosts):
            for value, ports in sorted(open_ports.items()):
                if records is not None:
                    if (
                        prior is not None
                        and before.get(value) == ports
                        and (value & BLOCK_MASK) not in hinted
                        and (record := ledger.get(value)) is not None
                    ):
                        if record.responses:
                            for port, scheme in record.responses:
                                counts = http if scheme == _HTTP else https
                                counts[port] = counts.get(port, 0) + 1
                            stats.responsive_hosts.add(value)
                        records[value] = record
                        if record.finding:
                            found.append((value, prior_findings[value]))
                        continue
                    noted.clear()
                for finding in prefilter.probe_host(IPv4Address(value), ports):
                    found.append((value, finding))
                if records is not None:
                    records[value] = HostRecord(value, tuple(noted))
        # Open hosts quarantined by stage I/II strikes never reach stage
        # III, whatever partial findings stage II managed to fetch first.
        quarantined_open = self._quarantined_values(open_ports)
        if quarantined_open:
            found = [pair for pair in found if pair[0] not in quarantined_open]
        candidate_ips = {value for value, _ in found}
        tel.funnel(
            "prefilter", open_hosts, len(candidate_ips),
            quarantined=len(quarantined_open),
        )
        self._coverage.charge(
            "prefilter", open_hosts, len(candidate_ips),
            quarantined=len(quarantined_open),
        )
        # A host is vulnerable once a stage-III pass detects anything on
        # it; a replayed host carries the prior sweep's verdict.
        vulnerable = self.vulnerable
        vulnerable_before = len(vulnerable)
        carried = prior.vulnerable if prior is not None else ()
        with tel.tracer.span("stage:tsunami", hosts=len(candidate_ips)):
            for value, finding in found:
                if sup is not None and sup.is_quarantined_value(value):
                    # Quarantined mid-stage (or /24 collateral): keep the
                    # host's entry so stage-III accounting still balances,
                    # but run no plugins against it.
                    report.finding_for(finding.ip)
                    continue
                if type(finding) is HostFinding:
                    # Replayed: the prior sweep's (immutable) finding, shared.
                    report.findings[value] = finding
                    if value in carried:
                        vulnerable.add(value)
                    continue
                if self._verify_and_fingerprint(finding, report):
                    vulnerable.add(value)
                if records is not None:
                    records[value].finding = True
        vulnerable_hosts = len(vulnerable) - vulnerable_before
        quarantined_candidates = len(
            self._quarantined_values(candidate_ips) - vulnerable
        )
        tel.funnel(
            "tsunami", len(candidate_ips), vulnerable_hosts,
            quarantined=quarantined_candidates,
        )
        self._coverage.charge(
            "tsunami", len(candidate_ips), vulnerable_hosts,
            quarantined=quarantined_candidates,
        )

    def _quarantined_values(self, values: Iterable[int]) -> set[int]:
        sup = self.supervision
        if sup is None or not sup.quarantine.hosts:
            return set()  # nothing is quarantined: no walk over ``values``
        return {v for v in values if sup.is_quarantined_value(v)}

    def _finish_supervised(self, completed: int) -> None:
        """Close the coverage books for a supervised (shard) sweep.

        Charges the deadline-skipped remainder of the frame and copies
        the supervision record — quarantine lists, poison/stall tallies —
        into the coverage ledger the report will carry.
        """
        sup = self.supervision
        tel = self.telemetry
        remaining = sup.planned - completed - sup.gate_skips_total
        if sup.deadline_hit and remaining > 0:
            tel.funnel("masscan", remaining, 0)
            self._coverage.charge(
                "masscan", remaining, 0, deadline_skipped=remaining
            )
            tel.events.warn(
                "supervisor", "deadline",
                skipped=remaining, deadline=sup.deadline,
            )
        cov = self._coverage
        cov.poison_events = sup.poison_events
        cov.stall_events = sup.stall_events
        cov.deadline_hits = 1 if sup.deadline_hit else 0
        cov.quarantined_hosts = set(sup.quarantine.hosts)
        cov.quarantined_blocks = set(sup.quarantine.blocks)

    def _verify_and_fingerprint(
        self, finding: PrefilterFinding, report: ScanReport
    ) -> bool:
        """Stage III and the fingerprint for one stage-II finding, folded
        into the host's entry: whether stage III detected anything."""
        host_finding = report.finding_for(finding.ip)
        # Stage III asks the target each question once, starting from the
        # answer stage II already has: its landing page.
        memo = {("/", self._prefilter.max_redirects): finding.landing}
        detections = self._engine.scan_target(
            finding.ip, finding.port, finding.scheme, finding.candidates, memo
        )
        detected_slugs = {d.slug for d in detections}

        fingerprint = None
        if self._fingerprinter is not None:
            # A leaf span: recorded whole at its end, raise or return.
            tracer = self.telemetry.tracer
            opened = tracer.leaf_start()
            try:
                fingerprint = self._fingerprinter.fingerprint(
                    finding.ip, finding.port, finding.scheme,
                    finding.candidates, memo,
                )
            finally:
                tracer.leaf(
                    "stage:fingerprint", opened, finding.ip.value, finding.port
                )

        # Attribute the host to application(s): a fingerprint pins the
        # slug; otherwise every stage-II candidate remains attributed
        # (multiple candidates on one body are rare and stage III keeps
        # the vulnerable bit per-application anyway).
        slugs: tuple[str, ...]
        if fingerprint is not None:
            slugs = (fingerprint.slug,)
        else:
            slugs = finding.candidates
        for slug in slugs:
            observation = host_finding.observations.get(slug)
            if observation is None:
                observation = AppObservation(
                    finding.ip, slug, finding.port, finding.scheme
                )
                host_finding.observations[slug] = observation
            if slug in detected_slugs and observation.detection is None:
                # The observation keeps its first port and scheme, so it
                # keeps that port's detection too, as a report row does.
                observation.vulnerable = True
                observation.detection = next(
                    d for d in detections if d.slug == slug
                )
            if fingerprint is not None and fingerprint.slug == slug:
                observation.fingerprint = fingerprint
        # Detections for slugs the fingerprinter excluded still count.
        for detection in detections:
            if detection.slug not in host_finding.observations:
                observation = AppObservation(
                    finding.ip, detection.slug, finding.port, finding.scheme,
                    vulnerable=True, detection=detection,
                )
                host_finding.observations[detection.slug] = observation
        return bool(detections)

    def _fold_stats(self, report: ScanReport) -> None:
        for port, count in self._prefilter.stats.http_responses.items():
            report.http_responses[port] = count
        for port, count in self._prefilter.stats.https_responses.items():
            report.https_responses[port] = count
        if self._retry is not None:
            # Overwrite, not merge: executor stats are cumulative and this
            # fold runs once per batch when checkpointing is on.
            report.retry_stats = self._retry.stats.copy()
        # Same contract: the coverage ledger is cumulative.
        report.coverage = self._coverage.copy()

    # -- checkpoint/resume ----------------------------------------------------

    def _checkpoint_payload(
        self, completed: int, batches_done: int, report: ScanReport
    ) -> dict:
        """One journal record: the small cumulative state whole, plus
        what each append-only section gained since the last save.  The
        marks move up to match, so call it once per save."""
        from repro.core.serialize import report_rows

        marks = self._journal
        stats = self._prefilter.stats
        report_state = report_rows(report, marks.open_ports, marks.findings)
        telemetry_state = self.telemetry.snapshot_state(marks.events, marks.spans)
        growth = {
            "report.open_ports": report_state.pop("open_ports"),
            "report.findings": report_state.pop("findings"),
            "prefilter.responsive_hosts": sorted(
                stats.responsive_hosts - marks.responsive_hosts
            ),
            "telemetry.events.events": telemetry_state["events"].pop("events"),
            "telemetry.tracer.finished": telemetry_state["tracer"].pop("finished"),
        }
        self._journal = self._journal_marks(report)
        stream = stream_layer(self.transport)
        return {
            **self._key,
            "completed_addresses": completed,
            "batches_done": batches_done,
            "report": report_state,
            "prefilter": {
                "http_responses": dict(stats.http_responses),
                "https_responses": dict(stats.https_responses),
            },
            "clock_now": self.clock.now if self.clock is not None else None,
            "retry": (
                self._retry.snapshot_state() if self._retry is not None else None
            ),
            "breaker": (
                self.circuit_breaker.snapshot_state()
                if self.circuit_breaker is not None
                else None
            ),
            "transport": stream.snapshot_state() if stream is not None else None,
            "telemetry": telemetry_state,
            GROWTH: growth,
        }

    def _restore_checkpoint(self, payload: dict) -> tuple[int, int, ScanReport]:
        """Rebuild pipeline state from a checkpoint payload."""
        from repro.core.serialize import report_from_rows

        check_config_matches(payload, **self._key)
        # ``completed_addresses`` counts along the seed's block order; a
        # pipeline that has swept before has shuffled its RNG past it.
        self._masscan.rng = random.Random(self.seed)
        report = report_from_rows(payload["report"])
        stats = self._prefilter.stats
        stats.http_responses = payload["prefilter"]["http_responses"]
        stats.https_responses = payload["prefilter"]["https_responses"]
        stats.responsive_hosts = set(payload["prefilter"]["responsive_hosts"])
        if self.clock is not None and payload["clock_now"] is not None:
            if payload["clock_now"] > self.clock.now:
                self.clock.run_until(payload["clock_now"])
        if self._retry is not None and payload["retry"] is not None:
            self._retry.restore_state(payload["retry"])
        if self.circuit_breaker is not None and payload["breaker"] is not None:
            self.circuit_breaker.restore_state(payload["breaker"])
        stream = stream_layer(self.transport)
        if stream is not None and payload["transport"] is not None:
            stream.restore_state(payload["transport"])
        self.telemetry.restore_state(payload["telemetry"])
        # The report's coverage block was copied from the live ledger at
        # save time, so restoring it re-seats the cumulative ledger too.
        self._coverage = report.coverage.copy()
        self.vulnerable = report.vulnerable_values()
        # Everything just restored is what the journal already holds.
        self._journal = self._journal_marks(report)
        return payload["completed_addresses"], payload["batches_done"], report

    def _journal_marks(self, report: ScanReport) -> _JournalMarks:
        """Marks at the present end of every append-only section."""
        return _JournalMarks(
            open_ports=len(report.port_scan.open_ports),
            findings=len(report.findings),
            events=len(self.telemetry.events),
            spans=self.telemetry.tracer.finished_count,
            responsive_hosts=set(self._prefilter.stats.responsive_hosts),
        )


#: the fields :func:`resume_key` holds, in declaration order
_OUTPUT_DETERMINING = tuple(
    spec.name for spec in fields(ScanPipeline)
    if spec.name not in OUTPUT_NEUTRAL
)


def resume_key(
    pipeline: ScanPipeline, engine: str, frame: IntervalSet | None
) -> dict:
    """What a checkpoint must match for ``pipeline`` to resume it, as
    plain values: the journal's driver (``engine``), every
    output-determining field, the hash of the frame's runs (None: not
    compared), and the plan and seed of the transport's chaos layer."""
    key: dict = {"engine": engine}
    for name in _OUTPUT_DETERMINING:
        value = getattr(pipeline, name)
        if hasattr(value, "__dataclass_fields__"):
            value = asdict(value)
        key[name] = list(value) if isinstance(value, tuple) else value
    key["frame"] = None if frame is None else stable_hash(frame.runs)
    key["fault_plan"] = key["chaos_seed"] = None
    for layer in transport_layers(pipeline.transport):
        plan = getattr(layer, "plan", None)
        if isinstance(plan, FaultPlan):
            key["fault_plan"], key["chaos_seed"] = asdict(plan), layer.seed
            break
    return key
