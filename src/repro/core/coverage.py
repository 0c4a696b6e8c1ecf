"""Coverage accounting: exactly what a sweep did — and did not — scan.

The paper concedes its totals are a lower bound (§6.2): hosts that were
down, slow, or hostile during the sweep are silently absent from every
table.  A supervised runtime makes that loss *explicit*: every address
that enters a stage leaves it through exactly one of four doors —

* **completed** — it advanced to the next stage;
* **dropped** — the stage examined it and it did not qualify (closed
  ports, no signature match, plugin said "not vulnerable"), including
  the finer-grained **deadline_skipped** (the sweep deadline fired
  before it was probed) and **unreachable** (its shard was abandoned
  after exhausting the restart ladder);
* **quarantined** — the supervisor pulled it out of the sweep after
  repeated poison responses or stalls.

This extends the telemetry funnel invariant from ``in = out + dropped``
to ``in = out + dropped + quarantined``.  :class:`CoverageReport` keeps
these ledgers per stage, carries the quarantine lists, and *reconciles*
against the :class:`~repro.core.pipeline.ScanReport` it rides on: the
accounting is only trusted because it provably adds up to the report's
own totals.  Like every artifact in this repo, a CoverageReport is a
pure function of the seed — byte-identical across worker counts and
kill-and-resume.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

from repro.net.ipv4 import IPv4Address
from repro.obs.telemetry import FUNNEL_STAGES
from repro.util.errors import CoverageError
from repro.util.tables import Table


@dataclass
class StageCoverage:
    """Where one stage's incoming hosts went.

    Invariant: ``entered == completed + dropped + quarantined``, with
    ``deadline_skipped + unreachable <= dropped`` (they classify *why*
    some of the dropped hosts were never examined).
    """

    entered: int = 0
    completed: int = 0
    dropped: int = 0
    quarantined: int = 0
    deadline_skipped: int = 0
    unreachable: int = 0

    def merge(self, other: "StageCoverage") -> None:
        for f in fields(self):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))

    def copy(self) -> "StageCoverage":
        return StageCoverage(**self.to_dict())

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, payload: dict) -> "StageCoverage":
        known = {f.name for f in fields(cls)}
        return cls(**{k: v for k, v in payload.items() if k in known})

    def check(self, stage: str) -> None:
        if self.entered != self.completed + self.dropped + self.quarantined:
            raise CoverageError(
                f"stage {stage!r} leaks hosts: entered={self.entered} != "
                f"completed={self.completed} + dropped={self.dropped} "
                f"+ quarantined={self.quarantined}"
            )
        if self.deadline_skipped + self.unreachable > self.dropped:
            raise CoverageError(
                f"stage {stage!r} over-classifies drops: "
                f"deadline_skipped={self.deadline_skipped} "
                f"+ unreachable={self.unreachable} > dropped={self.dropped}"
            )
        for f in fields(self):
            if getattr(self, f.name) < 0:
                raise CoverageError(
                    f"stage {stage!r} has negative {f.name}: "
                    f"{getattr(self, f.name)}"
                )


@dataclass
class CoverageReport:
    """The per-stage ledgers plus the supervisor's incident record."""

    stages: dict[str, StageCoverage] = field(
        default_factory=lambda: {s: StageCoverage() for s in FUNNEL_STAGES}
    )
    #: ip values of hosts pulled from the sweep (poison / stall strikes)
    quarantined_hosts: set[int] = field(default_factory=set)
    #: /24 network values quarantined after too many bad hosts
    quarantined_blocks: set[int] = field(default_factory=set)
    poison_events: int = 0
    stall_events: int = 0
    shard_restarts: int = 0
    shards_abandoned: int = 0
    #: shards whose deadline fired before the frame was exhausted
    deadline_hits: int = 0

    # -- recording -----------------------------------------------------------

    def charge(
        self,
        stage: str,
        entered: int,
        completed: int,
        quarantined: int = 0,
        deadline_skipped: int = 0,
        unreachable: int = 0,
    ) -> None:
        """Account one batch's flow through ``stage``.

        ``dropped`` is derived, so a charge can never violate the stage
        invariant — only mis-describe the flow, which :meth:`reconcile`
        catches against the report totals.
        """
        ledger = self.stages[stage]
        ledger.entered += entered
        ledger.completed += completed
        ledger.quarantined += quarantined
        ledger.dropped += entered - completed - quarantined
        ledger.deadline_skipped += deadline_skipped
        ledger.unreachable += unreachable

    # -- folding / serialisation ---------------------------------------------

    def merge(self, other: "CoverageReport") -> None:
        for stage, ledger in other.stages.items():
            self.stages.setdefault(stage, StageCoverage()).merge(ledger)
        self.quarantined_hosts |= other.quarantined_hosts
        self.quarantined_blocks |= other.quarantined_blocks
        self.poison_events += other.poison_events
        self.stall_events += other.stall_events
        self.shard_restarts += other.shard_restarts
        self.shards_abandoned += other.shards_abandoned
        self.deadline_hits += other.deadline_hits

    def copy(self) -> "CoverageReport":
        return CoverageReport.from_dict(self.to_dict())

    def to_dict(self) -> dict:
        return {
            "stages": {
                stage: self.stages[stage].to_dict()
                for stage in sorted(self.stages)
            },
            "quarantined_hosts": [
                str(IPv4Address(v)) for v in sorted(self.quarantined_hosts)
            ],
            "quarantined_blocks": [
                f"{IPv4Address(v)}/24" for v in sorted(self.quarantined_blocks)
            ],
            "poison_events": self.poison_events,
            "stall_events": self.stall_events,
            "shard_restarts": self.shard_restarts,
            "shards_abandoned": self.shards_abandoned,
            "deadline_hits": self.deadline_hits,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "CoverageReport":
        # Reports written before the supervised runtime carry no
        # coverage block; an empty payload yields the zero report.
        report = cls()
        for stage, raw in payload.get("stages", {}).items():
            report.stages[stage] = StageCoverage.from_dict(raw)
        report.quarantined_hosts = {
            IPv4Address.parse(text).value
            for text in payload.get("quarantined_hosts", [])
        }
        report.quarantined_blocks = {
            IPv4Address.parse(text.split("/")[0]).value
            for text in payload.get("quarantined_blocks", [])
        }
        report.poison_events = payload.get("poison_events", 0)
        report.stall_events = payload.get("stall_events", 0)
        report.shard_restarts = payload.get("shard_restarts", 0)
        report.shards_abandoned = payload.get("shards_abandoned", 0)
        report.deadline_hits = payload.get("deadline_hits", 0)
        return report

    # -- queries ---------------------------------------------------------------

    @property
    def degraded(self) -> bool:
        """Did the sweep give anything up to finish?"""
        return bool(
            self.quarantined_hosts
            or self.quarantined_blocks
            or self.shards_abandoned
            or self.deadline_hits
            or any(
                s.quarantined or s.deadline_skipped or s.unreachable
                for s in self.stages.values()
            )
        )

    def coverage_fraction(self) -> float:
        """Fraction of the planned frame that was actually probed.

        Based on stage I: an address counts as covered when the sweep
        reached it with at least one SYN probe — quarantine-gated,
        deadline-skipped, and abandoned-shard addresses do not.
        """
        ledger = self.stages.get("masscan", StageCoverage())
        if ledger.entered == 0:
            return 1.0
        skipped = (
            ledger.quarantined + ledger.deadline_skipped + ledger.unreachable
        )
        return (ledger.entered - skipped) / ledger.entered

    # -- checking ---------------------------------------------------------------

    def verify(self) -> None:
        """Raise :class:`CoverageError` unless every stage ledger balances."""
        for stage, ledger in self.stages.items():
            ledger.check(stage)

    def reconcile(self, report) -> None:
        """Cross-check the ledgers against a ScanReport's own totals.

        The accounting is only credible if it *adds up*: stage-I covered
        addresses must equal the port scan's address count, stage hand-offs
        must match, and stage-III completions must equal the report's
        vulnerable-host count.  Any mismatch means hosts leaked out of the
        books and raises :class:`CoverageError`.
        """
        self.verify()
        masscan = self.stages["masscan"]
        prefilter = self.stages["prefilter"]
        tsunami = self.stages["tsunami"]
        probed = masscan.entered - (
            masscan.quarantined + masscan.deadline_skipped + masscan.unreachable
        )
        checks = (
            ("stage-I probed addresses", probed,
             report.port_scan.addresses_scanned),
            ("stage-I open hosts", masscan.completed,
             len(report.port_scan.open_ports)),
            ("stage I->II hand-off", prefilter.entered, masscan.completed),
            ("stage II->III hand-off", tsunami.entered, prefilter.completed),
            ("stage-III candidates", tsunami.entered,
             report.total_awe_hosts()),
            ("stage-III vulnerable hosts", tsunami.completed,
             len(report.vulnerable_ips())),
        )
        for what, ledger_value, report_value in checks:
            if ledger_value != report_value:
                raise CoverageError(
                    f"coverage does not reconcile with the report: {what} "
                    f"is {ledger_value} in the ledger, {report_value} in "
                    f"the report"
                )

    # -- rendering ---------------------------------------------------------------

    def render(self) -> str:
        table = Table(
            "Coverage by stage (hosts)",
            ("stage", "entered", "completed", "dropped",
             "quarantined", "deadline-skipped", "unreachable"),
        )
        for stage in FUNNEL_STAGES:
            ledger = self.stages.get(stage, StageCoverage())
            table.add_row(
                stage, ledger.entered, ledger.completed, ledger.dropped,
                ledger.quarantined, ledger.deadline_skipped,
                ledger.unreachable,
            )
        lines = [
            table.render(),
            "",
            f"coverage fraction (stage I): {self.coverage_fraction():.4f}",
            f"run status: {'DEGRADED' if self.degraded else 'complete'}",
            f"quarantined hosts: {len(self.quarantined_hosts)}"
            + self._listing(self.quarantined_hosts, suffix=""),
            f"quarantined /24 blocks: {len(self.quarantined_blocks)}"
            + self._listing(self.quarantined_blocks, suffix="/24"),
            f"poison responses: {self.poison_events}"
            f"  stalls flagged: {self.stall_events}",
            f"shard restarts: {self.shard_restarts}"
            f"  shards abandoned: {self.shards_abandoned}"
            f"  shard deadlines hit: {self.deadline_hits}",
        ]
        return "\n".join(lines)

    @staticmethod
    def _listing(values: set[int], suffix: str, limit: int = 8) -> str:
        if not values:
            return ""
        shown = sorted(values)[:limit]
        text = ", ".join(f"{IPv4Address(v)}{suffix}" for v in shown)
        more = "" if len(values) <= limit else f", … +{len(values) - limit}"
        return f" ({text}{more})"
