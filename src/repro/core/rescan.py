"""Incremental re-scan engine for longevity campaigns.

The paper's longevity study (Figure 2) re-scans the same frame every
three hours for four weeks.  Re-running the full pipeline 224 times pays
the stage-II/III cost for every open host every time, even though almost
nothing changes between sweeps.  This engine runs stage I in full (the
cheap liveness probe — dead runs of the frame are accounted in bulk,
not probed), diffs the result against the prior sweep, and re-runs the
expensive later stages only for hosts in *churned* /24 blocks.  Every
other host's stage-II/III contribution is replayed from the prior
sweep's per-host ledger.

The headline invariant: the :class:`~repro.core.pipeline.ScanReport` an
incremental sweep produces is **byte-identical** to the report a
from-scratch :meth:`ScanPipeline.run` over the same frame would produce
— same findings in the same order, same response tallies, same telemetry
summary, same reconciling coverage ledger.  The serialised report is a
pure function of the world and the seed, never of how much was reused.

How the replay stays exact:

* stage I runs for real, so ``open_ports`` (probe order) and every
  masscan counter are live;
* the ledger stores, per open host, its ``(port, scheme)`` response
  sequence, its serialised finding, and the flat telemetry deltas
  (counters / event count / span count) its stage-II/III work produced;
* batches are processed in canonical order and hosts in sorted order
  within each batch — exactly the pipeline's order — so replayed
  ``stats.note`` calls and finding insertions interleave with fresh ones
  in the same sequence a full sweep would produce;
* funnel and coverage are charged live with the full per-batch numbers,
  so :meth:`CoverageReport.reconcile` holds for incremental passes too.

Churn detection is two-sided: port-level changes (hosts going offline,
new hosts, opened/closed ports) are self-detected from the stage-I diff;
content-only changes (a fix deployed, a version upgrade behind the same
open port) cannot be seen by stage I, so callers pass the blocks their
churn feeds (lifecycle fates, CT-log hits) flag as ``churned_blocks``.
Deep-probing an unchanged host in a churned block reproduces its prior
results, so over-reporting churn costs only time, never correctness.

Checkpoint/resume: an interrupted incremental pass resumes bit-identically
— phase A (stage I) is deterministic and re-runs, completed batches
replay from the checkpointed ledger, and the rest runs live.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from itertools import islice
from pathlib import Path
from typing import Iterable

from repro.core.checkpoint import GROWTH, Checkpointer, check_config_matches
from repro.core.masscan import PortScanResult
from repro.core.pipeline import ScanPipeline, ScanReport
from repro.core.prefilter import PrefilterFinding, PrefilterStats
from repro.core.serialize import (
    finding_from_dict,
    finding_to_dict,
    report_from_dict,
    report_to_dict,
)
from repro.net.http import Scheme
from repro.net.intervals import BLOCK_MASK, IntervalSet
from repro.net.ipv4 import IPv4Address
from repro.net.transport import transport_layers
from repro.obs.metrics import flat_name
from repro.obs.telemetry import TelemetrySummary
from repro.util.errors import CheckpointCorrupt, ConfigError, RecordWindowError
from repro.util.rand import stable_hash

RESCAN_FORMAT_VERSION = 1


@dataclass
class HostRecord:
    """One open host's stage-II/III contribution to a sweep.

    Everything needed to replay the host without touching the network:
    the responses it gave stage II (in probe order), its finding (if the
    prefilter matched anything), and the telemetry deltas its fresh
    probe-and-verify produced.  Records are the unit of reuse *and* the
    unit of checkpointing, which is what makes resumed and uninterrupted
    incremental passes bit-identical.
    """

    value: int
    #: ``(port, scheme value)`` pairs in the order stage II recorded them
    responses: tuple[tuple[int, str], ...] = ()
    #: serialised finding entry (see ``finding_to_dict``), or None
    finding: dict | None = None
    #: flat counter-name -> delta from this host's stage-II/III work
    counters: dict[str, float] = field(default_factory=dict)
    events: int = 0
    spans: int = 0

    def to_dict(self) -> dict:
        return {
            "ip": self.value,
            "responses": [[port, scheme] for port, scheme in self.responses],
            "finding": self.finding,
            "counters": dict(self.counters),
            "events": self.events,
            "spans": self.spans,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "HostRecord":
        return cls(
            value=int(payload["ip"]),
            responses=tuple(
                (int(port), str(scheme)) for port, scheme in payload["responses"]
            ),
            finding=payload["finding"],
            counters={k: float(v) for k, v in payload["counters"].items()},
            events=int(payload["events"]),
            spans=int(payload["spans"]),
        )


@dataclass
class RescanState:
    """A completed sweep in replayable form: report + per-host ledger."""

    report: ScanReport
    records: dict[int, HostRecord]
    frame: IntervalSet
    seed: int
    ports: tuple[int, ...]
    batch_size: int
    fingerprint: bool

    def to_dict(self) -> dict:
        return {
            "format_version": RESCAN_FORMAT_VERSION,
            "config": {
                "seed": self.seed,
                "ports": list(self.ports),
                "batch_size": self.batch_size,
                "fingerprint": self.fingerprint,
            },
            "frame": self.frame.to_dict(),
            "report": report_to_dict(self.report),
            "records": [
                self.records[value].to_dict() for value in sorted(self.records)
            ],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "RescanState":
        version = payload.get("format_version")
        if version != RESCAN_FORMAT_VERSION:
            raise ConfigError(
                f"unsupported rescan state format version: {version!r}"
            )
        config = payload["config"]
        records = {}
        for raw in payload["records"]:
            record = HostRecord.from_dict(raw)
            records[record.value] = record
        return cls(
            report=report_from_dict(payload["report"]),
            records=records,
            frame=IntervalSet.from_dict(payload["frame"]),
            seed=int(config["seed"]),
            ports=tuple(config["ports"]),
            batch_size=int(config["batch_size"]),
            fingerprint=bool(config["fingerprint"]),
        )


def save_rescan_state(state: RescanState, path: str | Path) -> None:
    """Write a sweep's replayable state as JSON (``--rescan-from`` input).

    The file is a campaign's only copy of its state, so it is replaced
    whole or not at all: written to a sibling temp file, made durable,
    then renamed over ``path``.
    """
    path = Path(path)
    scratch = path.with_name(path.name + ".tmp")
    with open(scratch, "w") as out:
        out.write(json.dumps(state.to_dict(), indent=1))
        out.flush()
        os.fsync(out.fileno())
    os.replace(scratch, path)


def load_rescan_state(path: str | Path) -> RescanState:
    """Load a state previously written by :func:`save_rescan_state`."""
    try:
        return RescanState.from_dict(json.loads(Path(path).read_text()))
    except (ValueError, KeyError, TypeError, AttributeError) as error:
        raise CheckpointCorrupt(
            f"rescan state file {path} is damaged: {error!r}"
        ) from error


@dataclass
class _NotedStats(PrefilterStats):
    """Stage-II stats that also list, in order, what a fresh host's probe
    noted: a record's ``responses``, taken where a replay puts them back."""

    noted: list[tuple[int, str]] = field(default_factory=list)

    def note(self, ip: IPv4Address, port: int, scheme: Scheme) -> None:
        super().note(ip, port, scheme)
        self.noted.append((port, scheme.value))


class _ReplayingPipeline(ScanPipeline):
    """One sweep's pipeline, deciding per host "replay or probe".

    The sweep itself — spans, events, funnel and coverage charges — is
    the base class's batch step, untouched.  Only its two host steps are
    overridden: a host found in ``replay`` contributes its ledger record
    without touching the network, any other host runs the real stage
    inside a *window* and has what it wrote there put in a fresh record.

    The window contract.  Every counter a host step writes is an add
    into ``MetricsRegistry.pending`` (see :mod:`repro.obs.metrics`), so
    the step's counter delta is already a dict the size of what the host
    touched: opening a window publishes, which leaves ``pending`` empty,
    and closing it reads ``pending`` back — never the registry.  Nothing
    may read the registry in between: a read publishes, and the adds it
    folds in are gone from ``pending``; a window that finds one was made
    raises :class:`~repro.util.errors.RecordWindowError`.
    """

    def __post_init__(self) -> None:
        super().__post_init__()
        self._prefilter.stats = _NotedStats()
        #: ledger records the current batch may replay, by host value
        self.replay: dict[int, HostRecord] = {}
        #: prior-sweep finding objects a replayed host may share
        self.shareable: dict = {}
        #: this sweep's ledger: one record per open host, replayed or fresh
        self.records: dict[int, HostRecord] = {}
        #: what the replayed hosts' stage-II/III work would have counted
        self.synthetic = TelemetrySummary()
        #: series key -> flat name, built once per series a window closed on
        self._flat_names: dict[tuple, str] = {}

    def _open_window(self) -> tuple[int, int, int]:
        """Start recording one fresh host step; hand the result to
        :meth:`_close_window`."""
        tel = self.telemetry
        tel.metrics.publish()
        return tel.metrics.publishes, len(tel.events), tel.tracer.finished_count

    def _close_window(
        self, window: tuple[int, int, int], record: HostRecord
    ) -> None:
        """Add to ``record`` what the host step wrote since ``window``."""
        tel = self.telemetry
        publishes, events, spans = window
        if tel.metrics.publishes != publishes:
            raise RecordWindowError(
                f"the metrics registry was read while host "
                f"{IPv4Address(record.value)} was being recorded: the read "
                "published the counts the record is made of"
            )
        pending = tel.metrics.pending
        counters, flat_names = record.counters, self._flat_names
        # In series-key order, the order of a sorted registry snapshot: a
        # record's counters are listed in the order a state file has them.
        for key in sorted(pending):
            amount = pending[key]
            if amount:
                name = flat_names.get(key)
                if name is None:
                    name = flat_names[key] = flat_name(*key)
                counters[name] = counters.get(name, 0.0) + amount
        record.events += len(tel.events) - events
        record.spans += tel.tracer.finished_count - spans

    def _probe_host(self, ip, ports) -> list[PrefilterFinding]:
        stats = self._prefilter.stats
        record = self.replay.get(ip.value)
        if record is not None:
            # The base tally: a replayed host is not noted a second time.
            note = PrefilterStats.note
            for port, scheme in record.responses:
                note(stats, ip, port, Scheme(scheme))
            self.records[ip.value] = record
            # A record carries a TelemetrySummary's three fields, so it
            # folds in directly — no per-host summary object.
            self.synthetic.merge(record)
            if record.finding is None:
                return []
            # A token, not a finding: it makes the host a stage-III
            # candidate whose finding _verify_and_fingerprint installs.
            return [PrefilterFinding(ip, 0, Scheme.HTTP, (), "")]
        stats.noted.clear()
        window = self._open_window()
        findings = super()._probe_host(ip, ports)
        record = self.records[ip.value] = HostRecord(ip.value, tuple(stats.noted))
        self._close_window(window, record)
        return findings

    def _verify_and_fingerprint(self, finding, report) -> None:
        value = finding.ip.value
        record = self.replay.get(value)
        if record is not None:
            host_finding = self.shareable.get(value)
            if host_finding is None:
                host_finding = finding_from_dict(record.finding)
            report.findings[value] = host_finding
            return
        window = self._open_window()
        super()._verify_and_fingerprint(finding, report)
        record = self.records[value]
        self._close_window(window, record)
        record.finding = finding_to_dict(report.findings[value])

    def _fold_stats(self, report: ScanReport) -> None:
        super()._fold_stats(report)
        report.telemetry.merge(self.synthetic)


@dataclass
class RescanEngine:
    """Drives baseline and incremental sweeps over one interval frame.

    The engine owns the determinism constraints: sweeps run sequentially
    (no workers), without retry or supervision — those paths consume
    per-probe randomness that replayed hosts would not consume, breaking
    byte-identity — and a sweep that can replay a host (a re-scan, or any
    sweep handed a checkpoint) refuses a transport that carries such a
    stream itself.  Every sweep builds a fresh pipeline internally, so
    telemetry, RNGs, and stage state always start from the seed.
    """

    transport: object
    ports: tuple[int, ...]
    seed: int = 0
    batch_size: int = 4096
    fingerprint: bool = True
    knowledge_base: object | None = None

    # -- public API -----------------------------------------------------

    def baseline(
        self, frame: IntervalSet, checkpoint: Checkpointer | None = None
    ) -> RescanState:
        """A from-scratch sweep, recorded so later sweeps can reuse it."""
        return self._sweep(frame, None, set(), checkpoint)

    def rescan(
        self,
        frame: IntervalSet,
        prior: RescanState,
        churned_blocks: Iterable[int | IPv4Address] = (),
        checkpoint: Checkpointer | None = None,
    ) -> RescanState:
        """An incremental sweep against ``prior``.

        ``churned_blocks`` marks /24s whose hosts may have changed
        *content* without changing their open ports (lifecycle fates,
        CT-log churn); port-level changes are self-detected from the
        stage-I diff.  Accepts block bases or any address inside the
        block.
        """
        self.check_prior(frame, prior)
        hinted = {
            (b.value if isinstance(b, IPv4Address) else int(b)) & BLOCK_MASK
            for b in churned_blocks
        }
        return self._sweep(frame, prior, hinted, checkpoint)

    # -- sweep ----------------------------------------------------------

    def _sweep(
        self,
        frame: IntervalSet,
        prior: RescanState | None,
        hinted: set[int],
        checkpoint: Checkpointer | None,
    ) -> RescanState:
        pipe = _ReplayingPipeline(
            transport=self.transport,
            ports=self.ports,
            seed=self.seed,
            batch_size=self.batch_size,
            fingerprint=self.fingerprint,
            knowledge_base=self.knowledge_base,
        )
        if prior is not None or checkpoint is not None:
            self._check_replayable()
        config = {
            "engine": "rescan",
            "seed": self.seed,
            "ports": list(self.ports),
            "batch_size": self.batch_size,
            "fingerprint": self.fingerprint,
        }
        resumed_records: dict[int, HostRecord] = {}
        resumed_batches = 0
        if checkpoint is not None:
            config["run_hash"] = self._run_hash(frame, prior, hinted)
            payload = checkpoint.load()
            if payload is not None:
                check_config_matches(payload, **config)
                resumed_batches = payload["batches_done"]
                resumed_records = {
                    int(value): HostRecord.from_dict(raw)
                    for value, raw in payload["records"].items()
                }

        # Phase A: the full port scan.  Runs for real every sweep — this
        # is the "cheap liveness probe" (dead runs are accounted in bulk)
        # — and must complete before later stages so churn is judged on
        # whole /24 blocks, which batch boundaries can split.
        report = ScanReport()
        pipe._open_sweep()
        batches: list[PortScanResult] = []
        for batch in pipe._masscan.scan_in_batches(frame, self.batch_size):
            report.port_scan.merge(batch)
            batches.append(batch)

        reusable: dict[int, HostRecord] = {}
        if prior is not None:
            churned = hinted | self._diff_churned_blocks(
                prior.report.port_scan.open_ports, report.port_scan.open_ports
            )
            reusable = {
                value: prior.records[value]
                for value in report.port_scan.open_ports
                if (value & BLOCK_MASK) not in churned
                and value in prior.records
            }

        # Phase B: the pipeline's own batch step, in canonical batch
        # order.  A batch completed before an interruption replays *every*
        # host from the checkpointed ledger (hosts that ran fresh back
        # then carry their captured deltas); those records are this
        # sweep's results and may differ from the prior report, so their
        # findings are re-parsed.  Records reused from the prior sweep are
        # verbatim, so its (immutable) finding objects are shared.
        saved = len(resumed_records)
        for index, batch in enumerate(batches):
            if index < resumed_batches:
                pipe.replay, pipe.shareable = resumed_records, {}
            else:
                pipe.replay = reusable
                pipe.shareable = prior.report.findings if prior is not None else {}
            pipe._run_batch(batch, index, report)
            # Batches the journal already covers replay without saving;
            # a live batch appends only the records past ``saved``.
            if (
                checkpoint is not None
                and index >= resumed_batches
                and checkpoint.due(index + 1)
            ):
                checkpoint.save({
                    **config,
                    "batches_done": index + 1,
                    GROWTH: {
                        "records": {
                            str(value): record.to_dict()
                            for value, record in islice(
                                pipe.records.items(), saved, None
                            )
                        },
                    },
                })
                saved = len(pipe.records)

        pipe._close_sweep(report, len(batches))
        # In-memory detections match a serialisation round trip: rebuilt
        # from findings, so fresh and replayed hosts are indistinguishable.
        report.detections = [
            observation.detection
            for finding in report.findings.values()
            for observation in finding.observations.values()
            if observation.detection is not None
        ]
        if checkpoint is not None:
            checkpoint.clear()
        return RescanState(
            report=report,
            records=pipe.records,
            frame=frame,
            seed=self.seed,
            ports=tuple(self.ports),
            batch_size=self.batch_size,
            fingerprint=self.fingerprint,
        )

    # -- helpers --------------------------------------------------------

    @staticmethod
    def _diff_churned_blocks(
        prior_open: dict[int, tuple[int, ...]],
        current_open: dict[int, tuple[int, ...]],
    ) -> set[int]:
        """Blocks whose stage-I picture changed since the prior sweep."""
        churned = set()
        for value, ports in current_open.items():
            if prior_open.get(value) != ports:
                churned.add(value & BLOCK_MASK)
        for value, ports in prior_open.items():
            if current_open.get(value) != ports:
                churned.add(value & BLOCK_MASK)
        return churned

    def _check_replayable(self) -> None:
        """Raise ConfigError if a layer of the transport carries a per-call
        stream (``snapshot_state``: state a resume must restore).  A
        replayed host makes no calls, so every later host would meet
        another stretch of it and the report would differ, silently."""
        for layer in transport_layers(self.transport):
            if callable(getattr(layer, "snapshot_state", None)):
                raise ConfigError(
                    f"{type(layer).__name__} answers from a per-call stream "
                    "that replayed hosts would not advance; re-scans and "
                    "checkpointed sweeps of the re-scan engine need a "
                    "transport without one"
                )

    def check_prior(self, frame: IntervalSet, prior: RescanState) -> None:
        """Raise ConfigError unless ``prior`` can seed a re-scan of ``frame``."""
        if prior.frame != frame:
            raise ConfigError(
                "prior rescan state covers a different frame; incremental "
                "re-scans must diff against the same candidate frame"
            )
        for name, ours, theirs in (
            ("seed", self.seed, prior.seed),
            ("ports", tuple(self.ports), tuple(prior.ports)),
            ("batch_size", self.batch_size, prior.batch_size),
            ("fingerprint", self.fingerprint, prior.fingerprint),
        ):
            if ours != theirs:
                raise ConfigError(
                    f"prior rescan state was taken with {name}={theirs!r}, "
                    f"but this engine uses {name}={ours!r}"
                )

    def _run_hash(
        self,
        frame: IntervalSet,
        prior: RescanState | None,
        hinted: set[int],
    ) -> int:
        """Fingerprint of everything a resumed pass must agree on."""
        prior_digest = None
        if prior is not None:
            prior_digest = stable_hash(
                json.dumps(report_to_dict(prior.report), sort_keys=True)
            )
        return stable_hash(frame.runs, sorted(hinted), prior_digest)
