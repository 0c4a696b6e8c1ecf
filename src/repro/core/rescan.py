"""Incremental re-scan engine for longevity campaigns.

The paper's longevity study (Figure 2) re-scans the same frame every
three hours for four weeks.  Re-running the full pipeline 224 times pays
the stage-II/III cost for every open host every time, even though almost
nothing changes between sweeps.  A re-scan here is the sequential sweep
(:meth:`ScanPipeline.run`) run with a ledger: its one batch step then
decides per open host, in that host's own batch, whether to replay its
stage-II/III contribution from the prior sweep's per-host ledger — a
dict hit, folded in place — or probe it.  The rule runs in the batch
step's one sorted host loop (``ScanPipeline._run_later_stages``); this
module holds the state file, the ledger's journal and the engine that
drives the sweeps.  A ledger entry is a
:class:`~repro.core.pipeline.HostRecord`.

The per-host rule: a host replays when stage I found it with exactly the
open ports the prior sweep found, and its /24 is not in the caller's
``churned_blocks``.  Port-level churn (a host gone, a new host, a port
opened or closed) is thereby self-detected, and only the host that
changed is probed.  Content-only churn (a fix deployed, a version
upgrade behind the same open port) cannot be seen by stage I, so
callers pass the /24s their churn feeds (lifecycle fates, CT-log hits)
flag, before the sweep starts.  Deep-probing an unchanged host
reproduces its prior results, so over-reporting churn costs only time,
never correctness.

The headline invariant: the :class:`~repro.core.pipeline.ScanReport` an
incremental sweep produces is **byte-identical** to the report a
from-scratch :meth:`ScanPipeline.run` over the same frame would produce
— same findings in the same order, same response tallies, same
reconciling coverage ledger.  The serialised report is a pure function
of the world and the seed, never of how much was reused.  The sweep's
:class:`~repro.obs.telemetry.Telemetry` is not part of it: it records
the work this sweep did, and a replayed host does none.

How the replay stays exact:

* stage I runs for real, so ``open_ports`` (probe order) is live;
* the ledger stores, per open host, only what the report does not
  already hold: its ``(port, scheme)`` response sequence, and whether
  it reached stage III — its finding is the prior report's own;
* the sweep is the pipeline's own — batches in canonical order, hosts in
  sorted order within each — so replayed response tallies and finding
  insertions interleave with fresh ones in the sequence a full sweep
  produces;
* coverage is charged live with the full per-batch numbers, so
  :meth:`CoverageReport.reconcile` holds for incremental passes too; a
  replayed host's verdict (vulnerable or not) is the prior sweep's, read
  from the set of vulnerable hosts its state carries, not re-read from
  the finding.

What a campaign repeats is made once: the stage-I block plan (the frame
without its reserved ranges, its per-/24 counts and the seeded shuffle)
is a pure function of the frame and the seed, which a prior pins, so
the baseline (or the first tick after a load) makes it and every later
tick starts stage I from it.

Checkpoint/resume is the sequential sweep's journal: each save also
appends the ledger records made since the last one (``growth``), each as
an ``(ip value, responses, finding)`` row, so an interrupted pass
resumes bit-identically.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from itertools import islice
from pathlib import Path
from typing import Iterable

from repro.core.checkpoint import GROWTH, Checkpointer, check_config_matches
from repro.core.masscan import BlockPlan
from repro.core.pipeline import HostRecord, ScanPipeline, ScanReport, resume_key
from repro.core.serialize import report_from_dict, report_to_dict
from repro.net.intervals import BLOCK_MASK, IntervalSet
from repro.net.ipv4 import IPv4Address
from repro.net.transport import stream_layer
from repro.util.errors import CheckpointCorrupt, ConfigError
from repro.util.rand import stable_hash

#: a version-1 file still loads: a record's copy of its finding reads as
#: "reached stage III", and its telemetry counts are not read
RESCAN_FORMAT_VERSION = 2


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
    #: the values of the report's vulnerable hosts: a re-scan's verdict
    #: for each host it replays.  Derived from the report when not given
    #: (a loaded state); a sweep gives the set it counted.
    vulnerable: set[int] | None = field(default=None, compare=False)
    #: the frame's block plan (repro.core.masscan), which every re-scan
    #: of this state reuses; None until a sweep makes it (a loaded state)
    plan: BlockPlan | None = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.vulnerable is None:
            self.vulnerable = self.report.vulnerable_values()

    @property
    def config(self) -> dict:
        """The settings the sweep ran with, as the state file stores them."""
        return {
            "seed": self.seed,
            "ports": list(self.ports),
            "batch_size": self.batch_size,
            "fingerprint": self.fingerprint,
        }

    def to_dict(self) -> dict:
        return {
            "format_version": RESCAN_FORMAT_VERSION,
            "config": self.config,
            "frame": self.frame.to_dict(),
            "report": report_to_dict(self.report),
            "records": [
                self.records[value].to_dict() for value in sorted(self.records)
            ],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "RescanState":
        version = payload.get("format_version")
        if version not in (1, RESCAN_FORMAT_VERSION):
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
    except FileNotFoundError as error:
        raise ConfigError(f"no rescan state file at {path}") from error
    except (ValueError, KeyError, TypeError, AttributeError) as error:
        raise CheckpointCorrupt(
            f"rescan state file {path} is damaged: {error!r}"
        ) from error


class _ReplayingPipeline(ScanPipeline):
    """The sequential sweep, with a ledger.

    The sweep itself — stage I, the batch step that replays or probes
    each host by the per-host rule, spans, events, funnel and coverage
    charges, the checkpoint journal — is the base class's.  This class
    only holds a ledger (``records``, which turns replay on in the batch
    step), notes what fresh hosts answer, and adds the ledger to the
    checkpoint journal.
    """

    journal_engine = "rescan"

    def __post_init__(self) -> None:
        super().__post_init__()
        self.records = {}
        self._prefilter.stats.noted = []
        #: the hints and prior report a resumed sweep must agree on
        self.run_hash: int | None = None
        #: how many of ``records`` the checkpoint journal holds
        self._saved = 0

    # -- checkpoint/resume: the sequential journal, plus the ledger ---------

    def _checkpoint_payload(self, *args) -> dict:
        payload = super()._checkpoint_payload(*args)
        payload["journal"], payload["run_hash"] = "sequential", self.run_hash
        payload[GROWTH]["records"] = [
            (record.value, record.responses, record.finding)
            for record in islice(self.records.values(), self._saved, None)
        ]
        self._saved = len(self.records)
        return payload

    def _restore_checkpoint(self, payload: dict) -> tuple[int, int, ScanReport]:
        # "journal", checked first, refuses the engine's earlier journals
        # by name: the same engine name, none of the sequential sections.
        check_config_matches(
            payload, journal="sequential", run_hash=self.run_hash
        )
        resumed = super()._restore_checkpoint(payload)
        self.records = {row[0]: HostRecord(*row) for row in payload["records"]}
        self._saved = len(self.records)
        return resumed


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
        CT-log churn); port-level changes are self-detected, host by
        host, from stage I.  Accepts block bases or any address inside
        the block.
        """
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
        pipe = self._pipeline()
        if prior is not None:
            self.check_prior(frame, prior, pipe)
        if prior is not None or checkpoint is not None:
            self._check_replayable()
        pipe.prior, pipe.hinted = prior, hinted
        # One plan per campaign: the prior's, checked above to be of this
        # frame and seed, or made here for the baseline or the first
        # re-scan of a loaded state.
        pipe.block_plan = (prior and prior.plan) or pipe._masscan.plan_blocks(frame)
        if checkpoint is not None:
            # What a resumed pass must agree on beyond the resume key.
            prior_digest = prior and stable_hash(
                json.dumps(report_to_dict(prior.report), sort_keys=True)
            )
            pipe.run_hash = stable_hash(sorted(hinted), prior_digest)
        return RescanState(
            report=pipe.run(frame, checkpoint),
            records=pipe.records,
            frame=frame,
            seed=self.seed,
            ports=tuple(self.ports),
            batch_size=self.batch_size,
            fingerprint=self.fingerprint,
            vulnerable=pipe.vulnerable,
            plan=pipe.block_plan,
        )

    # -- helpers --------------------------------------------------------

    def _pipeline(self) -> _ReplayingPipeline:
        pipe = _ReplayingPipeline(
            transport=self.transport,
            ports=self.ports,
            seed=self.seed,
            batch_size=self.batch_size,
            fingerprint=self.fingerprint,
            knowledge_base=self.knowledge_base,
        )
        # Read-only during a sweep: the first sweep's build serves the rest.
        self.knowledge_base = pipe.knowledge_base
        return pipe

    def _check_replayable(self) -> None:
        """Raise ConfigError if a layer of the transport carries a per-call
        stream (``snapshot_state``: state a resume must restore).  A
        replayed host makes no calls, so every later host would meet
        another stretch of it and the report would differ, silently."""
        layer = stream_layer(self.transport)
        if layer is not None:
            raise ConfigError(
                f"{type(layer).__name__} answers from a per-call stream "
                "that replayed hosts would not advance; re-scans and "
                "checkpointed sweeps of the re-scan engine need a "
                "transport without one"
            )

    def check_prior(
        self, frame: IntervalSet, prior: RescanState, pipe=None
    ) -> None:
        """Raise ConfigError unless ``prior`` can seed a re-scan of ``frame``
        by ``pipe`` (by default, the pipeline a sweep of this engine runs):
        the settings the state stores are compared with its resume key."""
        if prior.frame != frame:
            raise ConfigError(
                "prior rescan state covers a different frame; incremental "
                "re-scans must diff against the same candidate frame"
            )
        key = resume_key(pipe or self._pipeline(), "rescan", None)
        stored = prior.config
        check_config_matches(stored, **{name: key[name] for name in stored})
