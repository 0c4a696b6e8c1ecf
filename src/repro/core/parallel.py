"""Sharded parallel scan engine with bit-identical output.

The paper's sweep ran on 64 machines; this engine brings the same
horizontal split to the pipeline without giving up the repo's core
invariant — that a scan's report and telemetry export are a pure
function of its seed.  The trick is to make parallelism *invisible to
the data*:

* **/24-aligned shards** — the candidate frame is partitioned into
  shards of whole /24 blocks in canonical (sorted-block) order, so the
  partition depends only on the frame, never on workers or timing;
* **shard-local everything** — each shard runs a full
  :class:`~repro.core.pipeline.ScanPipeline` of its own: a forked
  transport (own stats + own fault RNG), its own
  :class:`~repro.util.clock.SimClock` starting at zero, its own
  :class:`~repro.obs.telemetry.Telemetry`, retry executor, and circuit
  breakers, all seeded from ``stable_hash(seed, "shard", index)``.
  Workers share no mutable state but which shard is next — they return
  their shard result and the main-thread completion loop does every
  write (progress, console, checkpointing);
* **deterministic fold** — each shard hands back a :class:`ShardResult`,
  and the main thread folds shard *i* once shards 0…*i* are in: reports
  merge, the telemetry snapshot is decoded straight into the parent
  (``Telemetry.absorb_state``, span ids rebased), transport stats add.
  The fold is the *only* sanctioned write path out of a worker;
  ``tests/core/test_worker_boundary.py`` audits a real sweep for any
  other, and for anything crossing into a process worker that should
  not.

Because every shard computation is independent and the fold order is
canonical, a run with ``workers=4`` emits a report and telemetry JSONL
byte-identical to ``workers=1`` — the acceptance property the parallel
equivalence tests pin.  Checkpoint/resume works at shard boundaries: the
checkpoint stores completed shards' :meth:`ShardResult.to_rows`, and a
resumed run re-executes only the missing shards.

Two executors run the same shards.  ``executor="thread"`` shares the
:class:`ShardRunner` by reference across a thread pool, whose GIL
serialises the scanning, so the main thread only orchestrates.  Under
``executor="process"`` the parent is one of the ``workers``: it and its
children claim shards from one shared counter, a child's sender thread
writes each :class:`ShardResult`, pickled as objects, to the child's
pipe, and the parent lands what has arrived between its own shards.  A
result is a pure function of the shard seed and the (read-only) forked
transport, so the two executors are byte-identical to each other and to
``workers=1``.

Supervision is a field of the runner, not another engine: with
``ScanPipeline.supervisor`` set, the same loop runs each shard under the
escalation ladder of :mod:`repro.core.supervisor`, and the fold replays
restarts and abandonments from the results, in shard order.
"""

from __future__ import annotations

import multiprocessing
import os
from concurrent.futures import ThreadPoolExecutor, as_completed
from contextlib import closing
from dataclasses import dataclass, replace
from functools import partial
from multiprocessing.connection import wait

from repro.core.checkpoint import GROWTH, Checkpointer, check_config_matches
from repro.core.pipeline import DEFAULT_SHARD_BLOCKS, ScanReport, resume_key
from repro.core.retry import RetryPolicy
from repro.core.serialize import report_from_rows, report_rows, report_to_dict
from repro.core.supervisor import (
    SupervisorConfig,
    close_supervised_books,
    note_shard_supervision,
    run_supervised,
)
from repro.net.intervals import BLOCK_SIZE, FrameLike, IntervalSet, as_frame
from repro.net.transport import TransportStats
from repro.obs.profile import ProfileRollup, wall_now
from repro.util.clock import SimClock
from repro.util.rand import stable_hash

#: multiprocessing start method used when neither the pipeline nor the
#: REPRO_MP_START_METHOD environment variable picks one; spawn is the
#: only method available everywhere and the one that catches pickling
#: bugs fork would mask
DEFAULT_START_METHOD = "spawn"

class Shard:
    """One /24-aligned slice of the candidate frame.

    ``addresses`` is an :class:`~repro.net.intervals.IntervalSet`, which
    pickles as its runs, so a multi-million-address shard crosses the
    process boundary in a handful of pairs.
    """

    __slots__ = ("index", "seed", "addresses")

    def __init__(self, index: int, seed: int, addresses: IntervalSet) -> None:
        self.index = index
        self.seed = seed
        self.addresses = addresses

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Shard(index={self.index}, addresses={len(self.addresses)})"


def plan_shards(
    candidates: FrameLike,
    seed: int,
    shard_blocks: int = DEFAULT_SHARD_BLOCKS,
    exclude_reserved: bool = True,
) -> list[Shard]:
    """Partition a candidate frame into deterministic /24-aligned shards.

    ``candidates`` is anything :func:`~repro.net.intervals.as_frame`
    accepts.  Blocks are taken in sorted order and grouped
    ``shard_blocks`` at a time, so the partition is a function of the
    frame alone.  Reserved addresses are dropped here (mirroring stage I)
    so shard sizes reflect real work.  Each shard's block order is still
    randomised *within* the shard by its own seeded masscan, preserving
    the paper's politeness property shard-locally.
    """
    if shard_blocks < 1:
        raise ValueError("shard_blocks must be at least 1")
    frame = as_frame(candidates, exclude_reserved)
    bases = frame.block_bases()
    shards: list[Shard] = []
    for start in range(0, len(bases), shard_blocks):
        group = bases[start:start + shard_blocks]
        # The group is a contiguous slice of the sorted block list, so
        # its covering range selects exactly those blocks — no other
        # frame block lies between them.
        piece = frame.clip(group[0], group[-1] | (BLOCK_SIZE - 1))
        index = len(shards)
        shards.append(Shard(index, stable_hash(seed, "shard", index), piece))
    return shards


@dataclass(frozen=True)
class ShardResult:
    """What one shard hands back to the fold: its live report, which a
    process worker pickles as it is, and small JSON-safe blocks.

    :meth:`to_rows` is the journal form a sharded checkpoint stores, and
    :meth:`from_rows` reads it back once per resumed shard, so the fold
    has one input type.  :meth:`to_dict` is the JSON-safe form.
    """

    report: ScanReport
    telemetry: dict
    transport_stats: dict
    addresses: int
    #: per-path real seconds measured in the worker (profiled runs only);
    #: a diagnostic side-channel, never merged into canonical output
    wall: dict | None = None
    #: restarts and abandonment (supervised runs only)
    supervisor: dict | None = None

    def to_dict(self) -> dict:
        return self._encoded(report_to_dict)

    def to_rows(self) -> dict:
        return self._encoded(report_rows)

    def _encoded(self, encode_report) -> dict:
        payload = {k: v for k, v in vars(self).items() if v is not None}
        payload["report"] = encode_report(self.report)
        return payload

    @classmethod
    def from_rows(cls, payload: dict) -> "ShardResult":
        return cls(**{**payload, "report": report_from_rows(payload["report"])})


@dataclass
class ShardRunner:
    """Everything one shard needs to run, picklable as a unit.

    The runner is the single implementation of shard execution for both
    executors: thread workers and the parent share it by reference, each
    child process gets a pickled copy when it starts (once per child, not
    per shard).  Every field is read-only during a sweep — the transport is
    *forked* per shard, never probed directly — so sharing and copying
    are observably identical, which is what makes the two executors
    byte-identical.

    Workers call :meth:`execute`, whose :class:`ShardResult` is the only
    thing that crosses back out of a worker; :meth:`run` gives the same
    result in its JSON-safe form.
    """

    transport: object
    ports: tuple
    batch_size: int
    fingerprint: bool
    use_prefilter: bool
    knowledge_base: object
    retry_policy: object
    profile: bool
    #: run every shard under the escalation ladder (restart budget,
    #: deadlines, quarantine, crash injection): plain frozen config, so
    #: it crosses the pickle boundary with the runner
    supervisor: SupervisorConfig | None = None

    def __post_init__(self) -> None:
        # The quarantine gate lives in the retry executor, so supervised
        # shards always run one (with the parent policy when given).
        if self.supervisor is not None and self.retry_policy is None:
            self.retry_policy = RetryPolicy()

    def run(self, shard: Shard) -> dict:
        """:meth:`execute`, as :meth:`ShardResult.to_dict` gives it."""
        return self.execute(shard).to_dict()

    def execute(self, shard: Shard) -> ShardResult:
        """One shard, in a fully private deterministic universe.

        Everything mutable is created here and owned by this call: the
        forked transport, the shard clock (starting at zero), and the
        shard pipeline with its own telemetry, retry executor, and
        breakers.  A supervised runner makes as many such universes as
        the restart rung of the escalation ladder asks for.
        """
        start = wall_now() if self.profile else None
        if self.supervisor is not None:
            result = run_supervised(self, shard)
        else:
            sub = self.build_pipeline(shard, SimClock())
            result = self.result(sub, sub.run(shard.addresses))
        if start is not None:
            # Wall numbers are a diagnostic side-channel; they never
            # enter the canonical report or telemetry.
            wall = result.wall or {"paths": {}}
            result = replace(
                result, wall={**wall, "elapsed": wall_now() - start}
            )
        return result

    def build_pipeline(self, shard: Shard, clock: SimClock, supervision=None):
        """The shard's private pipeline on ``clock``, which a supervised
        attempt's ``supervision`` watches."""
        from repro.core.pipeline import ScanPipeline

        return ScanPipeline(
            transport=self.transport.fork(shard.seed, clock),
            ports=self.ports,
            seed=shard.seed,
            batch_size=self.batch_size,
            fingerprint=self.fingerprint,
            use_prefilter=self.use_prefilter,
            knowledge_base=self.knowledge_base,
            retry_policy=self.retry_policy,
            clock=clock,
            profile=self.profile,
            supervision=supervision,
        )

    def result(self, sub, report, supervisor: dict | None = None) -> ShardResult:
        wall = None
        if sub.profile:
            # The wall side-channel: per-path real seconds measured inside
            # the worker, folded into the parent's WallProfile on the main
            # thread.
            rollup = ProfileRollup.from_spans(sub.telemetry.tracer.finished)
            wall = {"paths": rollup.wall_to_dict()}
        return ShardResult(
            report=report,
            telemetry=sub.telemetry.snapshot_state(),
            transport_stats=sub.transport.stats.to_dict(),
            addresses=report.port_scan.addresses_scanned,
            wall=wall,
            supervisor=supervisor,
        )


def _claim(counter, todo: list[Shard]) -> Shard | None:
    """The next shard of ``todo`` no process has claimed, or None."""
    with counter.get_lock():
        position = counter.value
        counter.value = position + 1
    return todo[position] if position < len(todo) else None


def _claim_shards(runner: ShardRunner, todo: list[Shard], counter, channel) -> None:
    """A child process: claim shards until none is left.  A sender thread
    writes each result, or the exception its shard raised, to ``channel``,
    so the child never waits for the parent to read."""
    with ThreadPoolExecutor(max_workers=1) as sender:
        for shard in iter(partial(_claim, counter, todo), None):
            try:
                result = runner.execute(shard)
            except Exception as error:
                result = error
            sender.submit(channel.send, (shard.index, result))
    channel.close()


def _arrived(channels: list, timeout: float | None):
    """``(index, result)`` pairs the children have sent; a channel at end
    of file (its child exited, whole or killed mid-message) is dropped."""
    for channel in wait(channels, timeout):
        try:
            index, result = channel.recv()
        except (EOFError, OSError):
            channels.remove(channel)
            continue
        if isinstance(result, Exception):
            raise result
        yield index, result


def resolve_start_method(preferred: str | None = None) -> str:
    """The multiprocessing start method the process executor will use.

    Priority: explicit ``preferred`` (the ``ScanPipeline.mp_start_method``
    field), then the ``REPRO_MP_START_METHOD`` environment variable (how
    CI runs the whole suite under both spawn and fork), then
    :data:`DEFAULT_START_METHOD`.
    """
    method = (
        preferred
        or os.environ.get("REPRO_MP_START_METHOD")
        or DEFAULT_START_METHOD
    )
    available = multiprocessing.get_all_start_methods()
    if method not in available:
        raise ValueError(
            f"start method {method!r} not available here; pick from {available}"
        )
    return method


class ParallelScanEngine:
    """Run one sweep as concurrent, independently deterministic shards.

    The engine borrows its whole configuration — sharding, executor,
    supervision — and its fold targets (the telemetry handle and
    transport stats) from the parent
    :class:`~repro.core.pipeline.ScanPipeline` that dispatched to it.
    With ``pipeline.supervisor`` set every shard runs under the
    escalation ladder of :mod:`repro.core.supervisor` and the fold closes
    the coverage books, so a degraded report is one that reconciles.
    """

    def __init__(self, pipeline) -> None:
        #: a sweep that is only supervised still runs as shards, on one worker
        self.workers = 1 if pipeline.workers is None else pipeline.workers
        self.pipeline = pipeline

    # -- orchestration -------------------------------------------------------

    def run(
        self,
        candidates: FrameLike,
        checkpoint: Checkpointer | None = None,
    ):
        pipe = self.pipeline
        key, completed = None, {}
        if checkpoint is not None:
            candidates = as_frame(candidates, exclude_reserved=False)
            key = resume_key(pipe, "parallel-shards", candidates)
            payload = checkpoint.load()
            if payload is not None:
                check_config_matches(payload, **key)
                completed = {
                    index: ShardResult.from_rows(result)
                    for index, result in payload["shards"].items()
                }
        shards = plan_shards(
            candidates, pipe.seed, pipe.shard_blocks,
            exclude_reserved=pipe._masscan.exclude_reserved,
        )
        # Note: the event mentions neither the worker count nor how many
        # shards were resumed from a checkpoint — telemetry output is
        # defined to be identical for every worker count and for
        # interrupted-and-resumed versus uninterrupted runs.
        pipe.telemetry.events.info(
            "parallel", "sweep-start", shards=len(shards),
        )
        console = pipe.console
        if console is not None:
            console.attach_telemetry(pipe.telemetry)
            console.begin_sweep(
                [
                    {"index": s.index, "addresses": len(s.addresses)}
                    for s in shards
                ]
            )
            for index in sorted(completed):
                console.note_shard_done(index, completed[index])
        report = ScanReport()
        #: shards folded so far; the fold takes them in index order
        self._folded = 0
        self._fold_ready(report, completed)
        todo = [shard for shard in shards if shard.index not in completed]
        if todo:
            # The knowledge base is read-only during a sweep, so every
            # shard shares the one the parent pipeline built.
            runner = ShardRunner(
                transport=pipe.transport,
                ports=tuple(pipe.ports),
                batch_size=pipe.batch_size,
                fingerprint=pipe.fingerprint,
                use_prefilter=pipe.use_prefilter,
                knowledge_base=pipe.knowledge_base,
                retry_policy=pipe.retry_policy,
                profile=pipe.profile,
                supervisor=pipe.supervisor,
            )
            self._run_shards(runner, todo, completed, checkpoint, key, report)
        pipe.telemetry.events.info(
            "parallel", "sweep-complete",
            shards=len(shards),
            addresses=report.port_scan.addresses_scanned,
            awe_hosts=report.total_awe_hosts(),
        )
        if pipe.supervisor is not None:
            close_supervised_books(
                report, pipe.telemetry.events,
                [completed[shard.index].supervisor for shard in shards],
            )
        if checkpoint is not None:
            checkpoint.clear()
        if console is not None:
            console.finish_sweep(report)
        return report

    # -- shard execution ------------------------------------------------------

    def _run_shards(self, runner, todo, completed, checkpoint, key, report):
        """One completion loop for both executors: workers only execute
        shards, and every console note, checkpoint save and fold step
        happens here on the main thread as results land."""
        pipe = self.pipeline
        if pipe.executor == "process":
            results = self._process_results(runner, todo, completed)
        else:
            results = self._thread_results(runner, todo)
        console = pipe.console
        if console is not None:
            # "running" spans queued-plus-executing: the next event is landing
            for shard in todo:
                console.note_shard_running(shard.index)
        #: shards finished since the last save: a journal record carries
        #: only these, so each result is written exactly once
        unsaved: list[int] = []
        with closing(results):
            for index, result in results:
                if console is not None:
                    console.note_shard_done(index, result)
                completed[index] = result
                unsaved.append(index)
                if checkpoint is not None and checkpoint.due(len(completed)):
                    checkpoint.save({
                        **key,
                        GROWTH: {"shards": {
                            index: completed[index].to_rows()
                            for index in sorted(unsaved)
                        }},
                    })
                    unsaved.clear()
                self._fold_ready(report, completed)

    def _thread_results(self, runner: ShardRunner, todo: list[Shard]):
        pool = ThreadPoolExecutor(max_workers=self.workers)
        try:
            futures = {pool.submit(runner.execute, s): s.index for s in todo}
            yield from ((futures[f], f.result()) for f in as_completed(futures))
        finally:
            pool.shutdown(wait=True, cancel_futures=True)  # a crash skips the queue

    def _process_results(self, runner, todo: list[Shard], completed: dict):
        """The parent and ``workers - 1`` children claim shards from one
        counter; the parent yields what children sent between its own
        shards, then runs each not in ``completed``: a dead child loses none."""
        context = multiprocessing.get_context(
            resolve_start_method(self.pipeline.mp_start_method)
        )
        counter, children, channels = context.Value("i", 0), [], []
        try:
            for _ in range(min(self.workers, len(todo)) - 1):
                channel, child_end = context.Pipe(duplex=False)
                children.append(context.Process(
                    target=_claim_shards, args=(runner, todo, counter, child_end),
                    daemon=True,
                ))
                children[-1].start()
                # Closed before the next child starts, so the child holds
                # the only writing end: its exit is EOF on ``channel``.
                child_end.close()
                channels.append(channel)
            for shard in iter(partial(_claim, counter, todo), None):
                yield shard.index, runner.execute(shard)
                yield from _arrived(channels, timeout=0)
            while channels:
                yield from _arrived(channels, timeout=None)
            for shard in todo:
                if shard.index not in completed:
                    yield shard.index, runner.execute(shard)
        finally:
            for child in children:
                if channels:  # stopped early: no child's work is wanted
                    child.kill()
                child.join()

    # -- fold (main thread) ---------------------------------------------------

    def _fold_ready(self, report, completed: dict[int, ShardResult]) -> None:
        """Fold, in canonical index order, every shard whose predecessors
        are all in, so early shards fold while later ones still run.

        This is the sanctioned write path out of the worker pool: a
        result is immutable once it lands here, and everything it
        touches (the merged report, the parent telemetry, the parent
        transport stats) is only ever written by the main thread.
        """
        pipe = self.pipeline
        telemetry = pipe.telemetry
        while self._folded in completed:
            index = self._folded
            result = completed[index]
            if pipe.console is not None:
                # From here the parent handle holds this shard's numbers.
                pipe.console.note_shard_folded(index)
            report.merge(result.report)
            telemetry.absorb_state(result.telemetry)
            pipe.transport.stats.merge(
                TransportStats.from_dict(result.transport_stats)
            )
            if result.wall is not None:
                pipe.wall_profile.note_shard(index, result.wall)
            if pipe.profile:
                pipe.shard_profiles[index] = ProfileRollup.from_rows(
                    result.telemetry["tracer"]["finished"]
                )
            telemetry.events.info(
                "parallel", "shard-complete",
                index=index, addresses=result.addresses,
            )
            if pipe.supervisor is not None:
                note_shard_supervision(telemetry.events, index, result.supervisor)
            self._folded += 1
