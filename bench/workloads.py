"""The five benchmark workloads: inputs, timed operation, oracles.

Every workload is closed-loop with a single client: one operation (a
sweep, or one rescan tick) starts only after the previous one finished.
Worlds are generated in set-up from the seed argument; the program under
test sees the generated world and frame, never the seed.

Life cycle, driven by ``run.py``::

    setup()        timed as setup_s; repeated, the last one is kept
    reference()    untimed; warms caches and fixes what verify() compares with
    prepare()      untimed, before every operation
    operation()    timed
    verify(result) untimed; returns Checked or raises OracleMismatch
    finish()       untimed final checks
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from collections import Counter
from dataclasses import dataclass, replace
from multiprocessing import get_all_start_methods
from pathlib import Path

from repro.apps.catalog import scanned_ports
from repro.core.checkpoint import Checkpointer
from repro.core.fingerprint.knowledge_base import build_default_knowledge_base
from repro.core.pipeline import ScanPipeline, ScanReport
from repro.core.rescan import RescanEngine
from repro.core.retry import CircuitBreaker, RetryExecutor, RetryPolicy
from repro.core.serialize import report_to_dict
from repro.experiments.config import StudyConfig
from repro.net.chaos import ChaosTransport, FaultPlan
from repro.net.intervals import CompressedPopulation, IntervalSet, reserved_intervals
from repro.net.population import generate_internet
from repro.net.transport import InMemoryTransport
from repro.obs.telemetry import Telemetry
from repro.util.clock import SimClock
from repro.util.rand import stable_hash

PORTS = scanned_ports()
#: the pipeline seed of every sweep (the world seed is the --seed argument)
SWEEP_SEED = 3

# Sizes at --scale 1.  Operations are kept to a fraction of a second: the
# machine's speed drifts within seconds, and run.py can only calibrate it
# away between operations (see README.md, "Calibrated seconds").
#: share of StudyConfig.default()'s sampling rates:
#: ~1.6k live hosts, 0.4M framed addresses, a ~0.3 s sequential sweep
DENSE_SHARE = 0.05
#: share of StudyConfig.tiny()'s sampling rates:
#: ~1.4k live hosts, 0.37M framed addresses
SPARSE_SHARE = 0.25
#: addresses of the sparse frame the retry sweep walks one by one: eight /24s
#: of one open host each (one_host_blocks), the same count on every seed
RETRY_ADDRESSES = 2048
RETRY_POLICY = RetryPolicy(max_attempts=3, base_delay=0.5, max_delay=8.0)
RETRY_WEATHER = FaultPlan(request_loss=0.03, slow_rate=0.02, slow_latency=5.0)
CHAOS_SEED = 11
CHECKPOINT_SAVES = 8
RESCAN_BATCH = 16384
CHURN_SHARE = 0.02


class OracleMismatch(Exception):
    """The program's output disagrees with the simulator's ground truth."""


def cpu_count() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def digest(report: ScanReport) -> str:
    text = json.dumps(report_to_dict(report), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


@dataclass
class Inputs:
    world: object
    frame: IntervalSet
    kb: object

    def truth(self) -> tuple[set[int], set[int]]:
        """(hosts with an open scanned port, vulnerable hosts) in the frame."""
        frame = self.frame
        open_hosts = {
            host.ip.value for host in self.world.online_hosts()
            if host.ip.value in frame
            and any(host.is_port_open(port) for port in PORTS)
        }
        vulnerable = {
            host.ip.value for host in self.world.true_vulnerable_hosts()
            if host.ip.value in frame
        }
        return open_hosts, vulnerable


def build_inputs(
    config: StudyConfig, seed: int, share: float, take: int | None = None
) -> Inputs:
    """World, frame and knowledge base for one workload."""
    model = config.with_seed(seed).population
    model = replace(
        model,
        awe_rate=model.awe_rate * share,
        vuln_rate=min(1.0, model.vuln_rate * share),
        background_rate=model.background_rate * share,
    )
    world = generate_internet(model)[0]
    # Target 1: the frame is every populated /24 and no extra filler, so
    # the dead share (255 of 256 addresses) is the same at every scale.
    frame = CompressedPopulation.build(world, 1, seed=seed).frame
    if take is not None:
        frame = one_host_blocks(world, frame, max(1, take // 256))
    return Inputs(world, frame, build_default_knowledge_base())


def one_host_blocks(world, frame: IntervalSet, count: int) -> IntervalSet:
    """The lowest ``count`` /24s of the frame whose one host has a scanned port open.

    A cut by address count alone holds 7 or 8 open hosts depending on the
    seed, which moves ``open_hosts_per_s`` by an eighth between seeds.
    """
    hosts, open_hosts = Counter(), Counter()
    for host in world.online_hosts():
        base = host.ip.value & ~255
        hosts[base] += 1
        open_hosts[base] += any(host.is_port_open(port) for port in PORTS)
    bases = [
        base for base in frame.block_bases()
        if hosts[base] == 1 == open_hosts[base]
    ][:count]
    return IntervalSet((base, base | 255) for base in bases)


@dataclass
class Checked:
    attempted: int
    failed: int
    addresses: int
    open_hosts: int


def check_report(
    report: ScanReport, inputs: Inputs, count_misses: bool = False
) -> Checked:
    """Compare a sweep's report with ground truth.

    A host reported but not there, or a wrong address count, is always a
    mismatch.  A host that is there but not reported is a mismatch too,
    unless ``count_misses``: under injected loss a miss is a failed
    operation, counted and reported.
    """
    open_hosts, vulnerable = inputs.truth()
    found_open = set(report.port_scan.open_ports)
    found_vulnerable = {ip.value for ip in report.vulnerable_ips()}
    spurious = (found_open - open_hosts) | (found_vulnerable - vulnerable)
    if spurious:
        raise OracleMismatch(f"{len(spurious)} hosts reported that do not exist")
    missed = len(open_hosts - found_open) + len(vulnerable - found_vulnerable)
    if missed and not count_misses:
        raise OracleMismatch(f"{missed} open or vulnerable hosts not reported")
    expected = len(inputs.frame.difference(reserved_intervals()))
    if report.port_scan.addresses_scanned != expected:
        raise OracleMismatch(
            f"scanned {report.port_scan.addresses_scanned} addresses, "
            f"frame holds {expected}"
        )
    return Checked(
        attempted=len(open_hosts) + len(vulnerable), failed=missed,
        addresses=expected, open_hosts=len(found_open),
    )


class SweepDense:
    name = "sweep_dense"
    why = (
        "sequential sweep of a dense frame: stages II/III and telemetry do "
        "over 90% of the work, hinted stage I under 10%"
    )
    config = StudyConfig.default()
    share = DENSE_SHARE
    #: keep only this many addresses of the frame (times --scale)
    take: int | None = None
    count_misses = False
    #: worker processes one operation runs side by side
    workers = 1

    def __init__(self, seed: int, scale: float, workdir: Path) -> None:
        self.seed = seed
        self.scale = scale
        self.workdir = workdir
        self.inputs: Inputs | None = None
        self.reference_digest: str | None = None

    def setup(self) -> None:
        take = None if self.take is None else int(self.take * self.scale)
        self.inputs = build_inputs(
            self.config, self.seed, self.share * self.scale, take
        )

    # -- the program under test ----------------------------------------------

    def stage_kit(self, telemetry: bool = False, outermost=lambda cls: cls):
        """(transport, retry executor, telemetry) as ScanPipeline would wire
        them, for playing the stages one by one.  ``outermost`` may swap the
        class of the transport the stages call for a subclass of it."""
        transport = outermost(InMemoryTransport)(self.inputs.world)
        return transport, None, Telemetry() if telemetry else None

    def pipeline(self, **overrides) -> ScanPipeline:
        return ScanPipeline(
            self.stage_kit()[0], PORTS, seed=SWEEP_SEED,
            knowledge_base=self.inputs.kb, **overrides,
        )

    def sweep(self, pipeline: ScanPipeline) -> ScanReport:
        return pipeline.run(self.inputs.frame)

    # -- life cycle ----------------------------------------------------------

    def reference(self) -> None:
        self.prepare()
        self.reference_digest = digest(self.operation())

    def prepare(self) -> None:
        pass

    def operation(self) -> ScanReport:
        return self.sweep(self.pipeline())

    def verify(self, report: ScanReport) -> Checked:
        checked = check_report(report, self.inputs, self.count_misses)
        if digest(report) != self.reference_digest:
            raise OracleMismatch(f"{self.name}: report differs between repetitions")
        return checked

    def finish(self) -> None:
        pass


class SweepRetry(SweepDense):
    name = "sweep_retry"
    why = (
        "retry policy under injected loss disables liveness hints: per-address "
        "stage I, core.retry and the transport do over 90% of the work"
    )
    config = StudyConfig.tiny()
    share = SPARSE_SHARE
    take = RETRY_ADDRESSES
    count_misses = True

    def stage_kit(self, telemetry: bool = False, outermost=lambda cls: cls):
        clock = SimClock()
        handle = Telemetry(clock=clock) if telemetry else None
        transport = outermost(ChaosTransport)(
            InMemoryTransport(self.inputs.world), RETRY_WEATHER,
            seed=CHAOS_SEED, clock=clock, telemetry=handle,
        )
        retry = RetryExecutor(
            RETRY_POLICY,
            rng=random.Random(stable_hash(SWEEP_SEED, "retry")),
            clock=clock,
            breaker=CircuitBreaker(clock=clock, telemetry=handle),
            telemetry=handle,
        )
        return transport, retry, handle

    def pipeline(self, **overrides) -> ScanPipeline:
        transport = self.stage_kit()[0]
        return ScanPipeline(
            transport, PORTS, seed=SWEEP_SEED, knowledge_base=self.inputs.kb,
            retry_policy=RETRY_POLICY, clock=transport.clock, **overrides,
        )


def summary(report: ScanReport) -> tuple:
    """What a sharded sweep must share with a sequential one."""
    return (
        sorted(report.port_scan.open_ports),
        sorted(report.hosts_per_app().items()),
        sorted(report.mavs_per_app().items()),
        sorted(ip.value for ip in report.vulnerable_ips()),
    )


class SweepSharded(SweepDense):
    name = "sweep_sharded"
    why = (
        "the dense inputs on the process executor: shard planning, the pickle "
        "boundary, payload return and the fold make the difference from sweep_dense"
    )
    # The timed operation forks its workers.  Under the default, spawn,
    # starting two interpreters is 80% of a sub-second sweep and spreads
    # 20-24% from run to run on the reference machine, which no bound
    # within the contract's cap can gate; the traced pass reports the spawn
    # sweep and the worker start cost as layers instead.
    start_method = "fork" if "fork" in get_all_start_methods() else None

    def __init__(self, seed: int, scale: float, workdir: Path) -> None:
        super().__init__(seed, scale, workdir)
        self.workers = min(cpu_count(), 4)

    def reference(self) -> None:
        self.sequential_summary = summary(self.sweep(self.pipeline()))
        super().reference()

    def operation(self, start_method: str | None = start_method) -> ScanReport:
        return self.sweep(self.pipeline(
            workers=self.workers, executor="process", mp_start_method=start_method,
        ))

    def verify(self, report: ScanReport) -> Checked:
        if summary(report) != self.sequential_summary:
            raise OracleMismatch("sharded sweep disagrees with the sequential sweep")
        return super().verify(report)


class _KilledAfterSave(Exception):
    pass


class _KillingCheckpointer(Checkpointer):
    """Dies right after its ``kill_after``-th save, leaving the file behind."""

    def __init__(self, path: Path, every_batches: int, kill_after: int) -> None:
        super().__init__(path, every_batches)
        self.saves_left = kill_after

    def save(self, payload: dict) -> None:
        super().save(payload)
        self.saves_left -= 1
        if self.saves_left == 0:
            raise _KilledAfterSave


class SweepCheckpointed(SweepDense):
    name = "sweep_checkpointed"
    why = (
        "the dense inputs with 8 checkpoint saves: stage code is unchanged, "
        "core.serialize and core.checkpoint do most of the added work"
    )

    @property
    def batches(self) -> int:
        return -(-len(self.inputs.frame) // ScanPipeline.batch_size)

    @property
    def every_batches(self) -> int:
        return max(1, self.batches // CHECKPOINT_SAVES)

    def checkpointer(self, cls=Checkpointer, **extra) -> Checkpointer:
        return cls(self.workdir / "checkpoint.json", self.every_batches, **extra)

    def reference(self) -> None:
        # The plain sweep is the reference: checkpointing must not change
        # a byte of the report.
        self.reference_digest = digest(self.sweep(self.pipeline()))

    def prepare(self) -> None:
        self.checkpointer().clear()

    def operation(self) -> ScanReport:
        return self.pipeline().run(self.inputs.frame, checkpoint=self.checkpointer())

    def finish(self) -> None:
        """Kill a sweep after its last save, resume it, compare."""
        self.prepare()
        saves = self.batches // self.every_batches
        try:
            self.pipeline().run(
                self.inputs.frame,
                checkpoint=self.checkpointer(_KillingCheckpointer, kill_after=saves),
            )
        except _KilledAfterSave:
            pass
        else:
            raise OracleMismatch("the sweep was never killed: no checkpoint to resume")
        resumed = self.pipeline().run(
            self.inputs.frame, checkpoint=self.checkpointer()
        )
        if digest(resumed) != self.reference_digest:
            raise OracleMismatch("resumed sweep differs from the uninterrupted one")


class RescanCampaign(SweepDense):
    name = "rescan_campaign"
    why = (
        "incremental rescan ticks at 2% host churn: the sweep layers used as "
        "replay, interval diff and ledger fold; a stage speed-up that slows replay shows"
    )
    config = StudyConfig.tiny()
    share = SPARSE_SHARE

    def setup(self) -> None:
        super().setup()
        self.engine = RescanEngine(
            InMemoryTransport(self.inputs.world), PORTS, seed=SWEEP_SEED,
            batch_size=RESCAN_BATCH, knowledge_base=self.inputs.kb,
        )
        self.state = self.engine.baseline(self.inputs.frame)
        self.removed: list = []
        self.reset_churn()

    def pipeline(self, **overrides) -> ScanPipeline:
        return super().pipeline(batch_size=RESCAN_BATCH, **overrides)

    def reset_churn(self) -> None:
        """Put every removed host back and restart the churn sequence."""
        for host in self.removed:
            self.inputs.world.add_host(host)
        self.removed = []
        self.churn_rng = random.Random(stable_hash(self.seed, "churn"))

    def prepare(self) -> None:
        """Restore the previous tick's removed hosts, remove a fresh sample."""
        world = self.inputs.world
        for host in self.removed:
            world.add_host(host)
        addresses = world.populated_addresses()
        sample = self.churn_rng.sample(
            addresses, max(1, int(len(addresses) * CHURN_SHARE))
        )
        self.removed = [world.host_at(ip) for ip in sample]
        for ip in sample:
            world.remove_host(ip)

    def reference(self) -> None:
        self.prepare()
        self.state = self.operation()
        self.check_against_scratch()

    def operation(self):
        return self.engine.rescan(self.inputs.frame, self.state)

    def verify(self, state) -> Checked:
        self.state = state
        return check_report(state.report, self.inputs)

    def finish(self) -> None:
        self.check_against_scratch()

    def check_against_scratch(self) -> None:
        if digest(self.state.report) != digest(self.sweep(self.pipeline())):
            raise OracleMismatch("rescan tick differs from a from-scratch sweep")


WORKLOADS = {
    cls.name: cls
    for cls in (SweepDense, SweepRetry, SweepSharded, SweepCheckpointed, RescanCampaign)
}
