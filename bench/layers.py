"""The traced pass: per-layer metrics, measured from outside the program.

The pass plays a sweep stage by stage through each layer's public
functions and records a span around every call (see ``spans.py``).  It
plays the stages three times over the workload's own inputs:

* ``as_run``  with a ``Telemetry()``, as ScanPipeline runs its stages: stage
  busy time and shares; what an untraced ``ScanPipeline.run`` takes beyond
  the stages is the pipeline's glue;
* ``bare``    the same with ``telemetry=None``: ``as_run - bare`` is what
  observability costs inside the stages;
* ``fine``    ``bare`` with every transport call charged to its stage:
  transport rates; ``fine - bare`` is the tracing overhead.

Then the layers only one workload enters are played on that workload:
checkpoint saves, the shard plan / pickle / run / fold, the rescan ledger.
A layer the workload never enters reports 0.
"""

from __future__ import annotations

import gc
import json
import pickle
import random
from dataclasses import dataclass
from functools import partial
from statistics import median, quantiles
from time import perf_counter

from repro.core.checkpoint import Checkpointer
from repro.core.fingerprint.fingerprinter import VersionFingerprinter
from repro.core.fingerprint.knowledge_base import build_default_knowledge_base
from repro.core.masscan import Masscan
from repro.core.parallel import DEFAULT_SHARD_BLOCKS, ShardRunner, plan_shards
from repro.core.pipeline import ScanPipeline, ScanReport
from repro.core.prefilter import Prefilter, match_signatures
from repro.core.rescan import RescanEngine, load_rescan_state, save_rescan_state
from repro.core.serialize import report_from_dict, report_to_dict
from repro.core.tsunami.engine import TsunamiEngine
from repro.net.chaos import ChaosTransport
from repro.net.intervals import CompressedPopulation, reserved_intervals
from repro.net.transport import InMemoryTransport, TransportStats
from repro.obs.profile import ProfileRollup
from repro.obs.telemetry import Telemetry

from spans import Recorder
from workloads import PORTS, RESCAN_BATCH, SWEEP_SEED, Checked, check_report

#: (name, unit, better) of every per-layer metric, in BENCHMARK.json order
PER_LAYER = (
    ("core.masscan.scan_s", "s", "lower"),
    ("core.masscan.addresses_per_s", "1/s", "higher"),
    ("core.masscan.open_hosts", "count", "higher"),
    ("core.masscan.share", "ratio", "lower"),
    ("net.transport.probe_ports_per_s", "1/s", "higher"),
    ("net.transport.get_per_s", "1/s", "higher"),
    ("net.transport.syn_probes", "count", "lower"),
    ("net.transport.http_requests", "count", "lower"),
    ("net.chaos.faults_injected", "count", "lower"),
    ("core.retry.operations", "count", "lower"),
    ("core.retry.retries", "count", "lower"),
    ("core.retry.exhausted", "count", "lower"),
    ("core.prefilter.run_s", "s", "lower"),
    ("core.prefilter.match_bodies_per_s", "1/s", "higher"),
    ("core.prefilter.candidates", "count", "higher"),
    ("core.prefilter.pass_ratio", "ratio", "higher"),
    ("core.prefilter.share", "ratio", "lower"),
    ("core.tsunami.scan_s", "s", "lower"),
    ("core.tsunami.plugins_run", "count", "lower"),
    ("core.tsunami.detections", "count", "higher"),
    ("core.tsunami.detect_ratio", "ratio", "higher"),
    ("core.tsunami.share", "ratio", "lower"),
    ("core.fingerprint.run_s", "s", "lower"),
    ("core.fingerprint.kb_build_s", "s", "lower"),
    ("core.fingerprint.identified_ratio", "ratio", "higher"),
    ("core.fingerprint.share", "ratio", "lower"),
    ("core.pipeline.glue_s", "s", "lower"),
    ("core.pipeline.glue_share", "ratio", "lower"),
    ("obs.telemetry.overhead_s", "s", "lower"),
    ("obs.telemetry.overhead_ratio", "ratio", "lower"),
    ("obs.telemetry.export_jsonl_s", "s", "lower"),
    ("obs.profile.overhead_ratio", "ratio", "lower"),
    ("obs.profile.rollup_s", "s", "lower"),
    ("bench.trace.overhead_s", "s", "lower"),
    ("bench.trace.overhead_ratio", "ratio", "lower"),
    ("bench.trace.spans", "count", "lower"),
    ("core.serialize.to_dict_s", "s", "lower"),
    ("core.serialize.from_dict_s", "s", "lower"),
    ("core.serialize.report_bytes", "B", "lower"),
    ("core.checkpoint.saves", "count", "lower"),
    ("core.checkpoint.payload_s", "s", "lower"),
    ("core.checkpoint.save_s", "s", "lower"),
    ("core.checkpoint.load_s", "s", "lower"),
    ("core.checkpoint.bytes_last", "B", "lower"),
    ("core.checkpoint.share", "ratio", "lower"),
    ("core.parallel.plan_shards_s", "s", "lower"),
    ("core.parallel.shards", "count", "lower"),
    ("core.parallel.runner_pickle_s", "s", "lower"),
    ("core.parallel.runner_pickle_bytes", "B", "lower"),
    ("core.parallel.shard_run_p50_s", "s", "lower"),
    ("core.parallel.shard_run_max_s", "s", "lower"),
    ("core.parallel.fold_overhead_s", "s", "lower"),
    ("core.parallel.thread_wall_s", "s", "lower"),
    ("core.parallel.worker_start_s", "s", "lower"),
    ("core.parallel.speedup_vs_sequential", "ratio", "higher"),
    ("core.rescan.record_s", "s", "lower"),
    ("core.rescan.record_vs_sweep_ratio", "ratio", "lower"),
    ("core.rescan.replayed_hosts", "count", "higher"),
    ("core.rescan.probed_hosts", "count", "lower"),
    ("core.rescan.replay_ratio", "ratio", "higher"),
    ("core.rescan.tick_p90_s", "s", "lower"),
    ("core.rescan.speedup_vs_full", "ratio", "higher"),
    ("core.rescan.state_save_s", "s", "lower"),
    ("core.rescan.state_load_s", "s", "lower"),
    ("core.rescan.state_bytes", "B", "lower"),
    ("net.intervals.frame_build_s", "s", "lower"),
    ("net.intervals.plan_s", "s", "lower"),
    ("net.intervals.frame_bytes", "B", "lower"),
)

#: rescan ticks played by the traced pass (a fixed count, so that the
#: replayed/probed host counts repeat exactly from run to run)
TRACED_TICKS = 20


# -- transports that charge every public call to the open span -------------------


class _Timed:
    """Mixin over a Transport: time each public call, from the outside."""

    def __init__(self, recorder: Recorder, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.recorder = recorder
        #: hosts that received at least one GET (replay sends none)
        self.contacted: set[int] = set()

    def _timed(self, name: str, call, *args, **kwargs):
        start = perf_counter()
        try:
            return call(*args, **kwargs)
        finally:
            self.recorder.charge(name, perf_counter() - start)

    def syn_probe(self, ip, port):
        return self._timed("net.transport.syn_probe", super().syn_probe, ip, port)

    def probe_ports(self, ip, ports):
        return self._timed("net.transport.probe_ports", super().probe_ports, ip, ports)

    def live_values_in(self, start, end):
        return self._timed(
            "net.transport.live_values_in", super().live_values_in, start, end
        )

    def get(self, ip, *args, **kwargs):
        self.contacted.add(ip.value)
        return self._timed("net.transport.get", super().get, ip, *args, **kwargs)


class TimedInMemory(_Timed, InMemoryTransport):
    pass


class TimedChaos(_Timed, ChaosTransport):
    pass


TIMED = {InMemoryTransport: TimedInMemory, ChaosTransport: TimedChaos}


# -- playing the stages ----------------------------------------------------------


@dataclass
class Played:
    """What one stage-by-stage sweep cost and produced."""

    busy: dict[str, float]
    addresses: int
    open_hosts: int
    candidate_hosts: int
    bodies: int
    match_s: float
    plugins_run: int
    detections: int
    identified: int
    transport: object
    retry: object

    @property
    def total(self) -> float:
        return sum(self.busy.values())


def play_stages(
    rec: Recorder, label: str, workload, telemetry: bool = False, timed: bool = False
) -> Played:
    """One sweep through Masscan.scan, Prefilter.run and, per finding,
    TsunamiEngine.scan_target and VersionFingerprinter.fingerprint."""
    if timed:
        kit = workload.stage_kit(telemetry, lambda cls: partial(TIMED[cls], rec))
    else:
        kit = workload.stage_kit(telemetry)
    transport, retry, telemetry = kit
    frame, kb = workload.inputs.frame, workload.inputs.kb
    busy = {}
    gc.collect()
    with rec.span(label):
        masscan = Masscan(
            transport, PORTS, rng=random.Random(SWEEP_SEED),
            retry=retry, telemetry=telemetry,
        )
        rec.begin("core.masscan.scan")
        scan = masscan.scan(frame)
        busy["masscan"] = rec.end()

        prefilter = Prefilter(transport, retry=retry, telemetry=telemetry)
        rec.begin("core.prefilter.run")
        findings = prefilter.run(scan)
        busy["prefilter"] = rec.end()

        engine = TsunamiEngine(transport, retry=retry, telemetry=telemetry)
        fingerprinter = VersionFingerprinter(
            transport, kb, retry=retry, telemetry=telemetry
        )
        busy["tsunami"] = busy["fingerprint"] = 0.0
        identified = 0
        for finding in findings:
            target = (finding.ip, finding.port, finding.scheme, finding.candidates)
            rec.begin("core.tsunami.scan_target")
            engine.scan_target(*target)
            busy["tsunami"] += rec.end()
            rec.begin("core.fingerprint.fingerprint")
            identified += fingerprinter.fingerprint(*target) is not None
            busy["fingerprint"] += rec.end()

        # Outside the stage totals: the matcher alone, over the bodies
        # stage II kept, to separate matching from fetching.
        rec.begin("core.prefilter.match_signatures")
        for finding in findings:
            match_signatures(finding.body)
        match_s = rec.end()
    return Played(
        busy=busy,
        addresses=scan.addresses_scanned,
        open_hosts=len(scan.open_ports),
        candidate_hosts=len({finding.ip.value for finding in findings}),
        bodies=len(findings),
        match_s=match_s,
        plugins_run=engine.stats.plugins_run,
        detections=engine.stats.detections,
        identified=identified,
        transport=transport,
        retry=retry,
    )


def ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def stage_layers(workload, rec: Recorder) -> tuple[dict[str, float], float, Checked]:
    """Layers every workload enters: stages, transport, telemetry, formats.

    Also returns the wall seconds of one untraced ``ScanPipeline.run`` and
    the oracle's reading of its report."""
    inputs = workload.inputs
    m: dict[str, float] = {}

    with rec.span("core.fingerprint.kb_build"):
        build_default_knowledge_base()
    with rec.span("net.intervals.frame_build"):
        CompressedPopulation.build(inputs.world, 1, seed=workload.seed)
    with rec.span("net.intervals.plan"):
        inputs.frame.difference(reserved_intervals()).block_counts()
    m["core.fingerprint.kb_build_s"] = rec.total("core.fingerprint.kb_build")
    m["net.intervals.frame_build_s"] = rec.total("net.intervals.frame_build")
    m["net.intervals.plan_s"] = rec.total("net.intervals.plan")
    m["net.intervals.frame_bytes"] = len(json.dumps(inputs.frame.to_dict()))

    # Untraced, as a user runs it: the whole the stage shares are taken of.
    workload.sweep(workload.pipeline())  # warm caches before anything is timed
    gc.collect()
    with rec.span("core.pipeline.run"):
        report = workload.sweep(workload.pipeline())
    wall = rec.total("core.pipeline.run")
    checked = check_report(report, inputs, workload.count_misses)
    profiled = workload.pipeline(profile=True)
    gc.collect()
    with rec.span("core.pipeline.run_profiled"):
        workload.sweep(profiled)
    m["obs.profile.overhead_ratio"] = ratio(
        rec.total("core.pipeline.run_profiled") - wall, wall
    )
    with rec.span("obs.telemetry.export_jsonl"):
        profiled.telemetry.export_jsonl()
    with rec.span("obs.profile.rollup"):
        ProfileRollup.from_spans(profiled.telemetry.tracer.finished)
    m["obs.telemetry.export_jsonl_s"] = rec.total("obs.telemetry.export_jsonl")
    m["obs.profile.rollup_s"] = rec.total("obs.profile.rollup")

    with rec.span("core.serialize.report_to_dict"):
        payload = report_to_dict(report)
    with rec.span("core.serialize.report_from_dict"):
        report_from_dict(payload)
    m["core.serialize.to_dict_s"] = rec.total("core.serialize.report_to_dict")
    m["core.serialize.from_dict_s"] = rec.total("core.serialize.report_from_dict")
    m["core.serialize.report_bytes"] = len(json.dumps(payload))

    as_run = play_stages(rec, "play.as_run", workload, telemetry=True)
    bare = play_stages(rec, "play.bare", workload)
    fine = play_stages(rec, "play.fine", workload, timed=True)

    for stage, name in (
        ("masscan", "core.masscan.scan_s"), ("prefilter", "core.prefilter.run_s"),
        ("tsunami", "core.tsunami.scan_s"), ("fingerprint", "core.fingerprint.run_s"),
    ):
        m[name] = as_run.busy[stage]
        m[name.rsplit(".", 1)[0] + ".share"] = ratio(as_run.busy[stage], wall)
    m["core.pipeline.glue_s"] = wall - as_run.total
    m["core.pipeline.glue_share"] = ratio(wall - as_run.total, wall)
    m["core.masscan.addresses_per_s"] = ratio(as_run.addresses, as_run.busy["masscan"])
    m["core.masscan.open_hosts"] = as_run.open_hosts
    m["core.prefilter.match_bodies_per_s"] = ratio(as_run.bodies, as_run.match_s)
    m["core.prefilter.candidates"] = as_run.candidate_hosts
    m["core.prefilter.pass_ratio"] = ratio(as_run.candidate_hosts, as_run.open_hosts)
    m["core.tsunami.plugins_run"] = as_run.plugins_run
    m["core.tsunami.detections"] = as_run.detections
    m["core.tsunami.detect_ratio"] = ratio(as_run.detections, as_run.plugins_run)
    m["core.fingerprint.identified_ratio"] = ratio(as_run.identified, as_run.bodies)

    stats = as_run.transport.stats
    m["net.transport.syn_probes"] = stats.syn_probes
    m["net.transport.http_requests"] = stats.http_requests
    ports_probed = rec.calls("net.transport.syn_probe") + len(PORTS) * rec.calls(
        "net.transport.probe_ports"
    )
    m["net.transport.probe_ports_per_s"] = ratio(
        ports_probed,
        rec.total("net.transport.syn_probe") + rec.total("net.transport.probe_ports"),
    )
    m["net.transport.get_per_s"] = ratio(
        rec.calls("net.transport.get"), rec.total("net.transport.get")
    )
    if as_run.retry is not None:
        m["net.chaos.faults_injected"] = sum(as_run.transport.faults.values())
        m["core.retry.operations"] = as_run.retry.stats.operations
        m["core.retry.retries"] = as_run.retry.stats.retries
        m["core.retry.exhausted"] = as_run.retry.stats.exhausted

    m["obs.telemetry.overhead_s"] = as_run.total - bare.total
    m["obs.telemetry.overhead_ratio"] = ratio(as_run.total - bare.total, bare.total)
    m["bench.trace.overhead_s"] = fine.total - bare.total
    m["bench.trace.overhead_ratio"] = ratio(fine.total - bare.total, bare.total)
    return m, wall, checked


# -- layers one workload enters ---------------------------------------------------


class TimingCheckpointer(Checkpointer):
    """Spans around save/load; the time from ``due`` to ``save`` is the
    pipeline building the payload (report_to_dict, telemetry snapshot)."""

    def __init__(self, path, every_batches: int, recorder: Recorder) -> None:
        super().__init__(path, every_batches)
        self.recorder = recorder
        self.bytes_last = 0
        self._due_at = 0.0

    def due(self, batches_done: int) -> bool:
        due = super().due(batches_done)
        if due:
            self._due_at = perf_counter()
        return due

    def save(self, payload: dict) -> None:
        self.recorder.charge("core.checkpoint.payload", perf_counter() - self._due_at)
        with self.recorder.span("core.checkpoint.save"):
            super().save(payload)
        self.bytes_last = self.path.stat().st_size

    def load(self):
        with self.recorder.span("core.checkpoint.load"):
            return super().load()

    def clear(self) -> None:
        """Keep the last checkpoint: the pass times a load of it afterwards."""


def checkpoint_layers(workload, rec: Recorder, m: dict[str, float]) -> None:
    workload.prepare()
    checkpoint = workload.checkpointer(TimingCheckpointer, recorder=rec)
    with rec.span("core.checkpoint.sweep"):
        workload.pipeline().run(workload.inputs.frame, checkpoint=checkpoint)
    m["core.checkpoint.saves"] = rec.calls("core.checkpoint.save")
    m["core.checkpoint.payload_s"] = rec.total("core.checkpoint.payload")
    m["core.checkpoint.save_s"] = rec.total("core.checkpoint.save")
    m["core.checkpoint.bytes_last"] = checkpoint.bytes_last
    m["core.checkpoint.share"] = ratio(
        m["core.checkpoint.payload_s"] + m["core.checkpoint.save_s"],
        rec.total("core.checkpoint.sweep"),
    )
    # The sweep's own load found no file; this one reads the last save.
    checkpoint.load()
    m["core.checkpoint.load_s"] = rec.durations("core.checkpoint.load")[-1]
    workload.prepare()


def parallel_layers(workload, rec: Recorder, m: dict[str, float], wall: float) -> None:
    inputs = workload.inputs
    with rec.span("core.parallel.plan_shards"):
        shards = plan_shards(inputs.frame, SWEEP_SEED, DEFAULT_SHARD_BLOCKS)
    runner = ShardRunner(
        transport=InMemoryTransport(inputs.world), ports=PORTS,
        batch_size=ScanPipeline.batch_size, fingerprint=True, use_prefilter=True,
        knowledge_base=inputs.kb, retry_policy=None, profile=False,
    )
    with rec.span("core.parallel.runner_pickle"):
        blob = pickle.dumps(runner)
    payloads = []
    for shard in shards:
        rec.begin("core.parallel.shard_run")
        payloads.append(runner.run(shard))
        rec.end()
    # The fold, step by step, as the engine does it on the main thread.
    with rec.span("core.parallel.fold"):
        report, telemetry, stats = ScanReport(), Telemetry(), TransportStats()
        for payload in payloads:
            report.merge(report_from_dict(payload["report"]))
            telemetry.absorb_state(payload["telemetry"])
            stats.merge(TransportStats.from_dict(payload["transport_stats"]))
    # Forked workers first: forking is only safe before any thread exists.
    with rec.span("core.parallel.process_sweep.fork"):
        workload.operation()
    with rec.span("core.parallel.process_sweep.default"):
        workload.operation(start_method=None)
    with rec.span("core.parallel.thread_sweep"):
        workload.sweep(workload.pipeline(workers=workload.workers, executor="thread"))
    runs = rec.durations("core.parallel.shard_run")
    m["core.parallel.plan_shards_s"] = rec.total("core.parallel.plan_shards")
    m["core.parallel.shards"] = len(shards)
    m["core.parallel.runner_pickle_s"] = rec.total("core.parallel.runner_pickle")
    m["core.parallel.runner_pickle_bytes"] = len(blob)
    m["core.parallel.shard_run_p50_s"] = median(runs)
    m["core.parallel.shard_run_max_s"] = max(runs)
    m["core.parallel.fold_overhead_s"] = rec.total("core.parallel.fold")
    m["core.parallel.thread_wall_s"] = rec.total("core.parallel.thread_sweep")
    default = rec.total("core.parallel.process_sweep.default")
    m["core.parallel.worker_start_s"] = default - rec.total(
        "core.parallel.process_sweep.fork"
    )
    m["core.parallel.speedup_vs_sequential"] = ratio(wall, default)


def rescan_layers(
    workload, rec: Recorder, m: dict[str, float], wall: float, ticks: int
) -> None:
    inputs = workload.inputs
    transport = TimedInMemory(rec, inputs.world)
    engine = RescanEngine(
        transport, PORTS, seed=SWEEP_SEED, batch_size=RESCAN_BATCH,
        knowledge_base=inputs.kb,
    )
    with rec.span("core.rescan.baseline"):
        state = engine.baseline(inputs.frame)
    # Every round churns the same hosts, so the counts below repeat exactly.
    workload.reset_churn()
    open_hosts = probed = 0
    for _ in range(ticks):
        workload.prepare()
        transport.contacted.clear()
        rec.begin("core.rescan.rescan")
        state = engine.rescan(inputs.frame, state)
        rec.end()
        open_hosts += len(state.report.port_scan.open_ports)
        probed += len(transport.contacted)
    path = workload.workdir / "rescan-state.json"
    with rec.span("core.rescan.save_state"):
        save_rescan_state(state, path)
    with rec.span("core.rescan.load_state"):
        load_rescan_state(path)
    tick_s = rec.durations("core.rescan.rescan")
    m["core.rescan.record_s"] = rec.total("core.rescan.baseline")
    m["core.rescan.record_vs_sweep_ratio"] = ratio(
        m["core.rescan.record_s"], wall
    )
    m["core.rescan.replayed_hosts"] = open_hosts - probed
    m["core.rescan.probed_hosts"] = probed
    m["core.rescan.replay_ratio"] = ratio(open_hosts - probed, open_hosts)
    m["core.rescan.tick_p90_s"] = (
        quantiles(tick_s, n=10)[-1] if len(tick_s) > 1 else tick_s[0]
    )
    m["core.rescan.speedup_vs_full"] = ratio(wall, median(tick_s))
    m["core.rescan.state_save_s"] = rec.total("core.rescan.save_state")
    m["core.rescan.state_load_s"] = rec.total("core.rescan.load_state")
    m["core.rescan.state_bytes"] = path.stat().st_size
    path.unlink()
    workload.reset_churn()


def trace_workload(
    workload, rec: Recorder, ticks: int = TRACED_TICKS
) -> tuple[dict[str, float], Checked]:
    """Every per-layer metric for one workload (0 for a layer not entered)."""
    measured, wall, checked = stage_layers(workload, rec)
    if workload.name == "sweep_checkpointed":
        checkpoint_layers(workload, rec, measured)
    elif workload.name == "sweep_sharded":
        parallel_layers(workload, rec, measured, wall)
    elif workload.name == "rescan_campaign":
        rescan_layers(workload, rec, measured, wall, ticks)
    measured["bench.trace.spans"] = len(rec.spans) + len(rec.charges)
    return {name: float(measured.get(name, 0.0)) for name, _, _ in PER_LAYER}, checked
