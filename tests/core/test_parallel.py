"""Tests for the sharded parallel scan engine.

The acceptance property: for a fixed seed, the serialized ScanReport and
the telemetry JSONL export are *byte-identical* for every worker count —
with a plain transport, under chaos faults, and across a kill-and-resume
through a shard-boundary checkpoint.
"""

import inspect
import json
import multiprocessing
import os
import signal
import time
from multiprocessing.process import BaseProcess
from pathlib import Path

import pytest

from repro.apps.base import AppInstance
from repro.apps.catalog import create_instance, scanned_ports
from repro.core.checkpoint import Checkpointer
from repro.core.parallel import plan_shards
from repro.core.pipeline import ScanPipeline
from repro.core.retry import RetryPolicy
from repro.core.serialize import report_to_dict
from repro.net.chaos import ChaosTransport, FaultPlan
from repro.net.host import Host, Service
from repro.net.intervals import BLOCK_MASK, BLOCK_SIZE, IntervalSet
from repro.net.ipv4 import IPv4Address
from repro.net.network import SimulatedInternet
from repro.net.transport import InMemoryTransport
from repro.util.clock import SimClock
from repro.util.errors import ConfigError
from tests.core.test_masscan import FRAME_FORMS

PLAN = FaultPlan(
    syn_loss=0.05, request_loss=0.05, reset_rate=0.02, truncate_rate=0.02,
    flap_rate=0.1, flap_down=120.0, flap_period=600.0,
)

APPS = (
    ("polynote", 8192), ("docker", 2375), ("hadoop", 8088), ("grav", 80),
    ("consul", 8500), ("zeppelin", 8080), ("nomad", 4646), ("ajenti", 8000),
    ("jenkins", 8080), ("adminer", 80), ("jupyterlab", 8888), ("phpmyadmin", 80),
)


def build_world(blocks: int = 6):
    """AWE hosts plus dead neighbours spread over several /24 blocks."""
    internet = SimulatedInternet()
    ips = []
    for index, (slug, port) in enumerate(APPS):
        ip = IPv4Address.parse(f"93.184.{100 + index % blocks}.{10 + index}")
        host = Host(ip)
        host.add_service(
            Service(port, app=AppInstance(create_instance(slug), port))
        )
        internet.add_host(host)
        ips.append(ip)
    # dead addresses exercise the silent-frame fast path in every shard
    for block in range(blocks):
        for offset in (1, 2, 3):
            ips.append(IPv4Address.parse(f"93.184.{100 + block}.{200 + offset}"))
    return internet, ips


def whole_blocks(ips) -> IntervalSet:
    """The /24s the addresses fall in, swept whole: 255/256 dead filler."""
    return IntervalSet(
        (ip.value & BLOCK_MASK, ip.value | (BLOCK_SIZE - 1)) for ip in ips
    )


def run_arm(workers, chaos=False, checkpoint=None, seed=7, shard_blocks=2,
            profile=False, form="list"):
    """One sweep over a freshly built world; returns (report, pipeline)."""
    internet, ips = build_world()
    ips = FRAME_FORMS[form](ips)
    clock = SimClock()
    transport = InMemoryTransport(internet)
    if chaos:
        transport = ChaosTransport(transport, PLAN, seed=21, clock=clock)
    pipeline = ScanPipeline(
        transport, scanned_ports(), seed=seed, batch_size=3,
        fingerprint=False, workers=workers, shard_blocks=shard_blocks,
        retry_policy=RetryPolicy(max_attempts=3, base_delay=0.5, max_delay=4.0)
        if chaos else None,
        clock=clock, profile=profile,
    )
    report = pipeline.run(ips, checkpoint=checkpoint)
    return report, pipeline


def outputs(report, pipeline):
    """The two byte-comparable artifacts of a run."""
    return (
        json.dumps(report_to_dict(report), sort_keys=True),
        pipeline.telemetry.export_jsonl(),
    )


def test_a_sharded_sweep_builds_one_knowledge_base(kb_builds):
    """The parent pipeline's knowledge base serves every shard."""
    internet, ips = build_world()
    report = ScanPipeline(
        InMemoryTransport(internet), scanned_ports(), seed=7,
        workers=2, shard_blocks=2,
    ).run(ips)
    assert report.findings
    assert len(kb_builds) == 1


class TestPlanShards:
    def test_shards_are_slash24_aligned_and_sorted(self):
        _, ips = build_world()
        shards = plan_shards(ips, seed=7, shard_blocks=2)
        assert len(shards) >= 2
        seen = []
        for shard in shards:
            blocks = {ip.value & 0xFFFFFF00 for ip in shard.addresses}
            assert len(blocks) <= 2
            assert list(shard.addresses) == sorted(shard.addresses)
            seen.extend(sorted(blocks))
        assert seen == sorted(seen)  # canonical block order across shards

    def test_partition_is_exhaustive_and_disjoint(self):
        _, ips = build_world()
        shards = plan_shards(ips, seed=7, shard_blocks=2)
        flat = [ip for shard in shards for ip in shard.addresses]
        assert sorted(flat) == sorted(set(ips))

    def test_partition_ignores_candidate_order(self):
        _, ips = build_world()
        forward = plan_shards(ips, seed=7, shard_blocks=2)
        backward = plan_shards(list(reversed(ips)), seed=7, shard_blocks=2)
        assert [s.addresses for s in forward] == [s.addresses for s in backward]
        assert [s.seed for s in forward] == [s.seed for s in backward]

    def test_shard_seeds_are_distinct_and_seed_dependent(self):
        _, ips = build_world()
        shards = plan_shards(ips, seed=7, shard_blocks=1)
        seeds = [s.seed for s in shards]
        assert len(set(seeds)) == len(seeds)
        assert seeds != [s.seed for s in plan_shards(ips, seed=8, shard_blocks=1)]

    def test_reserved_addresses_are_dropped(self):
        ips = [IPv4Address.parse("93.184.100.1"), IPv4Address.parse("10.0.0.1")]
        shards = plan_shards(ips, seed=7)
        assert [ip for s in shards for ip in s.addresses] == [ips[0]]
        kept = plan_shards(ips, seed=7, exclude_reserved=False)
        assert len([ip for s in kept for ip in s.addresses]) == 2

    def test_shard_blocks_must_be_positive(self):
        with pytest.raises(ValueError):
            plan_shards([], seed=7, shard_blocks=0)

    def test_the_default_shard_size_is_one_constant(self):
        """The pipeline's field and the planner's argument default to the
        constant ``repro.core.parallel`` still exports."""
        from repro.core import parallel, pipeline

        assert parallel.DEFAULT_SHARD_BLOCKS is pipeline.DEFAULT_SHARD_BLOCKS
        planner = inspect.signature(plan_shards).parameters["shard_blocks"]
        assert planner.default == pipeline.DEFAULT_SHARD_BLOCKS
        internet, _ = build_world()
        swept = ScanPipeline(InMemoryTransport(internet), scanned_ports())
        assert swept.shard_blocks == pipeline.DEFAULT_SHARD_BLOCKS

    def test_sparse_frame_plans_in_linear_time(self):
        """50,000 single-address runs, one per /24: a block lookup and a
        shard cut each bisect to their runs (about 0.2 s in all); a slice
        of the run tuple per lookup, or a walk from run 0 per shard, is
        quadratic (8 s)."""
        base = IPv4Address.parse("93.0.0.0").value
        frame = IntervalSet.from_values(
            base + index * 256 + 7 for index in range(50_000)
        )
        start = time.perf_counter()
        for block in frame.block_bases():
            assert frame.block_values(block) == [block + 7]
        shards = plan_shards(frame, seed=7)
        elapsed = time.perf_counter() - start
        assert sum(len(shard.addresses) for shard in shards) == 50_000
        assert elapsed < 1.0


class TestWorkerCountInvariance:
    @pytest.mark.parametrize("chaos", [False, True], ids=["plain", "chaos"])
    def test_workers_4_is_byte_identical_to_workers_1(self, chaos):
        """The tentpole acceptance property."""
        one = outputs(*run_arm(workers=1, chaos=chaos))
        four = outputs(*run_arm(workers=4, chaos=chaos))
        assert four[0] == one[0]  # serialized ScanReport
        assert four[1] == one[1]  # telemetry JSONL

    @pytest.mark.parametrize("chaos", [False, True], ids=["plain", "chaos"])
    @pytest.mark.parametrize("workers", [None, 2], ids=["sequential", "w2"])
    @pytest.mark.parametrize("form", ["iterator", "duplicated", "intervals"])
    def test_every_frame_form_is_byte_identical_to_the_list(
        self, form, workers, chaos
    ):
        """The world has several hosts per /24; a one-shot iterator, a
        list naming addresses twice and the compressed frame are the same
        sweep, through the sequential driver and the sharded one."""
        assert outputs(*run_arm(workers, chaos=chaos, form=form)) == outputs(
            *run_arm(workers, chaos=chaos)
        )

    def test_engine_matches_sequential_semantics(self):
        """Sharding may not change *what* is found, only how it is run."""
        parallel, _ = run_arm(workers=4)
        internet, ips = build_world()
        sequential = ScanPipeline(
            InMemoryTransport(internet), scanned_ports(), seed=7,
            batch_size=3, fingerprint=False,
        ).run(ips)
        assert (
            parallel.port_scan.addresses_scanned
            == sequential.port_scan.addresses_scanned
        )
        assert parallel.hosts_per_app() == sequential.hosts_per_app()
        assert parallel.mavs_per_app() == sequential.mavs_per_app()
        assert parallel.vulnerable_ips() == sequential.vulnerable_ips()

    def test_invalid_worker_count_rejected(self):
        with pytest.raises(ValueError, match="workers"):
            run_arm(workers=0)

    def test_unknown_executor_rejected(self):
        internet, _ = build_world()
        with pytest.raises(ValueError, match="fiber"):
            ScanPipeline(
                InMemoryTransport(internet), scanned_ports(), workers=1,
                executor="fiber",
            )

    def test_a_known_executor_without_workers_sweeps_sequentially(self):
        """``executor`` picks the shard backend; with ``workers`` unset
        there are no shards, and every backend it accepts sweeps alike."""
        from repro.core.pipeline import EXECUTORS

        def sweep(**options):
            internet, ips = build_world()
            pipeline = ScanPipeline(
                InMemoryTransport(internet), scanned_ports(), seed=7,
                batch_size=3, fingerprint=False, clock=SimClock(), **options,
            )
            return outputs(pipeline.run(ips), pipeline)

        expected = sweep()
        assert "thread" in EXECUTORS and "process" in EXECUTORS
        for executor in EXECUTORS:
            assert sweep(executor=executor) == expected, executor


class TestProfileInvariance:
    """Profiling is observability, not behaviour: arming it must not
    perturb the canonical outputs, and its own canonical artifacts (the
    SimClock rollup and the flight recorder) must themselves be
    identical for every worker count."""

    def test_profiling_does_not_change_canonical_output(self):
        plain = outputs(*run_arm(workers=4, chaos=True))
        profiled = outputs(*run_arm(workers=4, chaos=True, profile=True))
        assert profiled == plain

    def test_rollup_and_flight_are_worker_count_invariant(self):
        """The acceptance sweep: workers 1, 2, 4, 8 under chaos."""
        def canonical(pipeline):
            from repro.obs.profile import ProfileRollup

            rollup = ProfileRollup.from_spans(pipeline.telemetry.tracer.finished)
            return (
                json.dumps(rollup.to_dict(), sort_keys=True),
                json.dumps(pipeline.telemetry.flight.snapshot_state(), sort_keys=True),
            )

        baseline_report, baseline_pipe = run_arm(
            workers=1, chaos=True, profile=True
        )
        expected_outputs = outputs(baseline_report, baseline_pipe)
        expected_profile = canonical(baseline_pipe)
        assert baseline_pipe.telemetry.flight.probes_seen > 0
        for workers in (2, 4, 8):
            report, pipeline = run_arm(
                workers=workers, chaos=True, profile=True
            )
            assert outputs(report, pipeline) == expected_outputs, workers
            assert canonical(pipeline) == expected_profile, workers

    def test_rollup_attributes_the_sweep_time(self):
        _, pipeline = run_arm(workers=4, chaos=True, profile=True)
        from repro.obs.profile import ProfileRollup

        rollup = ProfileRollup.from_spans(pipeline.telemetry.tracer.finished)
        assert rollup.root_total > 0  # chaos + retry advanced the SimClock
        assert rollup.attributed_fraction() >= 0.95

    def test_wall_book_is_populated_but_never_canonical(self):
        report, pipeline = run_arm(workers=4, chaos=True, profile=True)
        book = pipeline.wall_profile
        assert book.armed
        assert len(book.shards) == len(pipeline.shard_profiles) > 1
        assert book.elapsed() > 0
        assert book.dominant_path() is not None
        # wall numbers stay out of the two canonical artifacts
        report_json, telemetry_jsonl = outputs(report, pipeline)
        assert "wall" not in report_json
        assert "wall" not in telemetry_jsonl

    def test_profile_off_keeps_wall_book_empty(self):
        _, pipeline = run_arm(workers=4, chaos=True)
        assert not pipeline.wall_profile.armed
        assert pipeline.shard_profiles == {}


class SimulatedCrash(BaseException):
    """A kill signal; not an Exception so nothing downstream swallows it."""


class CrashingCheckpointer(Checkpointer):
    """Dies mid-sweep after a fixed number of successful saves."""

    def __init__(self, path, die_after_saves, **kwargs):
        super().__init__(path, **kwargs)
        self.die_after_saves = die_after_saves
        self.saves = 0

    def save(self, payload):
        super().save(payload)
        self.saves += 1
        if self.saves >= self.die_after_saves:
            raise SimulatedCrash(f"killed after {self.saves} saves")


class TestShardCheckpointResume:
    def test_kill_and_resume_is_byte_identical(self, tmp_path):
        """Kill a chaotic workers=4 sweep at a shard boundary, resume it,
        and get byte-identical report and telemetry."""
        expected = outputs(*run_arm(workers=4, chaos=True))
        crasher = CrashingCheckpointer(
            tmp_path / "scan.ckpt", die_after_saves=2, every_batches=1
        )
        with pytest.raises(SimulatedCrash):
            run_arm(workers=4, chaos=True, checkpoint=crasher)
        ckpt = Checkpointer(tmp_path / "scan.ckpt", every_batches=1)
        resumed = outputs(*run_arm(workers=4, chaos=True, checkpoint=ckpt))
        assert resumed[0] == expected[0]
        assert resumed[1] == expected[1]
        assert not ckpt.exists()  # success clears the checkpoint

    def test_kill_and_resume_with_profiling_is_byte_identical(self, tmp_path):
        """Profiling + flight recording stay on through the kill and the
        resume; the canonical outputs and the flight record still match
        an uninterrupted run."""
        expected_report, expected_pipe = run_arm(
            workers=4, chaos=True, profile=True
        )
        expected = outputs(expected_report, expected_pipe)
        crasher = CrashingCheckpointer(
            tmp_path / "scan.ckpt", die_after_saves=2, every_batches=1
        )
        with pytest.raises(SimulatedCrash):
            run_arm(workers=4, chaos=True, checkpoint=crasher, profile=True)
        ckpt = Checkpointer(tmp_path / "scan.ckpt", every_batches=1)
        resumed_report, resumed_pipe = run_arm(
            workers=4, chaos=True, checkpoint=ckpt, profile=True
        )
        assert outputs(resumed_report, resumed_pipe) == expected
        assert (
            resumed_pipe.telemetry.flight.snapshot_state()
            == expected_pipe.telemetry.flight.snapshot_state()
        )

    def test_resume_only_reexecutes_missing_shards(self, tmp_path):
        crasher = CrashingCheckpointer(
            tmp_path / "scan.ckpt", die_after_saves=2, every_batches=1
        )
        with pytest.raises(SimulatedCrash):
            run_arm(workers=4, chaos=True, checkpoint=crasher)
        payload = Checkpointer(tmp_path / "scan.ckpt").load()
        done = len(payload["shards"])
        assert done >= 2

        internet, ips = build_world()
        total = len(plan_shards(ips, seed=7, shard_blocks=2))
        forks = []
        clock = SimClock()

        class CountingChaos(ChaosTransport):
            def fork(self, shard_seed, clock=None):
                forks.append(shard_seed)
                return super().fork(shard_seed, clock)

        transport = CountingChaos(
            InMemoryTransport(internet), PLAN, seed=21, clock=clock
        )
        pipeline = ScanPipeline(
            transport, scanned_ports(), seed=7, batch_size=3,
            fingerprint=False, workers=4, shard_blocks=2,
            retry_policy=RetryPolicy(
                max_attempts=3, base_delay=0.5, max_delay=4.0
            ),
            clock=clock,
        )
        pipeline.run(ips, checkpoint=Checkpointer(tmp_path / "scan.ckpt"))
        assert len(forks) == total - done

    def test_resume_refuses_mismatched_config(self, tmp_path):
        crasher = CrashingCheckpointer(
            tmp_path / "scan.ckpt", die_after_saves=2, every_batches=1
        )
        with pytest.raises(SimulatedCrash):
            run_arm(workers=4, chaos=True, checkpoint=crasher)
        with pytest.raises(ConfigError):
            run_arm(workers=4, chaos=True,
                    checkpoint=Checkpointer(tmp_path / "scan.ckpt"), seed=8)
        with pytest.raises(ConfigError):
            run_arm(workers=4, chaos=True,
                    checkpoint=Checkpointer(tmp_path / "scan.ckpt"),
                    shard_blocks=3)


class ShardLog(InMemoryTransport):
    """Notes the process that runs each shard, in a file every worker
    process appends to (it crosses the pickle boundary as its path)."""

    def __init__(self, internet, log):
        super().__init__(internet)
        self.log = str(log)

    def fork(self, shard_seed, clock=None):
        with open(self.log, "a") as out:
            out.write(f"{os.getpid()} {shard_seed}\n")
        return super().fork(shard_seed, clock)

    def runs(self) -> list[tuple[int, int]]:
        """``(pid, shard seed)`` per shard run, in the order they began."""
        lines = Path(self.log).read_text().splitlines()
        return [tuple(map(int, line.split())) for line in lines]


class ChildFate(InMemoryTransport):
    """A child process is SIGKILLed (``fate="kill"``), or raises, as it
    starts its first shard.  The parent's first shard waits until that
    has happened, so it happens mid-sweep whatever the start method."""

    def __init__(self, internet, marker, fate):
        super().__init__(internet)
        self.marker = str(marker)
        self.fate = fate

    def fork(self, shard_seed, clock=None):
        marker = Path(self.marker)
        if multiprocessing.parent_process() is not None:
            marker.touch()
            if self.fate == "kill":
                os.kill(os.getpid(), signal.SIGKILL)
            raise ValueError("shard failed in a child")
        deadline = time.monotonic() + 60
        while not marker.exists() and time.monotonic() < deadline:
            time.sleep(0.01)
        return super().fork(shard_seed, clock)


def process_sweep(transport, workers, blocks=6, shard_blocks=2):
    """A plain sweep of ``build_world(blocks)`` through ``transport`` (over
    that world's internet) on the process executor."""
    _, ips = build_world(blocks)
    pipeline = ScanPipeline(
        transport, scanned_ports(), seed=7, batch_size=3, fingerprint=False,
        workers=workers, shard_blocks=shard_blocks, executor="process",
        clock=SimClock(),
    )
    return pipeline.run(ips), pipeline


@pytest.fixture
def child_starts(monkeypatch):
    """How many processes a sweep starts."""
    started = []
    start = BaseProcess.start

    def counted(process):
        started.append(process)
        start(process)

    monkeypatch.setattr(BaseProcess, "start", counted)
    return started


class TestProcessWorkers:
    """Under ``executor="process"`` the parent is one of the ``workers``."""

    @pytest.mark.parametrize("workers, children", [(1, 0), (2, 1)])
    def test_workers_counts_the_parent(
        self, workers, children, child_starts, tmp_path
    ):
        internet, _ = build_world()
        transport = ShardLog(internet, tmp_path / "shards.log")
        result = outputs(*process_sweep(transport, workers))
        assert result == outputs(*run_arm(workers=1))
        assert len(child_starts) == children
        pids = [pid for pid, _ in transport.runs()]
        assert len(pids) == len(plan_shards(build_world()[1], 7, 2)) == 3
        assert os.getpid() in pids  # the parent landed at least one shard
        assert len(set(pids)) <= workers
        assert multiprocessing.active_children() == []

    def test_more_processes_than_cores_claim_each_shard_once(self, tmp_path):
        """Four processes race for twelve one-block shards on the shared
        counter: a lost update would run a shard twice or never."""
        internet, ips = build_world(blocks=12)
        transport = ShardLog(internet, tmp_path / "shards.log")
        result = outputs(*process_sweep(transport, 4, blocks=12, shard_blocks=1))
        shards = plan_shards(ips, seed=7, shard_blocks=1)
        assert len(shards) == 12
        assert sorted(seed for _, seed in transport.runs()) == sorted(
            shard.seed for shard in shards
        )
        clean = ScanPipeline(
            InMemoryTransport(internet), scanned_ports(), seed=7, batch_size=3,
            fingerprint=False, workers=1, shard_blocks=1, clock=SimClock(),
        )
        assert result == outputs(clean.run(ips), clean)

    def test_a_killed_child_loses_no_shard(self, tmp_path):
        """The parent reads the dead child's end of file and runs the shard
        the child had claimed itself: the sweep is the golden one."""
        internet, _ = build_world()
        transport = ChildFate(internet, tmp_path / "died", fate="kill")
        assert outputs(*process_sweep(transport, 2)) == outputs(
            *run_arm(workers=1)
        )
        assert (tmp_path / "died").exists()
        assert multiprocessing.active_children() == []

    def test_a_shard_raising_in_a_child_raises_in_the_parent(self, tmp_path):
        internet, _ = build_world()
        transport = ChildFate(internet, tmp_path / "raised", fate="raise")
        with pytest.raises(ValueError, match="shard failed in a child"):
            process_sweep(transport, 2)
        assert multiprocessing.active_children() == []
