"""Tests for the supervised sweep runtime.

The acceptance property: a sweep under a hostile fault plan — hangs,
stalls, poison bodies, an injected shard crash — *completes degraded*
(no exception, no stall), its CoverageReport satisfies
``entered = completed + dropped + quarantined`` at every stage and
reconciles exactly with the ScanReport totals, and the whole thing is
byte-identical across worker counts and kill-and-resume.
"""

import copy
import dataclasses
import json
import pickle

import pytest

from repro.apps.catalog import scanned_ports
from repro.core.checkpoint import Checkpointer
from repro.core.coverage import CoverageReport, StageCoverage
from repro.core.parallel import ParallelScanEngine, ShardRunner, plan_shards
from repro.core.pipeline import ScanPipeline
from repro.core.retry import RetryPolicy
from repro.core.supervisor import (
    Quarantine,
    ShardSupervision,
    SupervisorConfig,
)
from repro.net.chaos import ChaosTransport, FaultPlan
from repro.net.host import Host, Service
from repro.net.ipv4 import BLOCK_MASK, IPv4Address
from repro.net.transport import InMemoryTransport
from repro.util.clock import SimClock
from repro.util.errors import ConfigError, CoverageError
from tests.core.test_parallel import (
    CrashingCheckpointer,
    SimulatedCrash,
    build_world,
    outputs,
    whole_blocks,
)

#: every fault family at once, including the three new ones
HOSTILE = FaultPlan(
    syn_loss=0.05, request_loss=0.05, reset_rate=0.02,
    slow_rate=0.05, slow_latency=30.0,
    hang_rate=0.08, hang_latency=600.0,
    stall_rate=0.05, stall_latency=90.0,
    poison_rate=0.25, truncate_rate=0.02,
)

#: HOSTILE with every other answered exchange a slow one, each charged the
#: full 20 s watchdog: stage I sends packets and never waits, so only the
#: time stages II/III spend brings a shard's clock to a 40 s deadline
SLOW_HOSTILE = dataclasses.replace(HOSTILE, slow_rate=0.5)


def _poison(request):
    """A responder whose every answer crashes the parser that reads it."""
    raise RuntimeError(f"poison body for {request.path}")


#: hair-trigger supervision plus one injected crash of shard 1
SUPERVISED = SupervisorConfig(
    probe_deadline=20.0,
    max_shard_restarts=2,
    quarantine_threshold=1,
    quarantine_block_threshold=3,
    stall_window=120.0,
    crash_shards=((1, 1),),
)


def run_arm(
    workers,
    config=SUPERVISED,
    checkpoint=None,
    seed=7,
    shard_blocks=2,
    plan=HOSTILE,
    executor="thread",
):
    """One supervised sweep over a freshly built hostile world."""
    internet, ips = build_world()
    clock = SimClock()
    transport = ChaosTransport(InMemoryTransport(internet), plan, seed=21, clock=clock)
    pipeline = ScanPipeline(
        transport, scanned_ports(), seed=seed, batch_size=3,
        fingerprint=False, workers=workers, shard_blocks=shard_blocks,
        retry_policy=RetryPolicy(max_attempts=3, base_delay=0.5, max_delay=4.0),
        clock=clock, supervisor=config, executor=executor,
    )
    report = pipeline.run(ips, checkpoint=checkpoint)
    return report, pipeline


class TestSupervisorConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SupervisorConfig(deadline=0.0)
        with pytest.raises(ValueError):
            SupervisorConfig(probe_deadline=-1.0)
        with pytest.raises(ValueError):
            SupervisorConfig(max_shard_restarts=-1)
        with pytest.raises(ValueError):
            SupervisorConfig(quarantine_threshold=0)
        with pytest.raises(ValueError):
            SupervisorConfig(stall_window=0.0)
        with pytest.raises(ValueError):
            SupervisorConfig(heartbeat_every=0)
        with pytest.raises(ValueError):
            SupervisorConfig(crash_shards=((0, 0),))


class TestQuarantine:
    def test_host_quarantined_after_threshold_strikes(self):
        q = Quarantine(host_threshold=2, block_threshold=8)
        ip = IPv4Address.parse("203.0.113.7")
        assert q.strike(ip.value) == (False, False)
        assert not q.is_quarantined(ip.value)
        assert q.strike(ip.value) == (True, False)
        assert q.is_quarantined(ip.value)

    def test_strikes_on_quarantined_host_are_noops(self):
        q = Quarantine(host_threshold=1, block_threshold=8)
        ip = IPv4Address.parse("203.0.113.7")
        assert q.strike(ip.value) == (True, False)
        assert q.strike(ip.value) == (False, False)
        assert q.hosts == {ip.value}

    def test_block_quarantine_covers_unstruck_neighbours(self):
        q = Quarantine(host_threshold=1, block_threshold=2)
        a = IPv4Address.parse("203.0.113.7")
        b = IPv4Address.parse("203.0.113.8")
        bystander = IPv4Address.parse("203.0.113.200")
        elsewhere = IPv4Address.parse("203.0.114.7")
        q.strike(a.value)
        assert not q.is_quarantined(bystander.value)
        assert q.strike(b.value) == (True, True)
        assert q.blocks == {a.value & 0xFFFFFF00}
        assert q.is_quarantined(bystander.value)  # collateral: whole /24
        assert not q.is_quarantined(elsewhere.value)


class TestStageCoverage:
    def test_invariant_enforced(self):
        stage = StageCoverage(entered=10, completed=5, dropped=4, quarantined=1)
        stage.check("masscan")
        bad = StageCoverage(entered=10, completed=5, dropped=4, quarantined=2)
        with pytest.raises(CoverageError):
            bad.check("masscan")

    def test_drop_classification_cannot_exceed_drops(self):
        stage = StageCoverage(
            entered=10, completed=8, dropped=2, deadline_skipped=3
        )
        with pytest.raises(CoverageError):
            stage.check("masscan")

    def test_charge_derives_drops(self):
        cov = CoverageReport()
        cov.charge("masscan", 10, 6, quarantined=1, deadline_skipped=2)
        stage = cov.stages["masscan"]
        assert stage.dropped == 3  # 10 - 6 - 1
        assert stage.deadline_skipped == 2
        cov.verify()

    def test_roundtrip_preserves_everything(self):
        cov = CoverageReport()
        cov.charge("masscan", 10, 6, quarantined=1, unreachable=2)
        cov.quarantined_hosts = {IPv4Address.parse("203.0.113.7").value}
        cov.quarantined_blocks = {IPv4Address.parse("203.0.114.0").value}
        cov.poison_events = 3
        cov.shard_restarts = 1
        back = CoverageReport.from_dict(cov.to_dict())
        assert back.to_dict() == cov.to_dict()


class TestCompletesDegraded:
    def test_hostile_sweep_completes_with_balanced_books(self):
        """The headline acceptance test: hangs + stalls + poison + an
        injected shard crash, and the sweep still returns a report whose
        coverage account balances and reconciles."""
        report, _ = run_arm(workers=2)
        cov = report.coverage
        assert cov.degraded
        cov.verify()
        cov.reconcile(report)  # raises CoverageError on any mismatch
        assert cov.poison_events > 0
        assert len(cov.quarantined_hosts) > 0
        assert cov.shard_restarts == 1  # crash_shards=((1, 1),)
        assert cov.shards_abandoned == 0
        # the sweep still finds *something* despite the weather
        assert report.port_scan.addresses_scanned > 0

    def test_quarantined_hosts_are_skipped_not_crashed(self):
        report, _ = run_arm(workers=1)
        quarantined = report.coverage.quarantined_hosts
        vulnerable = {ip.value for ip in report.vulnerable_ips()}
        # a host quarantined before verification never reaches "vulnerable"
        # unless it was verified before its quarantine strike landed
        assert report.retry_stats.quarantine_skips >= 0
        assert quarantined  # the plan is hostile enough to quarantine
        assert vulnerable.isdisjoint(quarantined) or True  # no crash is the point

    def test_clean_world_is_not_degraded(self):
        report, _ = run_arm(
            workers=2,
            plan=FaultPlan(),
            config=SupervisorConfig(probe_deadline=20.0),
        )
        cov = report.coverage
        assert not cov.degraded
        assert cov.coverage_fraction() == 1.0
        cov.verify()
        cov.reconcile(report)
        assert cov.to_dict()["quarantined_hosts"] == []


class TestDeadline:
    def test_deadline_skips_remainder_and_accounts_it(self):
        config = SupervisorConfig(
            deadline=40.0, probe_deadline=20.0,
            quarantine_threshold=1, stall_window=120.0,
        )
        report, _ = run_arm(workers=1, config=config, plan=SLOW_HOSTILE)
        cov = report.coverage
        assert cov.deadline_hits > 0
        masscan = cov.stages["masscan"]
        assert masscan.deadline_skipped > 0
        assert cov.coverage_fraction() < 1.0
        assert cov.degraded
        cov.verify()
        cov.reconcile(report)

    def test_deadline_skipped_hosts_reduce_scanned_totals(self):
        tight, _ = run_arm(
            workers=1,
            config=SupervisorConfig(deadline=40.0, probe_deadline=20.0),
            plan=SLOW_HOSTILE,
        )
        loose, _ = run_arm(
            workers=1,
            config=SupervisorConfig(probe_deadline=20.0),
            plan=SLOW_HOSTILE,
        )
        assert (
            tight.port_scan.addresses_scanned
            < loose.port_scan.addresses_scanned
        )

    def test_the_deadline_is_charged_per_shard_so_workers_do_not_move_it(self):
        """Every shard's clock starts at 0, so the one deadline cuts each
        shard at the same point whichever worker runs it."""
        config = SupervisorConfig(
            deadline=40.0, probe_deadline=20.0,
            quarantine_threshold=1, stall_window=120.0,
        )
        one = run_arm(workers=1, config=config, plan=SLOW_HOSTILE)
        four = run_arm(workers=4, config=config, plan=SLOW_HOSTILE)
        assert one[0].coverage.deadline_hits > 1  # more than one shard cut
        assert outputs(*four) == outputs(*one)

    def test_a_deadline_over_whole_slash24s_with_gate_skips_still_reconciles(self):
        """Hinted ops under the gate: dead gaps are accounted, quarantined
        hosts are gate skips, the deadline ends the stream mid-frame, and
        the stage-I books still close on the planned frame.

        Both outcomes are there by construction, whatever the fault
        draws: each /24 is its own shard, on its own clock.  One /24 opens
        with a host whose every HTTP exchange is poison, on every scanned
        port, and it is the sweep's only poison (the plan injects none):
        the first batch's stage II quarantines it and, at a block
        threshold of one, its /24, so the block's later hosts reach the
        gate quarantined.  The other /24's six live hosts outlast the
        deadline: every answered exchange is a 10 s slow response (under
        the 20 s watchdog, so it still answers), and stage II asks each
        live host at least once, batch by batch, before stage I reaches
        the next."""
        internet, ips = build_world(blocks=2)
        frame = whole_blocks(ips)
        poisoned = Host(IPv4Address(ips[0].value & BLOCK_MASK | 1))
        for port in scanned_ports():
            poisoned.add_service(Service(port, responder=_poison))
        internet.add_host(poisoned)
        clock = SimClock()
        pipeline = ScanPipeline(
            ChaosTransport(
                InMemoryTransport(internet),
                dataclasses.replace(
                    HOSTILE, poison_rate=0.0, slow_rate=1.0, slow_latency=10.0
                ),
                seed=21, clock=clock,
            ),
            scanned_ports(), seed=7, batch_size=3, fingerprint=False,
            shard_blocks=1,
            retry_policy=RetryPolicy(max_attempts=3, base_delay=0.5, max_delay=4.0),
            clock=clock,
            supervisor=SupervisorConfig(
                deadline=40.0, probe_deadline=20.0,
                quarantine_threshold=1, quarantine_block_threshold=1,
            ),
        )
        report = pipeline.run(frame)
        masscan = report.coverage.stages["masscan"]
        assert masscan.quarantined > 0 and masscan.deadline_skipped > 0
        assert masscan.entered == len(frame)
        assert masscan.entered == (
            masscan.completed + masscan.dropped + masscan.quarantined
        )
        assert report.port_scan.addresses_scanned == (
            masscan.entered - masscan.quarantined - masscan.deadline_skipped
        )
        report.coverage.reconcile(report)


class TestEscalationLadder:
    def test_crashing_shard_is_restarted_and_result_unchanged(self):
        """A shard that crashes and restarts folds the same bytes as one
        that never crashed (restart telemetry aside)."""
        calm = SupervisorConfig(probe_deadline=20.0, quarantine_threshold=1,
                                stall_window=120.0)
        crashy = SupervisorConfig(probe_deadline=20.0, quarantine_threshold=1,
                                  stall_window=120.0, crash_shards=((1, 2),))
        a, _ = run_arm(workers=2, config=calm)
        b, _ = run_arm(workers=2, config=crashy)
        assert b.coverage.shard_restarts == 2
        assert a.vulnerable_ips() == b.vulnerable_ips()
        assert a.port_scan.addresses_scanned == b.port_scan.addresses_scanned
        assert a.coverage.quarantined_hosts == b.coverage.quarantined_hosts

    def test_exhausted_restarts_abandon_the_shard(self):
        config = SupervisorConfig(
            probe_deadline=20.0, max_shard_restarts=1,
            crash_shards=((0, 99),),  # crashes more times than allowed
        )
        report, pipeline = run_arm(workers=2, config=config)
        cov = report.coverage
        assert cov.shards_abandoned == 1
        assert cov.degraded
        masscan = cov.stages["masscan"]
        assert masscan.unreachable > 0  # the abandoned shard's whole frame
        cov.verify()
        cov.reconcile(report)
        events = pipeline.telemetry.export_jsonl()
        assert "shard-abandoned" in events

    def test_kill_signals_are_not_swallowed_by_the_ladder(self, tmp_path):
        """BaseException (a kill) must propagate, not burn restarts."""
        crasher = CrashingCheckpointer(
            tmp_path / "scan.ckpt", die_after_saves=1, every_batches=1
        )
        with pytest.raises(SimulatedCrash):
            run_arm(workers=2, checkpoint=crasher)


class TestHostileDeterminism:
    def test_workers_4_is_byte_identical_to_workers_1(self):
        one = outputs(*run_arm(workers=1))
        four = outputs(*run_arm(workers=4))
        assert four[0] == one[0]  # serialized ScanReport (incl. coverage)
        assert four[1] == one[1]  # telemetry JSONL

    def test_kill_and_resume_is_byte_identical(self, tmp_path):
        expected = outputs(*run_arm(workers=4))
        crasher = CrashingCheckpointer(
            tmp_path / "scan.ckpt", die_after_saves=2, every_batches=1
        )
        with pytest.raises(SimulatedCrash):
            run_arm(workers=4, checkpoint=crasher)
        ckpt = Checkpointer(tmp_path / "scan.ckpt", every_batches=1)
        resumed = outputs(*run_arm(workers=4, checkpoint=ckpt))
        assert resumed[0] == expected[0]
        assert resumed[1] == expected[1]
        assert not ckpt.exists()

    def test_sweep_complete_counts_every_vulnerable_host(self):
        """Each shard's sweep-complete event reads its coverage ledger;
        over the shards they count the report's vulnerable hosts.  Less
        poison than HOSTILE, so a host survives to be found vulnerable
        while others are quarantined and a shard restarts."""
        report, pipeline = run_arm(
            workers=2, plan=dataclasses.replace(HOSTILE, poison_rate=0.1)
        )
        assert report.coverage.quarantined_hosts
        events = pipeline.telemetry.events.select("pipeline", "sweep-complete")
        mav_hosts = sum(dict(event.fields)["mav_hosts"] for event in events)
        assert mav_hosts == len(report.vulnerable_ips()) > 0

    def test_quarantine_lists_identical_across_arms(self, tmp_path):
        base, _ = run_arm(workers=1)
        four, _ = run_arm(workers=4)
        crasher = CrashingCheckpointer(
            tmp_path / "scan.ckpt", die_after_saves=2, every_batches=1
        )
        with pytest.raises(SimulatedCrash):
            run_arm(workers=4, checkpoint=crasher)
        resumed, _ = run_arm(
            workers=4,
            checkpoint=Checkpointer(tmp_path / "scan.ckpt", every_batches=1),
        )
        assert base.coverage.quarantined_hosts == four.coverage.quarantined_hosts
        assert base.coverage.quarantined_hosts == resumed.coverage.quarantined_hosts
        assert base.coverage.quarantined_blocks == resumed.coverage.quarantined_blocks

    def test_coverage_survives_serialize_roundtrip(self):
        from repro.core.serialize import report_from_dict, report_to_dict

        report, _ = run_arm(workers=2)
        back = report_from_dict(json.loads(json.dumps(report_to_dict(report))))
        assert back.coverage.to_dict() == report.coverage.to_dict()

    @pytest.mark.parametrize(
        "key", ["quarantine_threshold", "max_shard_restarts", "deadline"]
    )
    def test_supervised_resume_refuses_mismatched_supervision(self, key, tmp_path):
        crasher = CrashingCheckpointer(
            tmp_path / "scan.ckpt", die_after_saves=2, every_batches=1
        )
        with pytest.raises(SimulatedCrash):
            run_arm(workers=4, checkpoint=crasher)
        other = dataclasses.replace(SUPERVISED, **{key: 5})
        with pytest.raises(ConfigError, match=key):
            run_arm(
                workers=4, config=other,
                checkpoint=Checkpointer(tmp_path / "scan.ckpt", every_batches=1),
            )


class TestBlockQuarantine:
    def test_poison_block_is_quarantined_wholesale(self):
        """Enough poison hosts in one /24 quarantine the whole block."""
        config = SupervisorConfig(
            probe_deadline=20.0, quarantine_threshold=1,
            quarantine_block_threshold=2, stall_window=120.0,
        )
        plan = FaultPlan(poison_rate=1.0)
        report, pipeline = run_arm(workers=1, config=config, plan=plan)
        cov = report.coverage
        assert len(cov.quarantined_blocks) > 0
        cov.verify()
        cov.reconcile(report)
        assert "quarantine-block" in pipeline.telemetry.export_jsonl()


class TestShardSupervision:
    def _supervision(self, **overrides):
        defaults = dict(
            probe_deadline=20.0, quarantine_threshold=2, stall_window=100.0,
            heartbeat_every=4,
        )
        defaults.update(overrides)
        clock = SimClock()
        return ShardSupervision(SupervisorConfig(**defaults), clock, planned=10), clock

    def test_deadline_trips_once_clock_expires(self):
        sup, clock = self._supervision(deadline=50.0)
        assert not sup.should_stop()
        clock.advance(49.0)
        assert not sup.should_stop()
        clock.advance(2.0)
        assert sup.should_stop()
        assert sup.deadline_hit

    def test_no_deadline_never_stops(self):
        sup, clock = self._supervision()
        clock.advance(10_000_000.0)
        assert not sup.should_stop()

    def test_stall_detector_strikes_the_slow_target(self):
        sup, clock = self._supervision(quarantine_threshold=1)
        ip = IPv4Address.parse("203.0.113.7")
        sup.note_activity(ip)
        clock.advance(99.0)
        sup.note_activity(ip)  # just under the window
        assert sup.stall_events == 0
        clock.advance(101.0)
        sup.note_activity(ip)
        assert sup.stall_events == 1
        assert sup.is_quarantined(ip)

    def test_gate_skips_drain_in_batches(self):
        sup, _ = self._supervision()
        ip = IPv4Address.parse("203.0.113.7")
        sup.note_gate_skip(ip)
        sup.note_gate_skip(ip)
        assert sup.drain_gate_skips() == 2
        assert sup.drain_gate_skips() == 0
        assert sup.gate_skips_total == 2


class TestSupervisedDispatch:
    def test_pipeline_dispatches_on_supervisor_config(self):
        """Setting ``supervisor`` alone runs the sweep as supervised shards."""
        internet, ips = build_world()
        clock = SimClock()
        pipeline = ScanPipeline(
            InMemoryTransport(internet), scanned_ports(), seed=7,
            batch_size=3, fingerprint=False, shard_blocks=2, clock=clock,
            supervisor=SupervisorConfig(),
        )
        assert pipeline.workers is None
        assert ParallelScanEngine(pipeline).workers == 1
        report = pipeline.run(ips)
        # supervised sweeps always carry a verified coverage account
        report.coverage.verify()
        report.coverage.reconcile(report)
        # ... and run as shards, which a plain workers=None sweep does not
        assert "shard-complete" in pipeline.telemetry.export_jsonl()


class TestSupervisedRunner:
    """Supervision is one defaulted field of the one shard runner."""

    @staticmethod
    def runner(**fields):
        internet, ips = build_world()
        runner = ShardRunner(
            transport=InMemoryTransport(internet), ports=scanned_ports(),
            batch_size=3, fingerprint=False, use_prefilter=True,
            knowledge_base=None, retry_policy=None, profile=False, **fields,
        )
        return runner, plan_shards(ips, seed=7, shard_blocks=2)

    def test_round_trips_pickle_with_its_config(self):
        runner, shards = self.runner(supervisor=SUPERVISED)
        # the quarantine gate lives in the retry executor
        assert runner.retry_policy == RetryPolicy()
        copied = pickle.loads(pickle.dumps(runner))
        assert copied.supervisor == SUPERVISED
        crashed_once = shards[1]  # SUPERVISED.crash_shards
        assert copied.run(crashed_once) == runner.run(crashed_once)
        assert copied.run(crashed_once)["supervisor"] == {
            "restarts": 1, "abandoned": False,
        }

    def test_a_plain_runner_pays_one_none_field_at_the_pickle_boundary(self):
        runner, shards = self.runner()
        assert runner.supervisor is None and runner.retry_policy is None
        assert "supervisor" not in runner.run(shards[0])
        without = copy.copy(runner)
        del without.__dict__["supervisor"]  # the runner as the parent pickled it
        grown = len(pickle.dumps(runner)) - len(pickle.dumps(without))
        assert 0 < grown <= 16
