"""Tests for the incremental re-scan engine.

The engine's whole contract is byte-identity: a recorded baseline must
serialise exactly like a plain sequential pipeline run, and an
incremental re-scan must serialise exactly like scanning the frame from
scratch — only cheaper.  Every test here compares full
``report_to_dict`` dumps, not summaries.
"""

import json
import os
from pathlib import Path

import pytest

from repro.apps.base import AppInstance
from repro.apps.catalog import create_instance, scanned_ports
from repro.core.checkpoint import Checkpointer
from repro.core.pipeline import ScanPipeline
from repro.core.rescan import (
    RESCAN_FORMAT_VERSION,
    RescanEngine,
    load_rescan_state,
    save_rescan_state,
)
from repro.core.serialize import report_to_dict
from repro.net.chaos import ChaosTransport, FaultPlan
from repro.net.host import Host, Service
from repro.net.intervals import BLOCK_MASK, CompressedPopulation, IntervalSet
from repro.net.ipv4 import IPv4Address
from repro.net.network import SimulatedInternet
from repro.net.population import PopulationModel, generate_internet
from repro.net.transport import InMemoryTransport
from repro.util.errors import CheckpointCorrupt, ConfigError
from tests.core.test_parallel import build_world

SEED = 20210603


def dump(report) -> str:
    return json.dumps(report_to_dict(report), sort_keys=True)


@pytest.fixture(scope="module")
def world():
    """A private world: churn tests mutate it, so no session fixtures."""
    internet, _, _ = generate_internet(
        PopulationModel(awe_rate=0.001, vuln_rate=0.1, background_rate=1e-7)
    )
    transport = InMemoryTransport(internet)
    pop = CompressedPopulation.build(internet, 400_000, seed=SEED)
    return internet, transport, pop.frame, pop


@pytest.fixture(scope="module")
def engine(world):
    _, transport, _, _ = world
    return RescanEngine(transport, scanned_ports(), seed=SEED, batch_size=4096)


@pytest.fixture(scope="module")
def baseline(engine, world):
    _, _, frame, _ = world
    return engine.baseline(frame)


def fresh_oracle(world):
    _, transport, frame, _ = world
    pipe = ScanPipeline(transport, scanned_ports(), seed=SEED, batch_size=4096)
    return pipe.run(frame)


def test_an_engine_builds_one_knowledge_base(kb_builds):
    """A baseline and three ticks share the first sweep's build."""
    internet, ips = build_world()
    frame = IntervalSet((ip.value, ip.value) for ip in ips)
    engine = RescanEngine(InMemoryTransport(internet), scanned_ports(), seed=SEED)
    state = engine.baseline(frame)
    for _ in range(3):
        state = engine.rescan(frame, state)
    assert state.report.findings
    assert len(kb_builds) == 1


class TestBaseline:
    def test_matches_sequential_pipeline_byte_for_byte(self, baseline, world):
        assert dump(baseline.report) == dump(fresh_oracle(world))

    def test_coverage_reconciles(self, baseline):
        baseline.report.coverage.reconcile(baseline.report)

    def test_records_cover_stage_i_survivors(self, baseline):
        assert set(baseline.records) == set(baseline.report.port_scan.open_ports)


class TestZeroChurn:
    def test_rescan_is_byte_identical(self, engine, baseline, world):
        _, _, frame, _ = world
        second = engine.rescan(frame, baseline)
        assert dump(second.report) == dump(baseline.report)
        second.report.coverage.reconcile(second.report)

    def test_rescan_sends_no_http_traffic(self, engine, baseline, world):
        _, transport, frame, _ = world
        before = transport.stats.http_requests
        engine.rescan(frame, baseline)
        assert transport.stats.http_requests == before

    def test_a_replay_shares_the_prior_records_and_findings(
        self, engine, baseline, world
    ):
        """A replayed host contributes the prior sweep's record and the
        prior report's finding object, not copies of either."""
        _, _, frame, _ = world
        second = engine.rescan(frame, baseline)
        assert second.records.keys() == baseline.records.keys()
        assert all(
            second.records[value] is record
            for value, record in baseline.records.items()
        )
        assert baseline.report.findings
        assert second.report.findings.keys() == baseline.report.findings.keys()
        assert all(
            second.report.findings[value] is finding
            for value, finding in baseline.report.findings.items()
        )

    def test_over_hinting_is_safe(self, engine, baseline, world):
        _, _, frame, pop = world
        live = pop.live_values()
        hinted = engine.rescan(frame, baseline, churned_blocks=[live[0], live[-1]])
        assert dump(hinted.report) == dump(baseline.report)


class TestChurn:
    def test_port_level_churn_is_self_detected(self, engine, baseline, world):
        # Removing a host changes its stage-I picture; the diff must
        # catch it with no churn hint at all.
        internet, _, frame, pop = world
        live = pop.live_values()
        victim = IPv4Address(live[len(live) // 2])
        internet.remove_host(victim)
        rescanned = engine.rescan(frame, baseline)
        assert dump(rescanned.report) == dump(fresh_oracle(world))
        assert victim.value not in rescanned.report.port_scan.open_ports


class TestStatePersistence:
    def test_round_trip_then_rescan(self, engine, baseline, world, tmp_path):
        _, _, frame, _ = world
        path = tmp_path / "state.json"
        save_rescan_state(baseline, path)
        loaded = load_rescan_state(path)
        assert dump(loaded.report) == dump(baseline.report)
        assert loaded.frame == baseline.frame
        assert loaded.records.keys() == baseline.records.keys()
        rescanned = engine.rescan(frame, loaded)
        assert dump(rescanned.report) == dump(fresh_oracle(world))

    def test_save_replaces_the_file_whole_or_not_at_all(
        self, tmp_path, monkeypatch
    ):
        """The file is a campaign's only copy of its state: it is made
        durable under another name first, and a crash before the rename
        leaves the previous one as it was."""
        state = load_rescan_state(PARENT_STATE)
        path = tmp_path / "state.json"
        calls = []
        for name in ("fsync", "replace"):
            real = getattr(os, name)
            monkeypatch.setattr(
                os, name,
                lambda *args, name=name, real=real: calls.append(name) or real(*args),
            )
        save_rescan_state(state, path)
        assert calls == ["fsync", "replace"]
        saved = path.read_bytes()
        assert saved == parent_state_as_saved_now()
        assert os.listdir(tmp_path) == ["state.json"]  # no temp file left behind

        def crash(fd):
            raise OSError("simulated crash mid-write")

        monkeypatch.setattr(os, "fsync", crash)
        state.records.clear()
        with pytest.raises(OSError):
            save_rescan_state(state, path)
        assert path.read_bytes() == saved

    @pytest.mark.parametrize("damage", [
        lambda text: "",
        lambda text: text[: len(text) // 2],
        lambda text: b"\xff\xfe\x00" + text.encode()[40:],
        lambda text: "[]",
        lambda text: _without(text, "records"),
        lambda text: _without(text, "config", "ports"),
        lambda text: _without(text, "records", 0, "finding"),
    ], ids=[
        "zero-length", "truncated", "garbled", "not-an-object",
        "no-records", "no-ports", "record-without-finding",
    ])
    def test_a_damaged_state_file_is_refused_by_name(self, damage, tmp_path):
        path = tmp_path / "state.json"
        damaged = damage(PARENT_STATE.read_text())
        path.write_bytes(damaged if isinstance(damaged, bytes) else damaged.encode())
        with pytest.raises(CheckpointCorrupt, match="state.json"):
            load_rescan_state(path)

    def test_a_saved_state_holds_each_finding_once(self, tmp_path):
        """A record says whether its host reached stage III; the finding
        itself is the report's."""
        _, frame, engine = parent_state_world()
        state = engine.baseline(frame)
        save_rescan_state(state, tmp_path / "state.json")
        saved = (tmp_path / "state.json").read_text()
        assert state.report.findings
        assert saved.count('"observations"') == len(state.report.findings)

    def test_a_version_one_files_telemetry_keys_are_not_read(self, tmp_path):
        """Version 1 is version 2 plus a telemetry copy on the report and
        on every record: whatever those keys hold, the file loads as the
        committed one does."""
        payload = json.loads(PARENT_STATE.read_text())
        assert payload["format_version"] == 1
        payload["report"]["telemetry"] = "not read"
        for record in payload["records"]:
            record["counters"] = record["events"] = record["spans"] = None
        path = tmp_path / "state.json"
        path.write_text(json.dumps(payload))
        save_rescan_state(load_rescan_state(path), tmp_path / "again.json")
        assert (tmp_path / "again.json").read_bytes() == parent_state_as_saved_now()

    def test_another_format_version_is_still_a_config_error(self, tmp_path):
        payload = json.loads(PARENT_STATE.read_text())
        payload["format_version"] = RESCAN_FORMAT_VERSION + 1
        (tmp_path / "state.json").write_text(json.dumps(payload))
        with pytest.raises(ConfigError, match="format version"):
            load_rescan_state(tmp_path / "state.json")


def _without(text: str, *path) -> str:
    """The state file ``text`` with the entry at ``path`` deleted."""
    payload = json.loads(text)
    target = payload
    for key in path[:-1]:
        target = target[key]
    del target[path[-1]]
    return json.dumps(payload)


class TestConfigGuards:
    def test_frame_mismatch_rejected(self, engine, baseline, world):
        _, _, frame, _ = world
        other = frame.take(len(frame) - 1)
        with pytest.raises(ConfigError):
            engine.rescan(other, baseline)

    def test_seed_mismatch_rejected(self, baseline, world):
        _, transport, frame, _ = world
        other = RescanEngine(transport, scanned_ports(), seed=SEED + 1)
        with pytest.raises(ConfigError):
            other.rescan(frame, baseline)

    def test_ports_mismatch_rejected(self, baseline, world):
        _, transport, frame, _ = world
        other = RescanEngine(transport, (80,), seed=SEED, batch_size=4096)
        with pytest.raises(ConfigError):
            other.rescan(frame, baseline)


class _Relay:
    """A decorator transport with no state of its own: the chaos layer is
    one ``inner`` below it."""

    def __init__(self, inner):
        self.inner = inner

    def __getattr__(self, name):
        if name.endswith("_state"):
            raise AttributeError(name)
        return getattr(self.inner, name)


class TestStreamTransportRefused:
    """A replayed host makes no transport calls, so a layer that answers
    from a per-call stream hands every later host another stretch of it:
    at commit 072f703, on the bench's rescan inputs (scale 0.3, seed 5)
    under 5% request loss, a tick returned 15 vulnerable hosts where the
    from-scratch sweep found 13, and a baseline killed after its third
    save resumed to 361 findings where it found 372 — both without a
    word.  Both are ``ConfigError`` now."""

    @pytest.fixture(params=["outermost", "wrapped"])
    def lossy(self, request):
        internet, frame, _ = parent_state_world()
        chaos = ChaosTransport(
            InMemoryTransport(internet), FaultPlan(request_loss=0.05), seed=5
        )
        if request.param == "wrapped":
            chaos = _Relay(chaos)
        engine = RescanEngine(chaos, scanned_ports(), seed=SEED, batch_size=200)
        return engine, frame

    def test_a_tick_is_refused_naming_the_layer(self, lossy):
        engine, frame = lossy
        prior = engine.baseline(frame)  # a plain recorded baseline is fine
        assert prior.report.vulnerable_ips()
        with pytest.raises(ConfigError, match="ChaosTransport"):
            engine.rescan(frame, prior)

    def test_a_checkpointed_baseline_is_refused_before_it_probes(
        self, lossy, tmp_path
    ):
        engine, frame = lossy
        path = tmp_path / "baseline.ckpt"
        with pytest.raises(ConfigError, match="ChaosTransport"):
            engine.baseline(frame, checkpoint=_Crashing(path, 3))
        with pytest.raises(ConfigError, match="ChaosTransport"):
            engine.baseline(frame, checkpoint=Checkpointer(path))
        assert engine.transport.stats.syn_probes == 0
        assert not path.exists()


class _Crashing(Checkpointer):
    def __init__(self, path, crash_after, every_batches=1):
        super().__init__(path, every_batches)
        self.saves = 0
        self.crash_after = crash_after

    def save(self, payload):
        super().save(payload)
        self.saves += 1
        if self.saves == self.crash_after:
            raise KeyboardInterrupt("simulated kill")


class TestResume:
    def test_rescan_kill_and_resume_bit_identical(
        self, engine, baseline, world, tmp_path
    ):
        _, _, frame, _ = world
        path = tmp_path / "rescan.ckpt"
        with pytest.raises(KeyboardInterrupt):
            engine.rescan(frame, baseline, checkpoint=_Crashing(path, 3))
        resumed = engine.rescan(frame, baseline, checkpoint=Checkpointer(path))
        assert dump(resumed.report) == dump(fresh_oracle(world))
        assert not path.exists()  # cleared after a completed run

    def test_baseline_kill_and_resume_bit_identical(
        self, engine, world, tmp_path
    ):
        _, _, frame, _ = world
        path = tmp_path / "baseline.ckpt"
        with pytest.raises(KeyboardInterrupt):
            engine.baseline(frame, checkpoint=_Crashing(path, 2))
        resumed = engine.baseline(frame, checkpoint=Checkpointer(path))
        assert dump(resumed.report) == dump(fresh_oracle(world))


class TestResumeAtEveryBoundary:
    """Kill after the k-th checkpoint save, for every k a sweep has.

    A private five-batch world, churned after the prior sweep (one host
    gone, one block hinted), so a resumed pass mixes checkpoint-replayed,
    prior-replayed and freshly probed hosts on both sides of the cut.
    """

    BATCHES = 5

    @pytest.fixture(scope="class")
    def small(self):
        internet, _, _ = generate_internet(
            PopulationModel(awe_rate=0.0002, vuln_rate=0.2,
                            background_rate=1e-7, seed=11)
        )
        transport = InMemoryTransport(internet)
        pop = CompressedPopulation.build(internet, 0, seed=SEED)
        frame = pop.frame
        batch_size = -(-len(frame) // self.BATCHES)
        engine = RescanEngine(
            transport, scanned_ports(), seed=SEED, batch_size=batch_size
        )
        prior = engine.baseline(frame)
        live = pop.live_values()
        internet.remove_host(IPv4Address(live[len(live) // 3]))
        hint = [live[2 * len(live) // 3]]
        oracle = dump(
            ScanPipeline(
                transport, scanned_ports(), seed=SEED, batch_size=batch_size
            ).run(frame)
        )
        assert oracle != dump(prior.report)
        return engine, frame, prior, hint, oracle

    @pytest.mark.parametrize("kill_after", range(1, BATCHES + 1))
    def test_rescan(self, small, kill_after, tmp_path):
        engine, frame, prior, hint, oracle = small
        path = tmp_path / "rescan.ckpt"
        with pytest.raises(KeyboardInterrupt):
            engine.rescan(
                frame, prior, hint, checkpoint=_Crashing(path, kill_after)
            )
        resumed = engine.rescan(frame, prior, hint, checkpoint=Checkpointer(path))
        assert dump(resumed.report) == oracle
        assert set(resumed.records) == set(resumed.report.port_scan.open_ports)
        assert not path.exists()

    @pytest.mark.parametrize("kill_after", range(1, BATCHES + 1))
    def test_baseline(self, small, kill_after, tmp_path):
        engine, frame, _, _, oracle = small
        path = tmp_path / "baseline.ckpt"
        with pytest.raises(KeyboardInterrupt):
            engine.baseline(frame, checkpoint=_Crashing(path, kill_after))
        resumed = engine.baseline(frame, checkpoint=Checkpointer(path))
        assert dump(resumed.report) == oracle
        # the resumed ledger is as reusable as an uninterrupted one
        assert dump(engine.rescan(frame, resumed).report) == oracle


class TestTheReplayRule:
    """The rule runs inside the batch step's host loop, so it is checked
    here against the rule recomputed from the prior sweep alone: a host
    replays iff stage I found it with the prior's open ports, its /24 is
    not hinted and the prior's ledger holds it.  The churned world has a
    hinted /24 of several hosts, a host whose open ports changed and a
    host gone.  A replayed host's record is the prior's own; a probed
    host's is new.  A replayed host's verdict is carried from the prior's
    vulnerable set, which a loaded or resumed state derives again."""

    @pytest.fixture(scope="class")
    def churned(self):
        internet, _, _ = generate_internet(
            PopulationModel(awe_rate=0.0002, vuln_rate=0.2,
                            background_rate=1e-7, seed=11)
        )
        # Generated hosts sit one to a /24: give the hinted one company.
        first = internet.populated_addresses()[0]
        hinted = first.value & BLOCK_MASK
        for offset, (slug, port) in enumerate((("jenkins", 8080), ("grav", 80))):
            host = Host(IPv4Address(hinted + 200 + offset))
            host.add_service(Service(port, app=AppInstance(
                create_instance(slug, vulnerable=slug == "jenkins"), port
            )))
            internet.add_host(host)
        frame = CompressedPopulation.build(internet, 0, seed=SEED).frame
        engine = RescanEngine(
            InMemoryTransport(internet), scanned_ports(), seed=SEED,
            batch_size=-(-len(frame) // 4),
        )
        prior = engine.baseline(frame)
        before = prior.report.port_scan.open_ports
        outside = [v for v in sorted(before) if v & BLOCK_MASK != hinted]
        changed = next(v for v in outside if 8500 not in before[v])
        gone = outside[len(outside) // 2]
        internet.host_at(IPv4Address(changed)).add_service(Service(
            8500, app=AppInstance(create_instance("consul", vulnerable=True), 8500)
        ))
        internet.remove_host(IPv4Address(gone))
        assert sum(1 for v in before if v & BLOCK_MASK == hinted) == 3
        return engine, frame, prior, {hinted}, changed, gone

    @staticmethod
    def rule(prior, open_ports, hinted) -> set[int]:
        before = prior.report.port_scan.open_ports
        return {
            value for value, ports in open_ports.items()
            if before.get(value) == ports
            and value & BLOCK_MASK not in hinted
            and value in prior.records
        }

    def check(self, engine, frame, prior, hinted, tick) -> set[int]:
        """The tick is a from-scratch sweep, its vulnerable set is its
        report's, and its hosts replayed by the rule: the probed ones."""
        open_ports = tick.report.port_scan.open_ports
        replayed = {
            value for value, record in tick.records.items()
            if record is prior.records.get(value)
        }
        assert set(tick.records) == set(open_ports)
        assert replayed == self.rule(prior, open_ports, hinted)
        self.check_report(engine, frame, tick)
        return set(open_ports) - replayed

    @staticmethod
    def check_report(engine, frame, tick) -> None:
        scratch = ScanPipeline(
            engine.transport, scanned_ports(), seed=SEED,
            batch_size=engine.batch_size,
        ).run(frame)
        assert dump(tick.report) == dump(scratch)
        assert tick.vulnerable == {ip.value for ip in tick.report.vulnerable_ips()}

    def test_replayed_and_probed_hosts_follow_the_rule(self, churned):
        engine, frame, prior, hinted, changed, gone = churned
        tick = engine.rescan(frame, prior, hinted)
        probed = self.check(engine, frame, prior, hinted, tick)
        (base,) = hinted
        in_block = {v for v in tick.records if v & BLOCK_MASK == base}
        assert probed == in_block | {changed}
        assert gone not in tick.records
        # a replayed host carries its verdict, a probed one earns it
        replayed_vulnerable = tick.vulnerable - probed
        assert replayed_vulnerable and replayed_vulnerable <= prior.vulnerable
        assert changed in tick.vulnerable

    def test_a_loaded_prior_derives_the_verdicts_it_carries(
        self, churned, tmp_path
    ):
        engine, frame, prior, hinted, _, _ = churned
        save_rescan_state(prior, tmp_path / "prior.json")
        loaded = load_rescan_state(tmp_path / "prior.json")
        assert loaded.plan is None
        assert loaded.vulnerable == prior.vulnerable
        tick = engine.rescan(frame, loaded, hinted)
        self.check(engine, frame, loaded, hinted, tick)
        assert tick.plan is not None

    @pytest.mark.parametrize("kill_after", (1, 3))
    def test_the_verdicts_survive_a_resume(self, churned, kill_after, tmp_path):
        engine, frame, prior, hinted, _, _ = churned
        path = tmp_path / "tick.ckpt"
        with pytest.raises(KeyboardInterrupt):
            engine.rescan(
                frame, prior, hinted, checkpoint=_Crashing(path, kill_after)
            )
        tick = engine.rescan(frame, prior, hinted, checkpoint=Checkpointer(path))
        # (the records restored from the journal are copies, not the
        # prior's: the replay rule is checked on the uninterrupted ticks)
        self.check_report(engine, frame, tick)
        # and the resumed tick's carried set serves the next tick
        self.check(engine, frame, tick, set(), engine.rescan(frame, tick))


# -- a state file written before the engine was rebuilt ---------------------------

#: ``save_rescan_state`` output of commit 55661fa — the last commit whose
#: engine hand-wrote its own batch step — over :func:`parent_state_world`.
#: Regenerate (only ever from that commit) with
#: ``PYTHONPATH=src:. python tests/core/test_rescan.py``.
PARENT_STATE = Path(__file__).parent / "fixtures" / "rescan_state_55661fa.json"

_PARENT_STATE_APPS = (
    ("jenkins", 8080, True), ("wordpress", 80, False), ("docker", 2375, True),
    ("jupyterlab", 8888, True), ("grav", 80, False), ("consul", 8500, True),
    ("phpmyadmin", 80, False), ("hadoop", 8088, True),
)


def parent_state_world():
    """Eight hand-placed hosts over three /24s; no generator involved, so
    the world means the same thing at every commit."""
    internet = SimulatedInternet()
    for index, (slug, port, vulnerable) in enumerate(_PARENT_STATE_APPS):
        host = Host(IPv4Address.parse(f"93.184.{90 + index % 3}.{20 + index}"))
        host.add_service(Service(port, app=AppInstance(
            create_instance(slug, vulnerable=vulnerable), port
        )))
        internet.add_host(host)
    frame = IntervalSet(
        (ip.value & BLOCK_MASK, ip.value | 255)
        for ip in internet.populated_addresses()
    )
    engine = RescanEngine(
        InMemoryTransport(internet), scanned_ports(), seed=SEED, batch_size=200
    )
    return internet, frame, engine


def parent_state_as_saved_now() -> bytes:
    """The committed state as this commit saves it: format version 2, no
    telemetry copy on the report, and each record keeps its responses and
    whether its host reached stage III instead of a copy of its finding
    and of its telemetry."""
    payload = json.loads(PARENT_STATE.read_text())
    payload["format_version"] = 2
    del payload["report"]["telemetry"]
    for record in payload["records"]:
        del record["counters"], record["events"], record["spans"]
        record["finding"] = record["finding"] is not None
    return json.dumps(payload, indent=1).encode()


class TestParentWrittenState:
    """Old ``--rescan-from`` files keep working: the committed state loads,
    re-saves as :func:`parent_state_as_saved_now`, and seeds re-scans equal
    to from-scratch."""

    @staticmethod
    def scratch(engine, frame):
        pipe = ScanPipeline(
            engine.transport, scanned_ports(), seed=SEED, batch_size=200
        )
        return dump(pipe.run(frame))

    def test_loads_and_resaves_byte_for_byte(self, tmp_path):
        assert PARENT_STATE.stat().st_size < 100_000
        save_rescan_state(load_rescan_state(PARENT_STATE), tmp_path / "again.json")
        assert (tmp_path / "again.json").read_bytes() == parent_state_as_saved_now()

    def test_rescans_to_the_from_scratch_report(self):
        internet, frame, engine = parent_state_world()
        prior = load_rescan_state(PARENT_STATE)
        assert prior.report.vulnerable_ips()
        unchanged = engine.rescan(frame, prior)
        assert engine.transport.stats.http_requests == 0  # all replayed
        assert dump(unchanged.report) == self.scratch(engine, frame)

        internet.remove_host(internet.populated_addresses()[4])
        churned = engine.rescan(frame, prior)
        assert dump(churned.report) == self.scratch(engine, frame)


if __name__ == "__main__":
    _, frame_, engine_ = parent_state_world()
    save_rescan_state(engine_.baseline(frame_), PARENT_STATE)
