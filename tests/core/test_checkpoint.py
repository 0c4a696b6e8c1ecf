"""Tests for checkpoint/resume: a killed sweep continues losslessly."""

import json
import multiprocessing
import pickle
import zlib
from dataclasses import fields as dataclass_fields
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.base import AppInstance
from repro.apps.catalog import create_instance, scanned_ports
from repro.core.checkpoint import (
    GROWTH,
    Checkpointer,
    _read_journal,
    check_config_matches,
)
from repro.core.pipeline import OUTPUT_NEUTRAL, ScanPipeline, resume_key
from repro.core.rescan import RescanEngine
from repro.core.retry import RetryPolicy
from repro.core.serialize import report_to_dict
from repro.core.supervisor import SupervisorConfig
from repro.net.chaos import ChaosTransport, FaultPlan
from repro.net.host import Host, Service
from repro.net.intervals import IntervalSet
from repro.net.ipv4 import IPv4Address
from repro.net.network import SimulatedInternet
from repro.net.transport import InMemoryTransport, Transport
from repro.util.clock import SimClock
from repro.util.errors import CheckpointCorrupt, ConfigError
from tests.core.test_rescan import _Crashing, _Relay

HEADER = b"repro-checkpoint-journal v4\n"


def framed(body: bytes) -> bytes:
    """One version-4 record around ``body``: its frame line (length, body
    CRC-32, the CRC-32 of those 17 bytes), then the body."""
    head = b"%08x %08x" % (len(body), zlib.crc32(body))
    return head + b" %08x\n" % zlib.crc32(head) + body


def record_starts(data: bytes) -> list[int]:
    """Where each record starts, read off the frame lines; the last entry
    is the file's end."""
    starts = [len(HEADER)]
    while starts[-1] < len(data):
        starts.append(starts[-1] + 27 + int(data[starts[-1]:starts[-1] + 8], 16))
    return starts


class TestCheckpointer:
    def test_load_returns_none_before_first_save(self, tmp_path):
        ckpt = Checkpointer(tmp_path / "scan.ckpt")
        assert not ckpt.exists()
        assert ckpt.load() is None

    def test_save_load_round_trip(self, tmp_path):
        ckpt = Checkpointer(tmp_path / "scan.ckpt")
        ckpt.save({"completed_addresses": 7, "seed": 3})
        assert ckpt.load() == {"completed_addresses": 7, "seed": 3}

    def test_save_appends_and_load_folds(self, tmp_path):
        """Cumulative keys: last record wins.  Growth sections: lists
        concatenate, dicts update, and each lands at its dotted path."""
        path = tmp_path / "scan.ckpt"
        ckpt = Checkpointer(path)
        ckpt.save({
            "completed_addresses": 3,
            "report": {"probes_sent": 30},
            GROWTH: {"report.findings": ["a"], "shards": {"0": "x"}},
        })
        size_after_first = path.stat().st_size
        first_bytes = path.read_bytes()
        ckpt.save({
            "completed_addresses": 6,
            "report": {"probes_sent": 60},
            GROWTH: {"report.findings": ["b", "c"], "shards": {"2": "y"}},
        })
        # appended, not rewritten; and no temp file beside the journal
        assert path.read_bytes()[:size_after_first] == first_bytes
        assert [p.name for p in tmp_path.iterdir()] == ["scan.ckpt"]
        assert Checkpointer(path).load() == {
            "completed_addresses": 6,
            "report": {"probes_sent": 60, "findings": ["a", "b", "c"]},
            "shards": {"0": "x", "2": "y"},
        }

    def test_zero_length_file_is_no_checkpoint(self, tmp_path):
        path = tmp_path / "scan.ckpt"
        path.touch()
        ckpt = Checkpointer(path)
        assert ckpt.load() is None
        ckpt.save({"completed_addresses": 1})
        assert Checkpointer(path).load() == {"completed_addresses": 1}

    def test_torn_tail_is_dropped_and_cut_before_the_next_append(self, tmp_path):
        path = tmp_path / "scan.ckpt"
        ckpt = Checkpointer(path)
        ckpt.save({"n": 1})
        whole = path.read_bytes()
        ckpt.save({"n": 2})
        torn = path.read_bytes()[:-5]
        path.write_bytes(torn)
        resumed = Checkpointer(path)
        assert resumed.load() == {"n": 1}
        assert path.read_bytes() == whole
        resumed.save({"n": 3})
        assert Checkpointer(path).load() == {"n": 3}

    def test_cut_at_every_byte_of_the_last_record(self, tmp_path):
        path = tmp_path / "scan.ckpt"
        ckpt = Checkpointer(path)
        ckpt.save({"n": 1, GROWTH: {"seen": [1]}})
        ckpt.save({"n": 2, GROWTH: {"seen": [2]}})
        two = path.read_bytes()
        ckpt.save({"n": 3, GROWTH: {"seen": [3, 4]}})
        three = path.read_bytes()
        for cut in range(len(two), len(three)):
            path.write_bytes(three[:cut])
            resumed = Checkpointer(path)
            assert resumed.load() == {"n": 2, "seen": [1, 2]}
            assert path.read_bytes() == two
            resumed.save({"n": 3, GROWTH: {"seen": [3, 4]}})
            assert path.read_bytes() == three

    def test_save_without_load_still_cuts_a_torn_tail(self, tmp_path):
        path = tmp_path / "scan.ckpt"
        Checkpointer(path).save({"n": 1})
        with open(path, "ab") as journal:
            journal.write(framed(pickle.dumps({"n": 9}, protocol=5))[:-4])
        Checkpointer(path).save({"n": 2})
        assert Checkpointer(path).load() == {"n": 2}

    def test_the_record_layout(self, tmp_path):
        """The header line, then per save a frame line and the body: a
        protocol-5 pickle of the payload, tuples kept as tuples."""
        path = tmp_path / "scan.ckpt"
        first = {"n": 1, GROWTH: {"rows": [(1, (80, 443))]}}
        second = {"n": 2, GROWTH: {"rows": [(2, (22,))]}}
        ckpt = Checkpointer(path)
        ckpt.save(first)
        ckpt.save(second)
        assert path.read_bytes() == HEADER + b"".join(
            framed(pickle.dumps(payload, protocol=5)) for payload in (first, second)
        )
        assert Checkpointer(path).load() == {
            "n": 2, "rows": [(1, (80, 443)), (2, (22,))],
        }

    def test_first_save_torn_inside_the_header(self, tmp_path):
        path = tmp_path / "scan.ckpt"
        Checkpointer(path).save({"n": 1})
        path.write_bytes(path.read_bytes()[:9])
        ckpt = Checkpointer(path)
        assert ckpt.load() is None
        ckpt.save({"n": 2})
        assert Checkpointer(path).load() == {"n": 2}

    def test_damaged_middle_record_is_corrupt_not_torn(self, tmp_path):
        path = tmp_path / "scan.ckpt"
        ckpt = Checkpointer(path)
        for n in range(3):
            ckpt.save({"n": n})
        data = bytearray(path.read_bytes())
        second = record_starts(bytes(data))[1]
        data[second + 27 + 12] ^= 0x01  # inside the second record's body
        path.write_bytes(bytes(data))
        with pytest.raises(CheckpointCorrupt):
            Checkpointer(path).load()
        with pytest.raises(CheckpointCorrupt):
            Checkpointer(path).save({"n": 9})
        assert path.read_bytes() == bytes(data)  # evidence left untouched

    @pytest.mark.parametrize("offset", [0, 7, 8, 12, 26, -1])
    def test_damage_anywhere_in_a_middle_record_is_refused(self, tmp_path, offset):
        """In the frame line (length, separator, checksums, newline) or
        at the body's last byte, damage with a record after it is
        refused."""
        path = tmp_path / "scan.ckpt"
        ckpt = Checkpointer(path)
        for n in range(3):
            ckpt.save({"n": n, GROWTH: {"seen": list(range(10))}})
        data = bytearray(path.read_bytes())
        second, third = record_starts(bytes(data))[1:3]
        data[(third if offset < 0 else second) + offset] ^= 0x01
        path.write_bytes(bytes(data))
        with pytest.raises(CheckpointCorrupt):
            Checkpointer(path).load()
        with pytest.raises(CheckpointCorrupt):
            Checkpointer(path).save({"n": 9})
        assert path.read_bytes() == bytes(data)  # evidence left untouched

    def test_clear(self, tmp_path):
        ckpt = Checkpointer(tmp_path / "scan.ckpt")
        ckpt.save({})
        ckpt.clear()
        assert not ckpt.exists()
        ckpt.clear()  # idempotent

    @pytest.mark.parametrize("content", [
        b'{"format_version": 1, "seed": 3}',  # the old whole-state snapshot
        b"repro-checkpoint-journal v1\n",
        b'repro-checkpoint-journal v2\n0af73c42 {"n": 1}\n',
        b'repro-checkpoint-journal v3\n0af73c42 {"n": 1}\n',
        b"repro-checkpoint-journal v999\n00000000 {}\n",
    ])
    def test_old_or_unknown_format_refused(self, tmp_path, content):
        path = tmp_path / "scan.ckpt"
        path.write_bytes(content)
        with pytest.raises(ConfigError):
            Checkpointer(path).load()
        assert path.read_bytes() == content  # refused, not "recovered"

    def test_cadence(self, tmp_path):
        ckpt = Checkpointer(tmp_path / "scan.ckpt", every_batches=3)
        assert [ckpt.due(n) for n in (1, 2, 3, 4, 5, 6)] == [
            False, False, True, False, False, True,
        ]
        with pytest.raises(ValueError):
            Checkpointer(tmp_path / "x", every_batches=0)

    def test_config_mismatch_detection(self):
        payload = {"seed": 3, "ports": [80, 443]}
        check_config_matches(payload, seed=3, ports=[80, 443])
        with pytest.raises(ConfigError):
            check_config_matches(payload, seed=4)
        with pytest.raises(ConfigError):
            check_config_matches(payload, ports=[80])


class Canary:
    """Constructing one sets ``built``: a journal record that names this
    class would build one on load if the reader imported globals."""

    built = False

    def __init__(self):
        Canary.built = True

    def __reduce__(self):
        return Canary, ()


def canary_body(protocol: int) -> bytes:
    """A record body that names :class:`Canary` (GLOBAL below protocol 4,
    STACK_GLOBAL from it), with the flag left unset."""
    body = pickle.dumps({"n": 2, "canary": Canary()}, protocol=protocol)
    Canary.built = False
    return body


#: keys the sweep engines use, so generated records reach the fold's grafting
#: and the resume's config check, not only the decoder
KEYS = st.sampled_from(["growth", "report", "report.findings", "engine", "seed", "n"])
PLAIN = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False)
    | st.text(max_size=6) | KEYS,
    lambda inner: (
        st.lists(inner, max_size=4)
        | st.tuples(inner, inner)
        | st.dictionaries(KEYS | st.integers(), inner, max_size=4)
    ),
    max_leaves=12,
)


class TestTheReaderImportsNothing:
    """A body under a correct checksum was written on purpose, not torn:
    whatever it holds, loading it imports and runs nothing, and a body
    that is not plain values is refused as damage wherever it sits."""

    @pytest.mark.parametrize("protocol", [0, 2, 5])
    @pytest.mark.parametrize("last", [True, False], ids=["tail", "middle"])
    def test_a_record_naming_a_global_is_corrupt(self, tmp_path, protocol, last):
        records = [pickle.dumps({"n": 1}, protocol=5), canary_body(protocol)]
        if not last:
            records.append(pickle.dumps({"n": 3}, protocol=5))
        data = HEADER + b"".join(map(framed, records))
        path = tmp_path / "scan.ckpt"
        path.write_bytes(data)
        with pytest.raises(CheckpointCorrupt, match="global"):
            Checkpointer(path).load()
        with pytest.raises(CheckpointCorrupt):
            Checkpointer(path).save({"n": 9})
        assert not Canary.built
        assert path.read_bytes() == data

    def test_a_resume_from_it_probes_nothing(self, tmp_path):
        internet, ips = build_world()
        transport = InMemoryTransport(internet)
        data = HEADER + framed(canary_body(5))
        path = tmp_path / "scan.ckpt"
        path.write_bytes(data)
        with pytest.raises(CheckpointCorrupt):
            ScanPipeline(
                transport, scanned_ports(), seed=3, batch_size=3, fingerprint=False
            ).run(ips, checkpoint=Checkpointer(path))
        assert not Canary.built
        assert transport.stats.syn_probes == 0
        assert path.read_bytes() == data

    @settings(max_examples=150, deadline=None)
    @given(
        body=st.binary(max_size=120) | PLAIN.map(lambda v: pickle.dumps(v, protocol=5)),
        last=st.booleans(),
    )
    def test_any_body_is_refused_as_damage_or_config(
        self, tmp_path_factory, body, last
    ):
        data = HEADER + framed(pickle.dumps({"n": 1}, protocol=5)) + framed(body)
        if not last:
            data += framed(pickle.dumps({"n": 3}, protocol=5))
        path = tmp_path_factory.mktemp("journal") / "scan.ckpt"
        path.write_bytes(data)
        internet, ips = build_world()
        transport = InMemoryTransport(internet)
        with pytest.raises((CheckpointCorrupt, ConfigError)):
            ScanPipeline(
                transport, scanned_ports(), seed=3, batch_size=3, fingerprint=False
            ).run(ips, checkpoint=Checkpointer(path))
        assert transport.stats.syn_probes == 0
        assert path.read_bytes() == data


class SimulatedCrash(BaseException):
    """A kill signal: deliberately not an Exception, so no layer of the
    pipeline (plugin isolation included) can swallow it."""


class KillSwitch(Transport):
    """Decorator that dies after a fixed number of wire operations."""

    def __init__(self, inner: Transport, die_after: int) -> None:
        super().__init__(enforce_ethics=inner.enforce_ethics)
        self.inner = inner
        self.stats = inner.stats
        self.die_after = die_after
        self.operations = 0

    def _tick(self) -> None:
        self.operations += 1
        if self.operations > self.die_after:
            raise SimulatedCrash(f"killed after {self.die_after} operations")

    def _port_open(self, ip, port):
        self._tick()
        return self.inner._port_open(ip, port)

    def _exchange(self, ip, port, scheme, request):
        self._tick()
        return self.inner._exchange(ip, port, scheme, request)

    def fetch_certificate(self, ip, port):
        self._tick()
        return self.inner.fetch_certificate(ip, port)

    # resume state lives in the wrapped (chaos) transport
    def snapshot_state(self):
        return self.inner.snapshot_state()

    def restore_state(self, state):
        self.inner.restore_state(state)


PLAN = FaultPlan(
    syn_loss=0.05, request_loss=0.05, reset_rate=0.02,
    flap_rate=0.2, flap_down=120.0, flap_period=600.0,
)

APPS = (
    ("polynote", 8192), ("docker", 2375), ("hadoop", 8088), ("grav", 80),
    ("consul", 8500), ("zeppelin", 8080), ("nomad", 4646), ("ajenti", 8000),
    ("jenkins", 8080), ("adminer", 80),
)


def build_world():
    """Ten AWE hosts spread over two /24 blocks; fresh instance per arm."""
    internet = SimulatedInternet()
    ips = []
    for index, (slug, port) in enumerate(APPS):
        # two routable /24s (TEST-NET blocks would be excluded by stage I)
        octet3 = 100 + index % 2
        ip = IPv4Address.parse(f"93.184.{octet3}.{10 + index}")
        host = Host(ip)
        host.add_service(Service(port, app=AppInstance(create_instance(slug), port)))
        internet.add_host(host)
        ips.append(ip)
    return internet, ips


def arm_pipeline(die_after=None, seed=3):
    """A pipeline over a freshly built world, and the world's addresses."""
    internet, ips = build_world()
    clock = SimClock()
    transport = ChaosTransport(
        InMemoryTransport(internet), PLAN, seed=21, clock=clock
    )
    if die_after is not None:
        transport = KillSwitch(transport, die_after)
    pipeline = ScanPipeline(
        transport, scanned_ports(), seed=seed, batch_size=3, fingerprint=False,
        retry_policy=RetryPolicy(max_attempts=3, base_delay=0.5, max_delay=4.0),
        clock=clock,
    )
    return pipeline, ips


def run_arm(die_after=None, checkpoint=None, seed=3):
    """One pipeline sweep over a freshly built world."""
    pipeline, ips = arm_pipeline(die_after, seed)
    return pipeline.run(ips, checkpoint=checkpoint)


#: the arms a knob is changed on, as the pipeline fields each sets
ARMS = {
    "sequential": {},
    "sharded": {"workers": 2},
    "supervised": {"workers": 2, "supervisor": SupervisorConfig()},
}
ALL_ARMS = tuple(ARMS)
SHARD_ARMS = ("sharded", "supervised")

#: a changed value for each SupervisorConfig field
SUPERVISOR_CHANGES = {
    "deadline": 10_000.0, "probe_deadline": 30.0, "max_shard_restarts": 1,
    "quarantine_threshold": 3, "quarantine_block_threshold": 4,
    "stall_window": 300.0, "heartbeat_every": 2, "crash_shards": ((1, 1),),
}

#: resumes that were once accepted with a changed knob, and reported
#: something no uninterrupted sweep would: each row is the field the
#: refusal names, what the resume changes (pipeline fields, or the arm's
#: ``frame`` slice, fault ``plan`` or ``chaos_seed``) and the arms it is
#: changed on
CHANGED_KNOBS = {
    "fingerprint-on": ("fingerprint", {"fingerprint": True}, ALL_ARMS),
    "prefilter-off": ("use_prefilter", {"use_prefilter": False}, ALL_ARMS),
    "retry-off": ("retry_policy", {"retry_policy": None}, ALL_ARMS),
    "max-attempts-5": ("retry_policy", {"retry_policy": RetryPolicy(
        max_attempts=5, base_delay=0.5, max_delay=4.0,
    )}, ALL_ARMS),
    "seed-4": ("seed", {"seed": 4}, ALL_ARMS),
    "ports-fewer": ("ports", {"ports": scanned_ports()[1:]}, ALL_ARMS),
    "batch-size-2": ("batch_size", {"batch_size": 2}, ALL_ARMS),
    "frame-smaller": ("frame", {"frame": slice(1, None)}, ALL_ARMS),
    "shard-blocks-2": ("shard_blocks", {"shard_blocks": 2}, SHARD_ARMS),
    "fault-plan": (
        "fault_plan", {"plan": replace(PLAN, reset_rate=0.03)}, ALL_ARMS,
    ),
    "chaos-seed-22": ("chaos_seed", {"chaos_seed": 22}, ALL_ARMS),
    **{
        f"supervisor-{name}": (
            "supervisor",
            {"supervisor": SupervisorConfig(**{name: value})},
            ("supervised",),
        )
        for name, value in SUPERVISOR_CHANGES.items()
    },
}

#: output-neutral changes across a resume of the sharded arm: the fields
#: the killed sweep ran with, then the fields the resume runs with
NEUTRAL_CHANGES = {
    "workers-2-to-1": ({}, {"workers": 1}),
    "workers-1-to-3": ({"workers": 1}, {"workers": 3}),
    "thread-to-process": ({}, {"executor": "process"}),
    "process-to-thread": ({"executor": "process"}, {}),
    "profile-on": ({}, {"profile": True}),
    "fork-to-spawn": (
        {"executor": "process", "mp_start_method": "fork"},
        {"executor": "process", "mp_start_method": "spawn"},
    ),
    "spawn-to-fork": (
        {"executor": "process", "mp_start_method": "spawn"},
        {"executor": "process", "mp_start_method": "fork"},
    ),
}


def knob_pipeline(arm="sequential", plan=PLAN, chaos_seed=21, **fields):
    """The pipeline of the ten-host chaos world, sequential, in two shards
    or in two supervised shards, and the world's hosts."""
    internet, ips = build_world()
    clock = SimClock()
    transport = ChaosTransport(
        InMemoryTransport(internet), plan, seed=chaos_seed, clock=clock
    )
    config = {
        "ports": scanned_ports(), "seed": 3, "batch_size": 3,
        "fingerprint": False,
        "retry_policy": RetryPolicy(max_attempts=3, base_delay=0.5, max_delay=4.0),
        "clock": clock, "shard_blocks": 1, **ARMS[arm], **fields,
    }
    return ScanPipeline(transport, **config), ips


def knob_arm(checkpoint, arm="sequential", frame=slice(None), **options):
    """A sweep of :func:`knob_pipeline`'s world over the ``frame`` slice
    of its hosts."""
    pipeline, ips = knob_pipeline(arm, **options)
    return pipeline.run(ips[frame], checkpoint=checkpoint)


def with_gauges(value):
    """``value`` with an empty ``"gauges"`` family in every metrics
    snapshot, where snapshots carried it before the family went."""
    if isinstance(value, dict):
        value = {key: with_gauges(item) for key, item in value.items()}
        if value.keys() == {"counters", "histograms"}:
            return {
                "counters": value["counters"], "gauges": [],
                "histograms": value["histograms"],
            }
        return value
    if isinstance(value, (list, tuple)):
        return type(value)(with_gauges(item) for item in value)
    return value


def rescan_arm(checkpoint, frame=slice(None), churned=None, **fields):
    """A re-scan engine's sweep of the ten-host world without chaos: its
    baseline, or with ``churned`` hosts a re-scan against that baseline."""
    internet, ips = build_world()
    config = {
        "ports": scanned_ports(), "seed": 3, "batch_size": 3,
        "fingerprint": False, **fields,
    }
    engine = RescanEngine(InMemoryTransport(internet), **config)
    addresses = IntervalSet.from_values(ips[frame])
    if churned is None:
        return engine.baseline(addresses, checkpoint).report
    prior = engine.baseline(addresses)
    return engine.rescan(addresses, prior, churned, checkpoint).report


class TestResumeRefusesChangedKnobs:
    @pytest.mark.parametrize("change,arm", [
        pytest.param(change, arm, id=f"{change}-{arm}")
        for change in sorted(CHANGED_KNOBS)
        for arm in CHANGED_KNOBS[change][2]
    ])
    def test_a_changed_knob_is_refused_by_name(self, tmp_path, change, arm):
        field, changes, _ = CHANGED_KNOBS[change]
        path = tmp_path / "scan.ckpt"
        with pytest.raises(KeyboardInterrupt):
            knob_arm(_Crashing(path, 1), arm)
        journal = path.read_bytes()
        with pytest.raises(ConfigError, match=f" {field}="):
            knob_arm(Checkpointer(path), arm, **changes)
        assert path.read_bytes() == journal

    @pytest.mark.parametrize("arm", ALL_ARMS)
    def test_unchanged_knobs_resume_to_the_uninterrupted_report(
        self, tmp_path, arm
    ):
        expected = report_to_dict(knob_arm(None, arm))
        path = tmp_path / "scan.ckpt"
        with pytest.raises(KeyboardInterrupt):
            knob_arm(_Crashing(path, 1), arm)
        assert report_to_dict(knob_arm(Checkpointer(path), arm)) == expected

    @pytest.mark.parametrize("change", sorted(NEUTRAL_CHANGES))
    def test_an_output_neutral_change_resumes_to_the_uninterrupted_report(
        self, tmp_path, change
    ):
        killed, resumed = NEUTRAL_CHANGES[change]
        methods = {
            fields.get("mp_start_method") for fields in (killed, resumed)
        }
        available = set(multiprocessing.get_all_start_methods())
        if not methods - {None} <= available:
            pytest.skip(f"start methods {methods} not all available here")
        expected = json.dumps(report_to_dict(knob_arm(None, "sharded")))
        path = tmp_path / "scan.ckpt"
        with pytest.raises(KeyboardInterrupt):
            knob_arm(_Crashing(path, 1), "sharded", **killed)
        report = knob_arm(Checkpointer(path), "sharded", **resumed)
        assert json.dumps(report_to_dict(report)) == expected

    @pytest.mark.parametrize("field,change", [
        ("frame", {"frame": slice(1, None)}),
        ("seed", {"seed": 4}),
        ("ports", {"ports": scanned_ports()[1:]}),
        ("batch_size", {"batch_size": 2}),
        ("run_hash", {"churned": [IPv4Address.parse("93.184.100.10")]}),
    ], ids=["frame", "seed", "ports", "batch-size", "hints"])
    def test_a_rescan_journal_refuses_a_changed_knob(
        self, tmp_path, field, change
    ):
        path = tmp_path / "rescan.ckpt"
        churned = () if "churned" in change else None
        with pytest.raises(KeyboardInterrupt):
            rescan_arm(_Crashing(path, 1), churned=churned)
        journal = path.read_bytes()
        with pytest.raises(ConfigError, match=f" {field}="):
            rescan_arm(Checkpointer(path), **{"churned": churned, **change})
        assert path.read_bytes() == journal

    def test_every_pipeline_field_is_neutral_or_in_the_key(self):
        """Never both, never neither: a field added later is refused
        across a resume until it is declared output-neutral."""
        pipeline = ScanPipeline(InMemoryTransport(SimulatedInternet()), (80,))
        key = resume_key(pipeline, "sequential", None)
        names = {spec.name for spec in dataclass_fields(ScanPipeline)}
        for name in names:
            assert (name in OUTPUT_NEUTRAL) != (name in key), name
        assert OUTPUT_NEUTRAL <= names
        assert set(SUPERVISOR_CHANGES) == {
            spec.name for spec in dataclass_fields(SupervisorConfig)
        }

    def test_a_journal_carrying_the_earlier_key_is_refused_untouched(
        self, tmp_path
    ):
        """Before the one key, a sequential record carried no frame,
        shard count, supervisor or chaos settings: its records, re-saved
        without them, are refused by name and never resumed."""
        path = tmp_path / "scan.ckpt"
        with pytest.raises(KeyboardInterrupt):
            knob_arm(_Crashing(path, 2))
        records, _ = _read_journal(path.read_bytes())
        path.unlink()
        earlier = Checkpointer(path)
        for record in records:
            for name in ("shard_blocks", "supervisor", "frame", "fault_plan",
                         "chaos_seed"):
                del record[name]
            earlier.save(record)
        journal = path.read_bytes()
        with pytest.raises(ConfigError, match=" shard_blocks=None"):
            knob_arm(Checkpointer(path))
        assert path.read_bytes() == journal


    @pytest.mark.parametrize("arm", ["sequential", "sharded"])
    def test_a_journal_with_the_retired_gauge_family_resumes(
        self, tmp_path, arm
    ):
        """Journals written before the gauge family went carry
        ``"gauges": []`` in every metrics snapshot, under the same key:
        they resume to the uninterrupted report and telemetry."""
        pipeline, ips = knob_pipeline(arm)
        expected = (
            json.dumps(report_to_dict(pipeline.run(ips))),
            pipeline.telemetry.export_jsonl(),
            pipeline.telemetry.export_prometheus(),
        )
        path = tmp_path / "scan.ckpt"
        with pytest.raises(KeyboardInterrupt):
            knob_arm(_Crashing(path, 2), arm)
        records, _ = _read_journal(path.read_bytes())
        path.unlink()
        earlier = Checkpointer(path)
        for record in records:
            earlier.save(with_gauges(record))
        assert b"gauges" in path.read_bytes()
        pipeline, ips = knob_pipeline(arm)
        report = pipeline.run(ips, checkpoint=Checkpointer(path))
        assert (
            json.dumps(report_to_dict(report)),
            pipeline.telemetry.export_jsonl(),
            pipeline.telemetry.export_prometheus(),
        ) == expected


class TestResume:
    def test_checkpointing_does_not_change_the_report(self, tmp_path):
        plain = report_to_dict(run_arm())
        checkpointed = report_to_dict(
            run_arm(checkpoint=Checkpointer(tmp_path / "scan.ckpt"))
        )
        assert checkpointed == plain

    @pytest.mark.parametrize("die_after", [50, 120, 200])
    def test_crash_mid_sweep_then_resume_equals_uninterrupted(
        self, tmp_path, die_after
    ):
        """Acceptance: kill the sweep, resume it, get the identical report."""
        expected = report_to_dict(run_arm())
        ckpt = Checkpointer(tmp_path / "scan.ckpt")
        with pytest.raises(SimulatedCrash):
            run_arm(die_after=die_after, checkpoint=ckpt)
        resumed = run_arm(checkpoint=ckpt)
        assert report_to_dict(resumed) == expected

    def test_resume_skips_completed_addresses(self, tmp_path):
        ckpt = Checkpointer(tmp_path / "scan.ckpt")
        with pytest.raises(SimulatedCrash):
            run_arm(die_after=200, checkpoint=ckpt)
        completed = ckpt.load()["completed_addresses"]
        assert completed > 0  # at least one batch landed before the kill

        pipeline, ips = arm_pipeline()
        pipeline.run(ips, checkpoint=ckpt)
        # only the remaining addresses were probed on the wire after resume:
        # at most max_attempts probes per port, and zero for completed hosts
        ceiling = (len(ips) - completed) * len(scanned_ports()) * 3
        assert 0 < pipeline.transport.stats.syn_probes <= ceiling

    def test_sweep_complete_counts_the_vulnerable_hosts_after_a_resume(
        self, tmp_path
    ):
        """The event reads the coverage ledger, which a resume restores
        from the journal; it still counts the report's vulnerable hosts."""
        ckpt = Checkpointer(tmp_path / "scan.ckpt")
        with pytest.raises(SimulatedCrash):
            run_arm(die_after=200, checkpoint=ckpt)
        assert ckpt.load()["completed_addresses"] > 0
        pipeline, ips = arm_pipeline()
        report = pipeline.run(ips, checkpoint=ckpt)
        (event,) = pipeline.telemetry.events.select("pipeline", "sweep-complete")
        assert dict(event.fields)["mav_hosts"] == len(report.vulnerable_ips()) > 0

    def test_resume_refuses_mismatched_config(self, tmp_path):
        ckpt = Checkpointer(tmp_path / "scan.ckpt")
        with pytest.raises(SimulatedCrash):
            run_arm(die_after=200, checkpoint=ckpt)
        with pytest.raises(ConfigError):
            run_arm(checkpoint=ckpt, seed=4)

    def test_successful_completion_clears_the_checkpoint(self, tmp_path):
        """A stale file after success would hijack the next sweep of the
        same frame and settings: its key matches, so the run would load it
        and skip everything.  (A different frame is refused by the key.)"""
        ckpt = Checkpointer(tmp_path / "scan.ckpt")
        run_arm(checkpoint=ckpt)
        assert not ckpt.exists()

    def test_checkpointer_without_file_is_a_fresh_run(self, tmp_path):
        expected = report_to_dict(run_arm())
        fresh = run_arm(checkpoint=Checkpointer(tmp_path / "never-saved.ckpt"))
        assert report_to_dict(fresh) == expected

    def test_works_without_retry_policy_too(self, tmp_path):
        """Checkpointing is independent of the retry layer."""
        def arm(die_after=None, checkpoint=None):
            internet, ips = build_world()
            transport = ChaosTransport(InMemoryTransport(internet), PLAN, seed=21)
            if die_after is not None:
                transport = KillSwitch(transport, die_after)
            pipeline = ScanPipeline(
                transport, scanned_ports(), seed=3, batch_size=3,
                fingerprint=False,
            )
            return pipeline.run(ips, checkpoint=checkpoint)

        expected = report_to_dict(arm())
        ckpt = Checkpointer(tmp_path / "scan.ckpt")
        with pytest.raises(SimulatedCrash):
            arm(die_after=90, checkpoint=ckpt)
        assert report_to_dict(arm(checkpoint=ckpt)) == expected

    def test_the_chaos_stream_is_saved_under_a_pass_through_layer(
        self, tmp_path
    ):
        """The stream a resume restores is the chaos layer's wherever it
        sits in the ``inner`` chain: a decorator with no state of its own
        must not hide it, or the resumed batches meet the stream's start
        again and the report differs without a word."""
        def arm(checkpoint=None):
            internet, ips = build_world()
            transport = _Relay(ChaosTransport(
                InMemoryTransport(internet),
                FaultPlan(request_loss=0.1, reset_rate=0.05), seed=21,
            ))
            pipeline = ScanPipeline(
                transport, scanned_ports(), seed=3, batch_size=2,
                fingerprint=False,
            )
            return pipeline.run(ips, checkpoint=checkpoint)

        expected = report_to_dict(arm())
        path = tmp_path / "scan.ckpt"
        with pytest.raises(KeyboardInterrupt):
            arm(checkpoint=_Crashing(path, 2))
        assert report_to_dict(arm(checkpoint=Checkpointer(path))) == expected
