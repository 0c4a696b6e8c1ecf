"""The checkpoint journal under the three drivers that write to it.

``test_checkpoint.py`` pins the file format on hand-made payloads; this
module drives real sweeps:

* a save costs what the sweep added since the last one — pinned by exact
  finding-row, span-object and journal-row counts and file sizes, never
  by time;
* a journal cut anywhere inside its last record resumes from the record
  before it, and a damaged middle record is refused;
* a sweep killed after *any* save resumes to the uninterrupted report
  and telemetry, on the sequential, thread and process drivers (the
  re-scan engine's every-boundary kills live in ``test_rescan.py``:
  its telemetry never leaves the engine, so they compare reports);
* a journal is only resumable by the driver that wrote it;
* a sequential record holds each tally once, and a journal written
  before it did still resumes.
"""

import json
import pickle
import shutil
import zlib
from pathlib import Path

import pytest

from repro.apps.catalog import scanned_ports
from repro.core import serialize
from repro.core.checkpoint import Checkpointer, _read_journal
from repro.core.parallel import plan_shards
from repro.core.pipeline import ScanPipeline
from repro.core.rescan import RescanEngine
from repro.core.retry import RetryPolicy
from repro.net.intervals import CompressedPopulation
from repro.net.population import PopulationModel, generate_internet
from repro.net.transport import InMemoryTransport
from repro.obs.telemetry import Telemetry
from repro.util.errors import CheckpointCorrupt, ConfigError
from tests.core.test_determinism_matrix import artifacts, sweep
from tests.core.test_parallel import CrashingCheckpointer, SimulatedCrash
from tests.core.test_rescan import SEED, _Crashing, parent_state_world

SAVES = 8


def read_journal(path) -> list[dict]:
    """The journal's records as written, unfolded."""
    records, end = _read_journal(path.read_bytes())
    assert end == path.stat().st_size
    return records


def record_starts(data: bytes) -> list[int]:
    """Where each record's frame line starts, and the file's end: a frame
    line is 27 bytes and opens with the body's length in hex."""
    starts = [data.index(b"\n") + 1]
    while starts[-1] < len(data):
        starts.append(starts[-1] + 27 + int(data[starts[-1]:starts[-1] + 8], 16))
    return starts


def snapshot_bytes(path) -> int:
    """Size of the one whole-state snapshot the journal folds back into —
    what the last save alone used to write."""
    return len(pickle.dumps(Checkpointer(path).load(), protocol=5))


class KeptCheckpointer(Checkpointer):
    """Keeps the journal after a completed sweep so tests can read it, and
    notes the tracer's shape at every save."""

    def __init__(self, path, every_batches=1, tracer=None):
        super().__init__(path, every_batches)
        self.tracer = tracer
        self.saves = 0
        self.open_spans = 0
        self.finished_spans = 0

    def save(self, payload):
        super().save(payload)
        self.saves += 1
        if self.tracer is not None:
            self.open_spans += self.tracer.depth
            self.finished_spans = self.tracer.finished_count

    def clear(self):
        pass


@pytest.fixture(scope="module")
def census():
    """A world whose per-host sections dwarf the cumulative block, the
    way a real sweep's do: ~800k addresses, ~3k open hosts."""
    internet, _, _ = generate_internet(
        PopulationModel(awe_rate=0.001, vuln_rate=0.1, background_rate=1e-7)
    )
    frame = CompressedPopulation.build(internet, 0, seed=1).frame
    return InMemoryTransport(internet), frame


class TestSavesCostTheirGrowth:
    def test_sequential_sweep_serialises_everything_once(
        self, census, tmp_path, monkeypatch, spans_built
    ):
        transport, frame = census
        calls = {"finding": 0}
        finding_row = serialize.finding_row

        def counted_finding(finding):
            calls["finding"] += 1
            return finding_row(finding)

        monkeypatch.setattr(serialize, "finding_row", counted_finding)

        telemetry = Telemetry()
        path = tmp_path / "sweep.ckpt"
        checkpoint = KeptCheckpointer(path, tracer=telemetry.tracer)
        report = ScanPipeline(
            transport, scanned_ports(), seed=1, telemetry=telemetry,
            batch_size=-(-len(frame) // SAVES),
        ).run(frame, checkpoint=checkpoint)

        assert checkpoint.saves == SAVES
        assert len(report.findings) > 1000
        assert calls["finding"] == len(report.findings)
        # The span record is rows from the probe to the file: the sweep
        # built a Span for each span whose attrs it fills in while it is
        # open and for nothing else — not per probe, not per fingerprint,
        # and not one in eight saves.
        assert sorted(set(spans_built)) == [
            "batch", "stage:masscan", "stage:prefilter", "stage:tsunami", "sweep",
        ]
        assert len(spans_built) == 1 + 4 * SAVES
        assert checkpoint.finished_spans > 2 * len(report.findings)
        # every finished row is written once, and the open stack (the
        # sweep span) rides whole on each save
        records = read_journal(path)
        assert checkpoint.open_spans == SAVES
        assert [len(r["telemetry"]["tracer"]["open"]) for r in records] == [1] * SAVES
        written = [
            row[0] for r in records
            for row in r["growth"]["telemetry.tracer.finished"]
        ]
        # ... span 0 is the sweep, still open at the last save
        assert sorted(written) == list(range(1, checkpoint.finished_spans + 1))
        assert path.stat().st_size <= 1.25 * snapshot_bytes(path)

    def test_shard_engine_writes_each_payload_once(self, census, tmp_path):
        transport, frame = census
        shard_blocks = -(-len(frame.block_bases()) // SAVES)
        shards = plan_shards(frame, seed=1, shard_blocks=shard_blocks)
        path = tmp_path / "sweep.ckpt"
        checkpoint = KeptCheckpointer(path)
        ScanPipeline(
            transport, scanned_ports(), seed=1, workers=2,
            shard_blocks=shard_blocks,
        ).run(frame, checkpoint=checkpoint)

        assert checkpoint.saves == len(shards) == SAVES
        written = [
            index
            for record in read_journal(path)
            for index in record["growth"]["shards"]
        ]
        assert sorted(written) == [s.index for s in shards]
        assert path.stat().st_size <= 1.25 * snapshot_bytes(path)

    def test_rescan_engine_writes_each_host_record_once(self, census, tmp_path):
        transport, frame = census
        path = tmp_path / "baseline.ckpt"
        checkpoint = KeptCheckpointer(path)
        state = RescanEngine(
            transport, scanned_ports(), seed=1,
            batch_size=-(-len(frame) // SAVES),
        ).baseline(frame, checkpoint=checkpoint)

        assert checkpoint.saves == SAVES
        written = [
            row[0]
            for record in read_journal(path)
            for row in record["growth"]["records"]
        ]
        assert len(written) == len(set(written))
        assert set(written) == set(state.records)
        assert path.stat().st_size <= 1.25 * snapshot_bytes(path)


def killed_journal(path, scenario, workers, executor, saves):
    """Kill a sweep right after its ``saves``-th save; the journal stays."""
    crasher = CrashingCheckpointer(path, saves, every_batches=1)
    with pytest.raises(SimulatedCrash):
        sweep(scenario, workers, executor, checkpoint=crasher)


def resume(path, scenario, workers=None, executor="thread"):
    return artifacts(*sweep(
        scenario, workers, executor, checkpoint=Checkpointer(path)
    ))


@pytest.fixture(scope="module")
def sequential_golden():
    """Scenario -> artifacts of its uninterrupted sequential sweep (ten
    batches of the matrix world, so ten saves when checkpointed)."""
    cache = {}

    def get(scenario):
        if scenario not in cache:
            cache[scenario] = artifacts(*sweep(scenario, None, "thread"))
        return cache[scenario]

    return get


class TestTornAndDamagedJournals:
    @pytest.fixture()
    def journal(self, tmp_path):
        """A real eight-save journal: path, bytes, start of each record."""
        path = tmp_path / "sweep.ckpt"
        killed_journal(path, "clean", None, "thread", SAVES)
        data = path.read_bytes()
        starts = record_starts(data)
        assert len(starts) == SAVES + 1  # the last "start" is the file's end
        return path, data, starts

    def test_cut_inside_the_last_record(self, journal, sequential_golden):
        """A journal cut inside its last record loads as the seven-save
        journal and is cut back to it; resuming from there is the
        uninterrupted run.  ``test_checkpoint.py`` cuts a small journal
        at every byte; this one takes every offset near the record's two
        ends and a stride through its body, and resumes a sweep for real
        at a coarser stride — what a resume does is a function of the
        loaded payload and the file, which the finer pass checks."""
        path, data, starts = journal
        last, end = starts[-2], len(data)
        path.write_bytes(data[:last])
        seven_saves = Checkpointer(path).load()
        assert seven_saves["batches_done"] == SAVES - 1

        edges = 40
        cuts = {
            *range(last, last + edges),
            *range(last + edges, end - edges, 7),
            *range(end - edges, end),
        }
        for cut in sorted(cuts):
            path.write_bytes(data[:cut])
            assert Checkpointer(path).load() == seven_saves
            assert path.read_bytes() == data[:last]

        golden = sequential_golden("clean")
        for cut in (last, last + 1, *range(last + 9, end, 211), end - 1):
            path.write_bytes(data[:cut])
            assert resume(path, "clean") == golden
            assert not path.exists()
        path.write_bytes(data)  # and the whole journal resumes from save eight
        assert Checkpointer(path).load()["batches_done"] == SAVES
        assert resume(path, "clean") == golden

    @pytest.mark.parametrize("offset", [0, 7, 8, 9, 400, -1])
    def test_flipped_byte_in_a_middle_record(self, journal, offset):
        """Damage with whole records after it is not a torn append: the
        resume refuses it as what it is, in the body's length, the
        separator, the body's checksum, the body or its last byte."""
        path, data, starts = journal
        record, following = starts[3], starts[4]
        damaged = bytearray(data)
        damaged[(following if offset < 0 else record) + offset] ^= 0x01
        path.write_bytes(bytes(damaged))
        with pytest.raises(CheckpointCorrupt):
            resume(path, "clean")
        assert path.read_bytes() == bytes(damaged)

    def test_flipped_length_byte_in_a_middle_record(self, journal):
        """A length digit flipped so the record runs past the end of the
        file reads, by its length alone, as a torn last append.  The frame
        line's own checksum refuses it instead, and nothing is cut."""
        path, data, starts = journal
        record = starts[3]
        damaged = bytearray(data)
        damaged[record] ^= 0x01  # the length's top digit: 0 -> 1
        assert record + 27 + int(damaged[record:record + 8], 16) > len(data)
        path.write_bytes(bytes(damaged))
        with pytest.raises(CheckpointCorrupt, match="not the journal's tail"):
            Checkpointer(path).load()
        with pytest.raises(CheckpointCorrupt):
            resume(path, "clean")
        assert path.read_bytes() == bytes(damaged)

    def test_zero_length_file_is_a_fresh_run(self, tmp_path, sequential_golden):
        path = tmp_path / "sweep.ckpt"
        path.touch()
        assert resume(path, "clean") == sequential_golden("clean")


class TestKillAfterEverySave:
    @pytest.mark.parametrize("saves", range(1, 11))
    def test_sequential(self, saves, tmp_path, sequential_golden):
        path = tmp_path / "sweep.ckpt"
        killed_journal(path, "chaos", None, "thread", saves)
        assert len(read_journal(path)) == saves
        assert resume(path, "chaos") == sequential_golden("chaos")

    @pytest.mark.parametrize("executor", ["thread", "process"])
    @pytest.mark.parametrize("saves", [1, 2, 3])
    def test_sharded(self, executor, saves, tmp_path):
        """Three shards, so the third kill lands with nothing left to run."""
        path = tmp_path / "sweep.ckpt"
        killed_journal(path, "chaos", 2, executor, saves)
        shards_saved = sum(
            len(record["growth"]["shards"]) for record in read_journal(path)
        )
        assert shards_saved == saves
        golden = artifacts(*sweep("chaos", 1, "thread"))
        assert resume(path, "chaos", 2, executor) == golden

    def test_killed_twice(self, tmp_path, sequential_golden):
        """A resumed sweep appends to the journal it resumed from."""
        path = tmp_path / "sweep.ckpt"
        killed_journal(path, "chaos", None, "thread", 3)
        killed_journal(path, "chaos", None, "thread", 4)
        assert [r["batches_done"] for r in read_journal(path)] == list(range(1, 8))
        assert resume(path, "chaos") == sequential_golden("chaos")


class TestVersionTwoJournalsAreRefused:
    """Format 2 carried one dict per finished span where format 3 carries
    a row, and format 3 a ``<crc32> <JSON>`` line per save where format 4
    frames a pickle of rows; there is no reading one as another, so the
    version in the header line decides and nothing else is looked at."""

    @pytest.mark.parametrize("workers", [None, 2], ids=["sequential", "shard"])
    def test_refused_and_left_untouched(self, workers, tmp_path):
        path = tmp_path / "sweep.ckpt"
        killed_journal(path, "clean", workers, "thread", 1)
        header, newline, records = path.read_bytes().partition(b"\n")
        assert header == b"repro-checkpoint-journal v4"
        version_two = b"repro-checkpoint-journal v2" + newline + records
        path.write_bytes(version_two)
        with pytest.raises(ConfigError, match="not a version-4 checkpoint journal"):
            resume(path, "clean", workers)
        assert path.read_bytes() == version_two
        with pytest.raises(ConfigError):
            Checkpointer(path).save({"n": 1})
        assert path.read_bytes() == version_two

    def test_a_hand_written_version_three_journal(self, tmp_path):
        """A whole format-3 record — checksum, space, JSON, newline — is
        refused by the header before its line is read."""
        body = json.dumps({"engine": "sequential", "seed": 1, "batches_done": 1})
        version_three = b"repro-checkpoint-journal v3\n%08x %b\n" % (
            zlib.crc32(body.encode()), body.encode(),
        )
        path = tmp_path / "sweep.ckpt"
        path.write_bytes(version_three)
        with pytest.raises(ConfigError, match="not a version-4 checkpoint journal"):
            resume(path, "clean")
        with pytest.raises(ConfigError):
            Checkpointer(path).save({"n": 1})
        assert path.read_bytes() == version_three


class TestJournalBelongsToItsDriver:
    def test_sequential_driver_refuses_a_shard_journal(self, tmp_path):
        path = tmp_path / "sweep.ckpt"
        killed_journal(path, "clean", 2, "thread", 1)
        with pytest.raises(ConfigError, match="engine='parallel-shards'"):
            resume(path, "clean")

    def test_shard_driver_refuses_a_sequential_journal(self, tmp_path):
        path = tmp_path / "sweep.ckpt"
        killed_journal(path, "clean", None, "thread", 1)
        with pytest.raises(ConfigError, match="engine='sequential'"):
            resume(path, "clean", workers=2)

    def test_sequential_driver_refuses_a_rescan_journal(self, census, tmp_path):
        transport, frame = census
        path = tmp_path / "baseline.ckpt"
        engine = RescanEngine(
            transport, scanned_ports(), seed=1, batch_size=-(-len(frame) // 2)
        )
        with pytest.raises(SimulatedCrash):
            engine.baseline(frame, checkpoint=CrashingCheckpointer(path, 1))
        pipeline = ScanPipeline(
            transport, scanned_ports(), seed=1, batch_size=engine.batch_size
        )
        with pytest.raises(ConfigError, match="engine='rescan'"):
            pipeline.run(frame, checkpoint=Checkpointer(path))


class TestSequentialRecordLayout:
    def test_growth_is_the_four_append_only_sections(self, tmp_path):
        """The tallies, retry stats and coverage ride once, in the report
        rows: no top-level prefilter section copies them, and no set of
        responsive hosts grows beside the findings."""
        path = tmp_path / "sweep.ckpt"
        killed_journal(path, "clean", None, "thread", 2)
        records = read_journal(path)
        assert len(records) == 2
        for record in records:
            assert sorted(record["growth"]) == [
                "report.findings", "report.open_ports",
                "telemetry.events.events", "telemetry.tracer.finished",
            ]
            assert "prefilter" not in record


#: a sequential journal written by commit 789f4f9, whose records also held
#: the prefilter's response tallies and a growing set of responsive hosts,
#: killed after its sixth save.  Regenerate only in a checkout of that
#: commit with this file copied in, by
#: ``PYTHONPATH=src:. python tests/core/test_checkpoint_journal.py``.
PARENT_JOURNAL = Path(__file__).parent / "fixtures" / "sweep_journal_789f4f9.ckpt"
PARENT_JOURNAL_SAVES = 6


def parent_journal_sweep():
    """The journal's sweep: the eight hand-placed hosts, twelve batches,
    with retries; (pipeline, frame)."""
    internet, frame, _ = parent_state_world()
    pipeline = ScanPipeline(
        InMemoryTransport(internet), scanned_ports(), seed=SEED,
        batch_size=64, retry_policy=RetryPolicy(),
    )
    return pipeline, frame


def test_a_journal_of_commit_789f4f9_resumes_to_the_uninterrupted_sweep(
    tmp_path,
):
    """The sections this commit no longer writes are extra keys to it:
    the resume reads the tallies from the report rows and ends on the
    uninterrupted sweep's report and telemetry."""
    records = read_journal(PARENT_JOURNAL)
    assert len(records) == PARENT_JOURNAL_SAVES
    assert all("prefilter" in record for record in records)
    assert sum(
        len(record["growth"]["prefilter.responsive_hosts"]) for record in records
    ) > 0
    whole, frame = parent_journal_sweep()
    expected = artifacts(whole.run(frame), whole)

    path = tmp_path / "sweep.ckpt"
    shutil.copyfile(PARENT_JOURNAL, path)
    resumed, _ = parent_journal_sweep()
    assert artifacts(resumed.run(frame, Checkpointer(path)), resumed) == expected
    assert not path.exists()
    sent = resumed.transport.stats.http_requests
    assert 0 < sent < whole.transport.stats.http_requests


if __name__ == "__main__":
    PARENT_JOURNAL.unlink(missing_ok=True)
    pipeline_, frame_ = parent_journal_sweep()
    try:
        pipeline_.run(
            frame_, checkpoint=_Crashing(PARENT_JOURNAL, PARENT_JOURNAL_SAVES)
        )
    except KeyboardInterrupt:
        pass
