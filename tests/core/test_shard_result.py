"""A shard's result crosses the pickle boundary as objects.

Workers hand the fold a :class:`~repro.core.parallel.ShardResult` holding
their live report; its report is encoded only when a checkpoint saves,
and decoded once per resumed shard.  These tests pin that mechanism by
counting the report serialisers, pin that the journal form folds to the
same bytes as the live objects, and bound what a full shard's result
pickles to.
"""

import pickle
import sys
from collections import Counter
from dataclasses import replace

import pytest

from repro.apps.catalog import scanned_ports
from repro.core import serialize
from repro.core.checkpoint import Checkpointer
from repro.core.fingerprint.knowledge_base import build_default_knowledge_base
from repro.core.parallel import ShardResult, ShardRunner, plan_shards
from repro.core.pipeline import DEFAULT_SHARD_BLOCKS, ScanPipeline
from repro.experiments.config import StudyConfig
from repro.net.intervals import CompressedPopulation
from repro.net.population import generate_internet
from repro.net.transport import InMemoryTransport
from tests.core.test_determinism_matrix import artifacts, sweep
from tests.core.test_parallel import (
    CrashingCheckpointer,
    SimulatedCrash,
    build_world,
)

SERIALISERS = ("report_to_dict", "report_from_dict", "report_rows", "report_from_rows")


@pytest.fixture
def serialiser_calls(monkeypatch, tmp_path):
    """Count report serialiser calls, in this process and in any worker
    forked from it (each call appends a line to a shared log file)."""
    log = tmp_path / "calls.log"
    for name in SERIALISERS:
        original = getattr(serialize, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            with open(log, "a") as out:
                out.write(_name + "\n")
            return _original(*args, **kwargs)

        for module in list(sys.modules.values()):
            if (
                getattr(module, "__name__", "").startswith("repro")
                and getattr(module, name, None) is original
            ):
                monkeypatch.setattr(module, name, counted)

    def read() -> Counter:
        calls = Counter(log.read_text().split()) if log.exists() else Counter()
        log.unlink(missing_ok=True)
        return Counter({name: calls[name] for name in SERIALISERS})

    return read


def sharded_sweep(executor, checkpoint=None):
    internet, ips = build_world()
    pipeline = ScanPipeline(
        InMemoryTransport(internet), scanned_ports(), seed=7, batch_size=3,
        fingerprint=False, workers=2, shard_blocks=2, executor=executor,
        mp_start_method="fork",
    )
    return pipeline.run(ips, checkpoint=checkpoint)


class TestMechanism:
    @pytest.mark.parametrize("executor", ["thread", "process"])
    def test_a_live_sweep_serialises_no_report(self, executor, serialiser_calls):
        report = sharded_sweep(executor)
        assert report.findings
        assert serialiser_calls() == Counter(dict.fromkeys(SERIALISERS, 0))

    def test_a_resume_reads_each_checkpointed_shard_once(
        self, serialiser_calls, tmp_path
    ):
        path = tmp_path / "sweep.ckpt"
        with pytest.raises(SimulatedCrash):
            sharded_sweep(
                "thread", CrashingCheckpointer(path, 2, every_batches=1)
            )
        saved = len(Checkpointer(path).load()["shards"])
        assert saved >= 2
        serialiser_calls()  # the killed run wrote its shards: not counted
        sharded_sweep("thread", Checkpointer(path, every_batches=1))
        calls = serialiser_calls()
        assert calls["report_from_rows"] == saved
        assert calls["report_from_dict"] == 0


def detections(report):
    return Counter(
        (d.ip.value, d.port, d.scheme.value, d.slug, d.title, d.details)
        for d in report.detections
    )


@pytest.mark.parametrize("scenario", ["chaos", "hostile-supervised"])
def test_the_journal_form_folds_to_the_same_bytes(scenario, monkeypatch, tmp_path):
    """Folding live results and folding each one through a checkpoint
    journal give the same report, JSONL, Prometheus and flight artifacts;
    the detections, which the journal does not hold, agree as a
    multiset."""

    def everything(report, pipeline):
        return {
            **artifacts(report, pipeline),
            "prometheus": pipeline.telemetry.metrics.to_prometheus(),
        }

    live_report, live_pipeline = sweep(scenario, 2, "thread")
    execute = ShardRunner.execute

    def through_journal(runner, shard):
        journal = Checkpointer(tmp_path / f"shard-{shard.index}.ckpt")
        journal.clear()
        journal.save({"shard": execute(runner, shard).to_rows()})
        return ShardResult.from_rows(journal.load()["shard"])

    monkeypatch.setattr(ShardRunner, "execute", through_journal)
    report, pipeline = sweep(scenario, 2, "thread")
    assert everything(report, pipeline) == everything(live_report, live_pipeline)
    assert detections(report) == detections(live_report)


#: bytes a full shard's pickled result may take on the tiny study world
#: and on the dense one (the default study at the 0.05 share of its rates
#: the benchmark's dense sweep uses).  The report's value types pickle as
#: their constructor calls: 60-65 KB a shard on the tiny world, under 70 KB
#: on the dense one; as dataclass state (a dict of field names per object)
#: they took 78-84 KB on the tiny world.
FULL_SHARD_CEILING = 70_000


def tiny_world():
    return generate_internet(StudyConfig.tiny().with_seed(7).population)[0]


def dense_world():
    share = 0.05
    model = StudyConfig.default().with_seed(7).population
    model = replace(
        model,
        awe_rate=model.awe_rate * share,
        vuln_rate=min(1.0, model.vuln_rate * share),
        background_rate=model.background_rate * share,
    )
    return generate_internet(model)[0]


@pytest.mark.parametrize(
    "world, shards", [(tiny_world, 20), (dense_world, 6)], ids=["tiny", "dense"]
)
def test_a_full_shard_result_pickles_under_the_ceiling(world, shards):
    """Every shard of ``DEFAULT_SHARD_BLOCKS`` /24s, fingerprinted, as the
    process executor sends it.  Pickled size depends on the seeded world
    and the pickle protocol only, not on the machine."""
    world = world()
    frame = CompressedPopulation.build(world, 1, seed=7).frame
    runner = ShardRunner(
        transport=InMemoryTransport(world), ports=tuple(scanned_ports()),
        batch_size=4096, fingerprint=True, use_prefilter=True,
        knowledge_base=build_default_knowledge_base(), retry_policy=None,
        profile=False,
    )
    full = [
        shard for shard in plan_shards(frame, seed=3)
        if len(shard.addresses.block_bases()) == DEFAULT_SHARD_BLOCKS
    ]
    assert len(full) >= shards
    sizes = [len(pickle.dumps(runner.execute(shard))) for shard in full]
    assert max(sizes) <= FULL_SHARD_CEILING, sizes
