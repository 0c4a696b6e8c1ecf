"""The read contract of write-local / publish-on-read telemetry.

Per-probe counter writes never touch the registry: stage code adds to
``MetricsRegistry.pending`` and the retry executor only keeps its
``RetryStats``.  These tests pin what a *reader* is promised:

* a read at any point of a chaos+retry sweep returns exactly what eager
  per-increment writes would have left — values (the float
  ``retry_backoff_seconds_total`` to the last bit) and the set of series
  that exist;
* a sweep killed with counts still pending resumes to the uninterrupted
  run's report, telemetry JSONL and Prometheus text, on every executor;
* a pipeline that has already swept resumes as exactly as a fresh one
  (handles bound to series objects used to be orphaned by the restore).
"""

import gc
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.catalog import scanned_ports
from repro.core.checkpoint import Checkpointer
from repro.core.fingerprint.knowledge_base import build_default_knowledge_base
from repro.core.pipeline import ScanPipeline
from repro.core.retry import RetryExecutor, RetryPolicy, RetryStats
from repro.core.serialize import report_to_dict
from repro.net.chaos import ChaosTransport
from repro.net.transport import InMemoryTransport, Transport
from repro.obs.metrics import MetricsRegistry, series_key
from repro.obs.telemetry import Telemetry
from repro.util.clock import SimClock
from repro.util.errors import ConnectionTimeout
from tests.core.test_determinism_matrix import sweep
from tests.core.test_parallel import CrashingCheckpointer
from tests.core.test_parallel import SimulatedCrash as ShardCrash
from tests.obs.test_metrics import flat_counters
from tests.obs.test_pipeline_telemetry import (
    PLAN,
    KillSwitch,
    SimulatedCrash,
    build_world,
)

POLICY = RetryPolicy(max_attempts=3, base_delay=0.5, max_delay=4.0)


def chaos_pipeline(die_after=None, policy=POLICY, wrap=None, **fields):
    """A sequential chaos+retry pipeline over a fresh world, and its frame."""
    internet, ips = build_world()
    clock = SimClock()
    transport = ChaosTransport(
        InMemoryTransport(internet), PLAN, seed=21, clock=clock
    )
    if die_after is not None:
        transport = KillSwitch(transport, die_after)
    if wrap is not None:
        transport = wrap(transport)
    fields.setdefault("fingerprint", False)
    pipeline = ScanPipeline(
        transport, scanned_ports(), seed=3, batch_size=3,
        retry_policy=policy, clock=clock, **fields,
    )
    return pipeline, ips


class TestRegistryContract:
    def test_pending_adds_are_invisible_until_read(self):
        registry = MetricsRegistry()
        key = series_key("ops_total", kind="probe")
        registry.pending[key] = registry.pending.get(key, 0) + 3
        assert registry.published_state()["counters"] == []
        assert registry.counter_value("ops_total", kind="probe") == 3
        assert registry.pending == {}
        assert registry.published_state()["counters"] == [
            ["ops_total", [["kind", "probe"]], 3.0]
        ]

    def test_every_read_accessor_publishes(self):
        key = series_key("ops_total")
        reads = {
            "counter_value": lambda r: r.counter_value("ops_total"),
            "snapshot_state": lambda r: r.snapshot_state()["counters"][0][2],
            "to_prometheus": lambda r: float(
                r.to_prometheus().splitlines()[-1].split()[-1]
            ),
        }
        for name, read in reads.items():
            registry = MetricsRegistry()
            registry.pending[key] = 2
            assert read(registry) == 2, name

    def test_absorb_state_publishes_both_sides(self):
        key = series_key("ops_total")
        mine, theirs = MetricsRegistry(), MetricsRegistry()
        mine.pending[key] = 2
        theirs.pending[key] = 5
        mine.absorb_state(theirs.snapshot_state())
        assert mine.published_state()["counters"] == [["ops_total", [], 7.0]]
        assert theirs.published_state()["counters"] == [["ops_total", [], 5.0]]

    def test_restore_drops_what_was_pending(self):
        registry = MetricsRegistry()
        saved = registry.snapshot_state()
        registry.pending[series_key("ops_total")] = 9
        registry.restore_state(saved)
        assert flat_counters(registry) == {}

    def test_a_touched_key_mints_at_zero_and_an_untouched_one_never(self):
        registry = MetricsRegistry()
        registry.pending[series_key("touched_total")] = 0
        assert flat_counters(registry) == {"touched_total": 0.0}

    def test_hooks_run_in_registration_order_and_are_held_weakly(self):
        class Writer:
            def __init__(self, registry, name, calls):
                self.registry, self.name, self.calls = registry, name, calls
                self.owed = 0
                registry.defer(self.publish)

            def publish(self):
                self.calls.append(self.name)
                if self.owed:
                    self.registry.counter("owed_total", by=self.name).inc(self.owed)
                    self.owed = 0

        registry, calls = MetricsRegistry(), []
        first = Writer(registry, "first", calls)
        second = Writer(registry, "second", calls)
        first.owed, second.owed = 2, 3
        assert flat_counters(registry) == {
            "owed_total{by=first}": 2.0, "owed_total{by=second}": 3.0,
        }
        assert calls == ["first", "second"]
        del first
        gc.collect()
        calls.clear()
        registry.publish()
        assert calls == ["second"]

    def test_published_state_never_runs_a_hook(self):
        registry, ran = MetricsRegistry(), []

        class Writer:
            def publish(self):
                ran.append(True)

        writer = Writer()
        registry.defer(writer.publish)
        registry.published_state()
        assert ran == []
        registry.snapshot_state()
        assert ran == [True]


def lost():
    raise ConnectionTimeout("lost")


def answering(answers):
    """An operation that raises each exception in ``answers`` and returns
    each other value, in turn."""
    answers = iter(answers)

    def operation():
        answer = next(answers)
        if isinstance(answer, Exception):
            raise answer
        return answer

    return operation


class TestExecutorPublishing:
    def executor(self, **policy):
        telemetry = Telemetry(clock=SimClock())
        executor = RetryExecutor(
            RetryPolicy(max_attempts=3, base_delay=0.3, max_delay=2.0, **policy),
            clock=telemetry.clock, telemetry=telemetry,
        )
        return executor, telemetry.metrics

    def test_series_mirror_the_stats_field_for_field(self):
        executor, metrics = self.executor()
        ip = build_world()[1][0]
        operation = answering([ConnectionTimeout("lost"), "ok"] + [
            ConnectionTimeout("lost")
        ] * 3)
        assert executor.call(ip, operation) == "ok"
        with pytest.raises(ConnectionTimeout):
            executor.call(ip, operation)
        stats = executor.stats
        assert flat_counters(metrics) == {
            "retry_attempts_total": float(stats.attempts),
            "retry_backoff_seconds_total": stats.backoff_seconds,
            "retry_exhausted_total": 1.0,
            "retry_operations_total{kind=call}": 2.0,
            "retry_recovered_total": 1.0,
            "retry_retries_total": float(stats.retries),
        }

    def test_no_series_is_minted_for_a_field_that_never_moved(self):
        executor, metrics = self.executor()
        ip = build_world()[1][0]
        assert executor.call(ip, lambda: "ok") == "ok"
        assert flat_counters(metrics) == {
            "retry_attempts_total": 1.0,
            "retry_operations_total{kind=call}": 1.0,
        }

    def test_backoff_lands_on_the_bits_of_per_charge_adds(self):
        executor, metrics = self.executor(per_host_budget=None)
        ip = build_world()[1][0]
        seen = []
        for round_ in range(40):
            with pytest.raises(ConnectionTimeout):
                executor.call(ip, lost)
            if round_ % 7 == 0:  # publish at uneven points
                seen.append(metrics.counter_value("retry_backoff_seconds_total"))
        assert metrics.counter_value(
            "retry_backoff_seconds_total"
        ) == executor.stats.backoff_seconds
        assert seen == sorted(seen) and len(set(seen)) == len(seen)

    def test_restore_owes_nothing(self):
        executor, metrics = self.executor()
        ip = build_world()[1][0]
        with pytest.raises(ConnectionTimeout):
            executor.call(ip, lost)
        saved_metrics, saved_retry = metrics.snapshot_state(), executor.snapshot_state()
        with pytest.raises(ConnectionTimeout):
            executor.call(ip, lost)  # pending when the restore lands
        executor.restore_state(saved_retry)
        metrics.restore_state(saved_metrics)
        assert metrics.snapshot_state() == saved_metrics


# -- (a) reads at arbitrary points against an eager reference ---------------

#: series families whose writes are deferred (everything else is eager)
DEFERRED = (
    "retry_", "masscan_", "prefilter_", "plugin_verdicts_total",
    "fingerprint_results_total", "crawler_fetches_total",
    "chaos_faults_total", "funnel_hosts_total",
)


def deferred_only(counters: dict) -> dict:
    return {k: v for k, v in counters.items() if k.startswith(DEFERRED)}


def deferred_lines(text: str) -> list[str]:
    return [
        line for line in text.splitlines()
        if line.removeprefix("# TYPE ").startswith(DEFERRED)
    ]


class EagerPending(dict):
    """``MetricsRegistry.pending`` stand-in that also increments a
    reference registry at every single write, the way stage code used to."""

    def __init__(self, reference: MetricsRegistry) -> None:
        super().__init__()
        self.reference = reference

    def __setitem__(self, key, value):
        name, labels = key
        self.reference.counter(name, **dict(labels)).inc(value - self.get(key, 0))
        super().__setitem__(key, value)


class EagerStats(RetryStats):
    """``RetryExecutor.stats`` stand-in: every field write is mirrored into
    the reference registry at once, as ``RetryExecutor._count`` used to.
    ``delay`` (set by :class:`RecordingPolicy`) says what the field alone
    cannot."""

    SERIES = {
        "attempts": ("retry_attempts_total", {}),
        "retries": ("retry_retries_total", {}),
        "recovered": ("retry_recovered_total", {}),
        "exhausted": ("retry_exhausted_total", {}),
        "breaker_skips": ("retry_breaker_skips_total", {}),
        "budget_denials": ("retry_denials_total", {"reason": "budget"}),
        "deadline_denials": ("retry_denials_total", {"reason": "deadline"}),
        "poisoned": ("retry_poisoned_total", {}),
        "quarantine_skips": ("retry_quarantine_skips_total", {}),
    }

    def __setattr__(self, name, value):
        reference = self.__dict__.get("reference")
        if reference is not None:
            if name == "operations":
                reference.counter("retry_operations_total", kind="call").inc()
            elif name == "backoff_seconds":
                # the exact delay, not ``value - old`` (which rounds)
                reference.counter("retry_backoff_seconds_total").inc(self.delay)
            elif name in self.SERIES:
                series, labels = self.SERIES[name]
                reference.counter(series, **labels).inc(value - getattr(self, name))
        object.__setattr__(self, name, value)


class RecordingPolicy(RetryPolicy):
    """Remembers the last delay it drew, for :class:`EagerStats`."""

    def backoff_delay(self, attempt, rng):
        delay = super().backoff_delay(attempt, rng)
        self.sink.delay = delay
        return delay


class ReadingTransport(Transport):
    """Decorator that reads the telemetry at chosen wire operations."""

    def __init__(self, inner: Transport, reads: dict[int, str]) -> None:
        super().__init__(enforce_ethics=inner.enforce_ethics)
        self.inner = inner
        self.stats = inner.stats
        self.reads = reads
        self.operations = 0
        self.on_read = None

    def _tick(self) -> None:
        kind = self.reads.get(self.operations)
        self.operations += 1
        if kind is not None:
            self.on_read(kind)

    def _port_open(self, ip, port):
        self._tick()
        return self.inner._port_open(ip, port)

    def _exchange(self, ip, port, scheme, request):
        self._tick()
        return self.inner._exchange(ip, port, scheme, request)

    def fetch_certificate(self, ip, port):
        self._tick()
        return self.inner.fetch_certificate(ip, port)


READ_KINDS = ("counter_value", "roundtrip", "prometheus", "absorb")


def instrumented_sweep(reads: dict[int, str]):
    """A chaos+retry sweep whose deferred writes are mirrored eagerly into
    a reference registry; returns the mismatches its reads found."""
    policy = RecordingPolicy(max_attempts=3, base_delay=0.5, max_delay=4.0)
    pipeline, ips = chaos_pipeline(
        policy=policy, wrap=lambda inner: ReadingTransport(inner, reads),
        fingerprint=True, knowledge_base=build_default_knowledge_base(),
    )
    transport = pipeline.transport
    reference = MetricsRegistry()
    metrics = pipeline.telemetry.metrics
    metrics.pending = EagerPending(reference)
    stats = pipeline.retry.stats = EagerStats()
    object.__setattr__(policy, "sink", stats)  # the policy is frozen
    stats.reference = reference

    mismatches = []

    def check(where, got, want):
        if got != want:
            mismatches.append((where, got, want))

    def on_read(kind):
        where = (transport.operations, kind)
        expected = flat_counters(reference)
        if kind == "counter_value":
            for name, labels in (
                ("retry_backoff_seconds_total", {}),
                ("retry_attempts_total", {}),
                ("retry_operations_total", {"kind": "call"}),
                ("masscan_addresses_total", {}),
                ("masscan_resends_total", {}),
                ("prefilter_fetches_total", {"scheme": "http"}),
                ("crawler_fetches_total", {"outcome": "ok"}),
            ):
                check(
                    where + (name,),
                    metrics.counter_value(name, **labels),
                    reference.counter_value(name, **labels),
                )
        elif kind == "roundtrip":
            metrics.restore_state(json.loads(json.dumps(metrics.snapshot_state())))
            check(where, deferred_only(flat_counters(metrics)), expected)
        elif kind == "prometheus":
            check(
                where,
                deferred_lines(pipeline.telemetry.export_prometheus()),
                deferred_lines(reference.to_prometheus()),
            )
        elif kind == "absorb":
            fold = MetricsRegistry()
            fold.absorb_state(metrics.snapshot_state())
            check(where, deferred_only(flat_counters(fold)), expected)

    transport.on_read = on_read
    report = pipeline.run(ips)
    check("final", deferred_only(flat_counters(metrics)), flat_counters(reference))
    check(
        "final backoff",
        metrics.counter_value("retry_backoff_seconds_total"),
        report.retry_stats.backoff_seconds,
    )
    return mismatches, transport.operations, report, pipeline


@pytest.fixture(scope="module")
def unread():
    """The instrumented sweep with no read at all: (operations, report,
    pipeline).  Nothing but the end-of-batch publishes ran."""
    mismatches, operations, report, pipeline = instrumented_sweep({})
    assert mismatches == []
    return operations, report, pipeline


class TestReadsAtArbitraryPoints:
    def test_the_sweep_exercises_every_deferred_family(self, unread):
        operations, _, pipeline = unread
        counters = flat_counters(pipeline.telemetry.metrics)
        for family in DEFERRED:
            assert any(name.startswith(family) for name in counters), family
        assert counters["retry_backoff_seconds_total"] > 0
        assert operations > 200

    @settings(max_examples=30, deadline=None)
    @given(
        reads=st.dictionaries(
            st.integers(0, 10**6), st.sampled_from(READ_KINDS), max_size=24
        )
    )
    def test_reads_match_an_eager_reference(self, unread, reads):
        total, plain_report, plain_pipeline = unread
        mismatches, operations, report, pipeline = instrumented_sweep(
            {point % total: kind for point, kind in reads.items()}
        )
        assert mismatches == []
        # and reading perturbs nothing: same sweep, same artifacts
        assert operations == total
        assert report_to_dict(report) == report_to_dict(plain_report)
        assert (
            pipeline.telemetry.export_prometheus()
            == plain_pipeline.telemetry.export_prometheus()
        )

    def test_a_read_at_every_operation_matches_too(self, unread):
        reads = {
            index: READ_KINDS[index % len(READ_KINDS)]
            for index in range(unread[0])
        }
        mismatches, *_ = instrumented_sweep(reads)
        assert mismatches == []


# -- (b) kill with counts pending, resume ------------------------------------


def run_artifacts(report, pipeline):
    return (
        json.dumps(report_to_dict(report), sort_keys=True),
        pipeline.telemetry.export_jsonl(),
        pipeline.telemetry.export_prometheus(),
    )


class TestKillWithCountsPending:
    @pytest.mark.parametrize("die_after", [70, 150, 260])
    def test_sequential_sweep_killed_mid_batch(self, tmp_path, die_after):
        clean, ips = chaos_pipeline()
        expected = run_artifacts(clean.run(ips), clean)

        ckpt = Checkpointer(tmp_path / "scan.ckpt")
        dying, ips = chaos_pipeline(die_after=die_after)
        with pytest.raises(SimulatedCrash):
            dying.run(ips, checkpoint=ckpt)
        # the kill really landed between two batch boundaries, with
        # counts the registry had not been handed yet
        metrics = dying.telemetry.metrics
        assert metrics.published_state() != metrics.snapshot_state()

        resumed, ips = chaos_pipeline()
        assert run_artifacts(resumed.run(ips, checkpoint=ckpt), resumed) == expected

    @pytest.mark.parametrize("executor", ["thread", "process"])
    def test_sharded_sweep_killed_with_shards_in_flight(self, tmp_path, executor):
        expected = run_artifacts(*sweep("chaos", 4, executor))
        path = str(tmp_path / "sweep.ckpt")
        crasher = CrashingCheckpointer(path, 2, every_batches=1)
        with pytest.raises(ShardCrash):
            sweep("chaos", 4, executor, checkpoint=crasher)
        resumed = sweep(
            "chaos", 4, executor, checkpoint=Checkpointer(path, every_batches=1)
        )
        assert run_artifacts(*resumed) == expected


# -- the stale-handle regression ----------------------------------------------


class TestUsedPipelineResumes:
    """The same pipeline object sweeps until killed, then resumes from its
    own journal.  ``restore_state`` replaces every series object: stage-I
    counts used to go to the orphans (handles were cached per telemetry
    sink), and the sweep order used to continue from the consumed RNG
    instead of restarting from the seed.  (Killed at a save: a SimClock
    cannot be wound back, so in place only a boundary kill is exact.)"""

    def test_killed_at_a_save_and_resumed_in_place(self, tmp_path):
        clean, ips = chaos_pipeline()
        expected = run_artifacts(clean.run(ips), clean)

        path = tmp_path / "scan.ckpt"
        pipeline, ips = chaos_pipeline()
        with pytest.raises(ShardCrash):
            pipeline.run(ips, checkpoint=CrashingCheckpointer(path, 2, every_batches=1))
        report = pipeline.run(ips, checkpoint=Checkpointer(path, every_batches=1))
        assert (
            pipeline.telemetry.metrics.counter_value("masscan_addresses_total")
            == len(ips)
        )
        assert run_artifacts(report, pipeline) == expected
