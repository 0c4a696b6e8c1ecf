"""Tests for the metrics registry."""

import json

import pytest

from repro.obs.metrics import Counter, Histogram, MetricsRegistry, series_key


def flat_counters(registry: MetricsRegistry) -> dict[str, float]:
    """Every counter series as ``name{label=value,...}`` -> value, in the
    registry's sorted order, read through ``snapshot_state`` (which
    publishes first)."""
    flat = {}
    for name, labels, value in registry.snapshot_state()["counters"]:
        inner = ",".join(f"{k}={v}" for k, v in labels)
        flat[f"{name}{{{inner}}}" if labels else name] = value
    return flat


class TestPrimitives:
    def test_counter_only_goes_up(self):
        counter = Counter()
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_histogram_buckets(self):
        histogram = Histogram(bounds=(1.0, 5.0))
        for value in (0.5, 0.9, 3.0, 100.0):
            histogram.observe(value)
        assert histogram.cumulative() == [
            (1.0, 2), (5.0, 3), (float("inf"), 4),
        ]
        assert histogram.count == 4
        assert histogram.total == pytest.approx(104.4)

    def test_histogram_bucket_edges(self):
        # a value equal to a bound belongs to that bound's bucket (le=),
        # anything past the last bound to +Inf
        histogram = Histogram(bounds=(1.0, 5.0))
        for value in (0.0, 1.0, 1.0000001, 5.0, 5.1, float("inf")):
            histogram.observe(value)
        assert histogram.counts == [2, 2, 2]

    def test_histogram_needs_bounds(self):
        with pytest.raises(ValueError):
            Histogram(bounds=())


class TestRegistry:
    def test_same_labels_same_instance(self):
        registry = MetricsRegistry()
        a = registry.counter("ops_total", kind="call")
        b = registry.counter("ops_total", kind="call")
        assert a is b
        registry.counter("ops_total", kind="probe").inc()
        a.inc(2)
        assert registry.counter_value("ops_total", kind="call") == 2
        assert registry.counter_value("ops_total", kind="probe") == 1

    def test_untouched_series_read_as_zero(self):
        registry = MetricsRegistry()
        assert registry.counter_value("nope") == 0.0
        assert registry.histogram_count("nope") == 0

    def test_snapshot_is_sorted(self):
        registry = MetricsRegistry()
        registry.counter("b_total").inc()
        registry.counter("a_total", x=1).inc(3)
        assert list(flat_counters(registry)) == ["a_total{x=1}", "b_total"]
        assert flat_counters(registry)["a_total{x=1}"] == 3.0

    def test_prometheus_exposition(self):
        registry = MetricsRegistry()
        registry.counter("requests_total", code=200).inc(3)
        registry.observed[series_key("latency_seconds")].append(0.5)
        text = registry.to_prometheus()
        assert "# TYPE requests_total counter" in text
        assert 'requests_total{code="200"} 3' in text
        assert "# TYPE latency_seconds histogram" in text
        assert 'latency_seconds_bucket{le="0.25"} 0' in text
        assert 'latency_seconds_bucket{le="1"} 1' in text
        assert 'latency_seconds_bucket{le="+Inf"} 1' in text
        assert "latency_seconds_sum 0.5" in text
        assert "latency_seconds_count 1" in text
        assert text.endswith("\n")

    def test_empty_registry_exposition(self):
        assert MetricsRegistry().to_prometheus() == ""

    def test_touched_then_restored_empty_registry_is_empty(self):
        registry = MetricsRegistry()
        registry.counter("ops_total").inc()
        registry.restore_state(MetricsRegistry().snapshot_state())
        assert registry.to_prometheus() == ""


class TestSeriesLookup:
    """``(name, **labels)`` resolves to the series under its
    :func:`series_key`; it must never alias another series."""

    def test_a_lookup_after_restore_finds_the_restored_series(self):
        registry = MetricsRegistry()
        registry.counter("ops_total", kind="call").inc(2)
        registry.observed[series_key("lat", q="a")].append(0.5)
        registry.restore_state(registry.snapshot_state())
        # restore_state replaced every metric object: a lookup must find
        # the restored one, not increment an orphan
        registry.counter("ops_total", kind="call").inc()
        registry.observed[series_key("lat", q="a")].append(0.5)
        assert flat_counters(registry) == {"ops_total{kind=call}": 3.0}
        assert registry.histogram_count("lat", q="a") == 2

    def test_kwarg_order_and_value_type_share_a_series(self):
        registry = MetricsRegistry()
        first = registry.counter("ops_total", a=1, b=2)
        assert registry.counter("ops_total", b=2, a=1) is first
        assert registry.counter("ops_total", a="1", b="2") is first
        assert series_key("ops_total", b=2, a=1) == series_key(
            "ops_total", a="1", b="2"
        )
        assert list(flat_counters(registry)) == ["ops_total{a=1,b=2}"]

    def test_equal_hashing_values_keep_their_own_series(self):
        # 1 == 1.0 == True and all three hash alike, but their label
        # strings differ; whichever is looked up first must not capture
        # the others
        registry = MetricsRegistry()
        for value in (1, 1.0, True):
            registry.counter("ops_total", x=value).inc()
            registry.counter("ops_total", x=value).inc()
        assert flat_counters(registry) == {
            "ops_total{x=1.0}": 2.0,
            "ops_total{x=1}": 2.0,
            "ops_total{x=True}": 2.0,
        }

    def test_kinds_do_not_share_a_series(self):
        registry = MetricsRegistry()
        registry.counter("depth").inc()
        registry.observed[series_key("depth")].append(1.0)
        registry.observed[series_key("depth")].append(2.0)
        assert registry.counter_value("depth") == 1
        assert registry.histogram_count("depth") == 2

    def test_absorb_state_folds_into_live_series(self):
        registry = MetricsRegistry()
        handle = registry.counter("ops_total", kind="call")
        handle.inc()
        registry.observed[series_key("lat")].append(0.5)
        shard = MetricsRegistry()
        shard.counter("ops_total", kind="call").inc(4)
        shard.counter("ops_total", kind="probe").inc()
        shard.observed[series_key("lat")].append(2.0)
        registry.absorb_state(shard.snapshot_state())
        # the fold added into the live objects, so held handles see it...
        assert registry.counter("ops_total", kind="call") is handle
        assert handle.value == 5
        assert registry.histogram_count("lat") == 2
        # ...and a series the fold created is found by the next lookup
        registry.counter("ops_total", kind="probe").inc()
        assert flat_counters(registry) == {
            "ops_total{kind=call}": 5.0,
            "ops_total{kind=probe}": 2.0,
        }


class TestExpositionEscaping:
    """Label values must survive the three characters the Prometheus
    text format requires escaping inside quoted values."""

    def exposition_line(self, value):
        registry = MetricsRegistry()
        registry.counter("paths_total", path=value).inc()
        (line,) = [
            line for line in registry.to_prometheus().splitlines()
            if not line.startswith("#")
        ]
        return line

    def test_double_quotes_are_escaped(self):
        line = self.exposition_line('say "hi"')
        assert line == 'paths_total{path="say \\"hi\\""} 1'

    def test_backslashes_are_escaped(self):
        line = self.exposition_line("C:\\temp")
        assert line == 'paths_total{path="C:\\\\temp"} 1'

    def test_newlines_are_escaped(self):
        line = self.exposition_line("line1\nline2")
        assert line == 'paths_total{path="line1\\nline2"} 1'
        # the exposition must stay one-line-per-sample
        assert "\n" not in line

    def test_backslash_escapes_before_other_escapes(self):
        # a literal backslash-n must not collapse into an escaped newline
        line = self.exposition_line("a\\nb")
        assert line == 'paths_total{path="a\\\\nb"} 1'

    def test_histogram_le_labels_are_untouched(self):
        registry = MetricsRegistry()
        registry.observed[series_key("lat")].append(9999.0)
        text = registry.to_prometheus()
        # the out-of-bounds observation lands only in the +Inf bucket
        assert 'lat_bucket{le="1800"} 0' in text
        assert 'lat_bucket{le="+Inf"} 1' in text
        assert "lat_count 1" in text

    def test_inf_bucket_always_counts_everything(self):
        registry = MetricsRegistry()
        registry.observed[series_key("lat", code=500)].extend(
            (0.5, 1.5, 99.0, float("inf"))
        )
        text = registry.to_prometheus()
        assert 'lat_bucket{code="500",le="+Inf"} 4' in text
        assert 'lat_count{code="500"} 4' in text

    def test_snapshot_restore_round_trip(self):
        registry = MetricsRegistry()
        registry.counter("ops_total", kind="call").inc(7)
        registry.observed[series_key("lat")].append(1.5)
        # bounds ride in the snapshot, so a series decoded with other
        # bounds than the default ones round-trips too
        registry.absorb_state({"counters": [], "histograms": [
            ["wide", [["q", "a"]], [1.0, 2.0], [0, 1, 0], 1.5, 1],
        ]})
        # the snapshot must survive JSON (it rides in the checkpoint file)
        state = json.loads(json.dumps(registry.snapshot_state()))
        restored = MetricsRegistry()
        restored.restore_state(state)
        assert restored.to_prometheus() == registry.to_prometheus()

    def test_restore_replaces_existing_series(self):
        registry = MetricsRegistry()
        registry.counter("stale_total").inc(99)
        fresh = MetricsRegistry()
        fresh.counter("ops_total").inc()
        registry.restore_state(fresh.snapshot_state())
        assert registry.counter_value("stale_total") == 0.0
        assert registry.counter_value("ops_total") == 1.0


class TestDecoder:
    """``absorb_state`` is the registry's one decoder."""

    def test_a_snapshot_with_the_retired_gauge_family_decodes(self):
        """Snapshots written before the gauge family went carry a
        ``"gauges"`` list; the decoder ignores it."""
        registry = MetricsRegistry()
        registry.restore_state({
            "counters": [["ops_total", [], 2.0]],
            "gauges": [["depth", [], 4.0]],
            "histograms": [],
        })
        assert registry.to_prometheus() == (
            "# TYPE ops_total counter\nops_total 2\n"
        )
        assert "gauges" not in registry.snapshot_state()

    def test_histogram_bounds_mismatch_is_an_error(self):
        registry = MetricsRegistry()
        registry.observed[series_key("lat")].append(0.5)
        other = [["lat", [], [1.0, 5.0], [1, 0, 0], 0.5, 1]]
        with pytest.raises(ValueError, match="bucket bounds differ"):
            registry.absorb_state({"counters": [], "histograms": other})
