"""Tests for the operations console: hub aggregation and the HTTP server.

The acceptance property: during a *live* chaos-soak the console answers
``/metrics``, ``/funnel``, ``/quarantine``, and ``/shards`` mid-flight —
while shards are still executing — without disturbing the run.
"""

import json
import socket
import sys
import threading
import urllib.error
import urllib.request

import pytest

from repro.core.parallel import ShardResult
from repro.core.pipeline import ScanReport
from repro.core.serialize import report_to_dict
from repro.experiments.chaos_soak import run_chaos_soak
from repro.net.ipv4 import IPv4Address
from repro.obs.console import ConsoleHub, ConsoleServer
from repro.obs.metrics import series_key
from repro.obs.telemetry import FUNNEL_STAGES, Telemetry
from repro.util.clock import SimClock
from repro.util.errors import ConfigError
from tests.obs.test_publish_on_read import chaos_pipeline


def shard_result(telemetry, addresses, quarantined=(), supervisor=None):
    report = ScanReport()
    report.coverage.quarantined_hosts.update(
        IPv4Address.parse(text).value for text in quarantined
    )
    return ShardResult(
        report=report, telemetry=telemetry.snapshot_state(),
        transport_stats={}, addresses=addresses, supervisor=supervisor,
    )


def fetch(url):
    with urllib.request.urlopen(url, timeout=10) as response:
        return (
            response.status,
            response.headers["content-type"],
            response.read().decode(),
        )


class TestHubViews:
    def test_empty_hub_serves_empty_views(self):
        hub = ConsoleHub()
        assert hub.metrics_text() == ""
        assert hub.funnel() == {
            "stages": {
                stage: {"in": 0.0, "out": 0.0, "dropped": 0.0,
                        "quarantined": 0.0}
                for stage in FUNNEL_STAGES
            }
        }
        assert hub.quarantine()["quarantined_hosts"] == []
        assert hub.shards() == {
            "complete": False, "total": 0, "running": 0, "done": 0,
            "shards": {},
        }
        assert hub.flight()["records"] == []

    def test_parent_telemetry_feeds_metrics_and_funnel(self):
        hub = ConsoleHub()
        telemetry = Telemetry(clock=SimClock())
        telemetry.metrics.counter(
            "funnel_hosts_total", stage="masscan", flow="in"
        ).inc(7)
        hub.attach_telemetry(telemetry)
        assert hub.funnel()["stages"]["masscan"]["in"] == 7.0
        assert 'stage="masscan"' in hub.metrics_text()

    def test_a_scrape_never_publishes(self):
        """Publishing is the sweep thread's alone: a scrape serves what
        was last published and leaves pending counts where they are."""
        hub = ConsoleHub()
        telemetry = Telemetry(clock=SimClock())
        telemetry.metrics.counter("masscan_addresses_total").inc(4)
        key = series_key("masscan_addresses_total")
        telemetry.metrics.pending[key] = 3
        hub.attach_telemetry(telemetry)
        assert "masscan_addresses_total 4\n" in hub.metrics_text()
        assert telemetry.metrics.pending == {key: 3}
        telemetry.metrics.publish()  # the sweep reaches a batch boundary
        assert "masscan_addresses_total 7\n" in hub.metrics_text()

    def test_midflight_payloads_merge_with_parent(self):
        hub = ConsoleHub()
        parent = Telemetry(clock=SimClock())
        parent.metrics.counter(
            "funnel_hosts_total", stage="masscan", flow="in"
        ).inc(3)
        hub.attach_telemetry(parent)
        hub.begin_sweep([{"index": 0, "addresses": 10},
                         {"index": 1, "addresses": 12}])

        shard = Telemetry(clock=SimClock())
        shard.metrics.counter(
            "funnel_hosts_total", stage="masscan", flow="in"
        ).inc(4)
        hub.note_shard_running(0)
        hub.note_shard_done(0, shard_result(shard, 10, ["10.0.0.9"]))

        assert hub.funnel()["stages"]["masscan"]["in"] == 7.0
        shards = hub.shards()
        assert shards == {
            "complete": False, "total": 2, "running": 0, "done": 1,
            "shards": {
                "0": {"planned": 10, "status": "done", "scanned": 10},
                "1": {"planned": 12, "status": "planned", "scanned": 0},
            },
        }
        assert hub.quarantine()["quarantined_hosts"] == ["10.0.0.9"]

    def test_finish_sweep_switches_to_the_parent_only(self):
        """After the fold the parent holds the shard's numbers; keeping
        the payload too would double-count them."""
        hub = ConsoleHub()
        parent = Telemetry(clock=SimClock())
        hub.attach_telemetry(parent)
        hub.begin_sweep([{"index": 0, "addresses": 10}])

        shard = Telemetry(clock=SimClock())
        shard.metrics.counter(
            "funnel_hosts_total", stage="masscan", flow="in"
        ).inc(4)
        hub.note_shard_done(0, shard_result(shard, 10))
        assert hub.funnel()["stages"]["masscan"]["in"] == 4.0

        # emulate the fold: the parent registry absorbs the shard's counts
        parent.metrics.counter(
            "funnel_hosts_total", stage="masscan", flow="in"
        ).inc(4)

        class Report:
            class coverage:
                @staticmethod
                def to_dict():
                    return {"quarantined_hosts": ["10.0.0.1"]}

        hub.finish_sweep(Report())
        assert hub.funnel()["stages"]["masscan"]["in"] == 4.0  # not 8
        assert hub.shards()["complete"] is True
        assert hub.quarantine()["quarantined_hosts"] == ["10.0.0.1"]

    def test_a_shard_folded_mid_sweep_counts_once(self):
        """The engine folds shards as they land: once the parent holds a
        shard's numbers its result stops adding to the metrics, and its
        quarantines stay in view until the sweep is done."""
        hub = ConsoleHub()
        parent = Telemetry(clock=SimClock())
        hub.attach_telemetry(parent)
        hub.begin_sweep([{"index": 0, "addresses": 10},
                         {"index": 1, "addresses": 10}])
        shard = Telemetry(clock=SimClock())
        shard.metrics.counter(
            "funnel_hosts_total", stage="masscan", flow="in"
        ).inc(4)
        hub.note_shard_done(0, shard_result(shard, 10, ["10.0.0.9"]))
        hub.note_shard_done(1, shard_result(shard, 10))
        assert hub.funnel()["stages"]["masscan"]["in"] == 8.0

        hub.note_shard_folded(0)
        parent.absorb_state(shard.snapshot_state())
        assert hub.funnel()["stages"]["masscan"]["in"] == 8.0  # not 12
        assert hub.quarantine()["quarantined_hosts"] == ["10.0.0.9"]

    def test_abandoned_shards_count_as_done(self):
        hub = ConsoleHub()
        hub.begin_sweep([{"index": 0, "addresses": 5}])
        hub.note_shard_done(0, shard_result(
            Telemetry(), 2, supervisor={"abandoned": True, "restarts": 2},
        ))
        shards = hub.shards()
        assert shards["done"] == 1
        assert shards["shards"]["0"]["status"] == "abandoned"
        assert shards["shards"]["0"]["restarts"] == 2


class TestServerEndpoints:
    def test_all_endpoints_respond(self):
        hub = ConsoleHub()
        telemetry = Telemetry(clock=SimClock())
        telemetry.metrics.counter(
            "funnel_hosts_total", stage="masscan", flow="in"
        ).inc(5)
        hub.attach_telemetry(telemetry)
        with ConsoleServer(hub, port=0) as server:
            status, ctype, body = fetch(server.url + "/metrics")
            assert status == 200
            assert ctype == "text/plain; version=0.0.4"
            assert 'funnel_hosts_total{flow="in",stage="masscan"} 5' in body

            status, ctype, body = fetch(server.url + "/funnel")
            assert status == 200 and ctype == "application/json"
            assert json.loads(body)["stages"]["masscan"]["in"] == 5.0

            for path in ("/quarantine", "/shards", "/flight"):
                status, ctype, body = fetch(server.url + path)
                assert status == 200 and ctype == "application/json"
                json.loads(body)

            status, ctype, body = fetch(server.url + "/")
            assert status == 200 and ctype == "text/html"
            assert "Sweep console" in body

    def test_unknown_path_is_404(self):
        with ConsoleServer(ConsoleHub(), port=0) as server:
            try:
                fetch(server.url + "/nope")
            except urllib.error.HTTPError as error:
                assert error.code == 404
            else:  # pragma: no cover
                raise AssertionError("expected a 404")

    def test_ephemeral_port_is_bound(self):
        with ConsoleServer(ConsoleHub(), port=0) as server:
            assert server.port > 0
            assert server.url == f"http://127.0.0.1:{server.port}"


class TestPortInUse:
    """A console port something else holds is a configuration error
    naming the port and the OS reason, not a raw ``OSError``."""

    @staticmethod
    def taken_port():
        blocker = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        blocker.bind(("127.0.0.1", 0))
        blocker.listen()
        return blocker, blocker.getsockname()[1]

    def test_the_server_refuses_with_a_config_error(self):
        blocker, port = self.taken_port()
        with blocker, pytest.raises(ConfigError) as refused:
            ConsoleServer(ConsoleHub(), port=port)
        message = str(refused.value)
        assert f"127.0.0.1:{port}" in message
        assert "in use" in message.lower()

    def test_the_cli_exits_nonzero_with_one_line(self, capsys):
        from repro.experiments.cli import main

        blocker, port = self.taken_port()
        with blocker:
            status = main([
                "--experiment", "scan", "--scale", "tiny",
                "--console-port", str(port),
            ])
        out, err = capsys.readouterr()
        assert status != 0 and out == ""
        assert err.count("\n") == 1 and f"127.0.0.1:{port}" in err
        assert "Traceback" not in err


class PausingHub(ConsoleHub):
    """A hub that parks the sweep after its first completed shard, so a
    test can scrape the console while the run is provably mid-flight."""

    def __init__(self):
        super().__init__()
        self.first_done = threading.Event()
        self.release = threading.Event()

    def note_shard_done(self, index, result):
        super().note_shard_done(index, result)
        if not self.first_done.is_set():
            self.first_done.set()
            # block the worker outside the hub lock until the test has
            # finished scraping
            assert self.release.wait(timeout=60)


class TestLiveChaosSoak:
    def test_console_serves_midflight_during_a_chaos_soak(self):
        """The tentpole acceptance test: all four endpoints answer while
        a chaos-soak sweep is still executing."""
        hub = PausingHub()
        outcome = {}

        def soak():
            outcome["result"] = run_chaos_soak(console=hub)

        with ConsoleServer(hub, port=0) as server:
            worker = threading.Thread(target=soak, daemon=True)
            worker.start()
            try:
                assert hub.first_done.wait(timeout=120), "no shard completed"

                status, _, metrics = fetch(server.url + "/metrics")
                assert status == 200
                assert "funnel_hosts_total" in metrics

                status, _, body = fetch(server.url + "/funnel")
                assert status == 200
                funnel = json.loads(body)
                assert funnel["stages"]["masscan"]["in"] > 0

                status, _, body = fetch(server.url + "/quarantine")
                assert status == 200
                json.loads(body)  # shape only: chaos may not have struck yet

                status, _, body = fetch(server.url + "/shards")
                assert status == 200
                shards = json.loads(body)
                assert shards["complete"] is False  # provably mid-flight
                assert shards["total"] > shards["done"] >= 1
            finally:
                hub.release.set()
            worker.join(timeout=300)
            assert not worker.is_alive()
            assert "result" in outcome  # the soak's own gates all passed

            # after the fold the console flips to complete and keeps serving
            shards = json.loads(fetch(server.url + "/shards")[2])
            assert shards["complete"] is True
            assert shards["done"] == shards["total"]
            final = json.loads(fetch(server.url + "/funnel")[2])
            assert final["stages"]["masscan"]["in"] >= funnel["stages"][
                "masscan"]["in"]


class TestScrapedSweepCountsOnce:
    def test_hammering_metrics_leaves_the_final_counters_alone(self):
        """``/metrics`` is read from other threads throughout a sequential
        chaos+retry sweep — whose live registry is the one being read —
        and the sweep still ends on the counters of an unobserved run.  A
        scrape that published would race the sweep thread's own publish:
        counts added twice, or marked published without being added."""
        quiet, ips = chaos_pipeline()
        quiet_report = quiet.run(ips)
        expected = quiet.telemetry.export_prometheus()
        total = _series(expected)

        hub = ConsoleHub()
        pipeline, ips = chaos_pipeline(console=hub)
        done = threading.Event()
        scrapes, ahead = [0], []

        class Witness:
            """A deferred writer with nothing to write: it only notes
            which threads ever ran a publish (the race itself needs luck
            to show in the counters; the thread that caused it does not)."""

            threads = set()

            def hook(self):
                self.threads.add(threading.current_thread())

        witness = Witness()
        pipeline.telemetry.metrics.defer(witness.hook)

        def hammer():
            while not done.is_set():
                hub.metrics_text()
                scrapes[0] += 1

        def scrape(url):
            while not done.is_set():
                # mid-flight views trail the sweep, never run ahead of it
                for name, value in _series(fetch(url + "/metrics")[2]).items():
                    if value > total[name]:
                        ahead.append((name, value))

        with ConsoleServer(hub, port=0) as server:
            # One scraper goes through the HTTP server and checks what it
            # gets; three call the view its handler calls in a tight loop,
            # so that reads overlap the sweep's own publishes as often as
            # threads can.  More readers than this box has cores, and a
            # switch interval short enough to cut a publish in two.
            threads = [
                threading.Thread(target=scrape, args=(server.url,), daemon=True)
            ] + [threading.Thread(target=hammer, daemon=True) for _ in range(3)]
            for thread in threads:
                thread.start()
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-5)
            try:
                report = pipeline.run(ips)
            finally:
                sys.setswitchinterval(interval)
                done.set()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
            final = fetch(server.url + "/metrics")[2]

        assert scrapes[0] >= 20
        assert witness.threads == {threading.current_thread()}
        assert ahead == []
        assert final == expected
        assert pipeline.telemetry.export_prometheus() == expected
        assert report_to_dict(report) == report_to_dict(quiet_report)


def _series(exposition):
    return {
        line.rsplit(" ", 1)[0]: float(line.rsplit(" ", 1)[1])
        for line in exposition.splitlines()
        if not line.startswith("#")
    }
