"""End-to-end tests of the three-stage pipeline against ground truth."""

import pytest

from repro.net.population import PAPER_PREVALENCE


class TestPipelineAccuracy:
    """The pipeline's verdicts versus the simulator's omniscient truth."""

    def test_zero_false_positives(self, tiny_scan_study):
        truth = {
            h.ip.value for h in tiny_scan_study.internet.true_vulnerable_hosts()
        }
        found = {ip.value for ip in tiny_scan_study.report.vulnerable_ips()}
        assert found <= truth

    def test_zero_false_negatives(self, tiny_scan_study):
        truth = {
            h.ip.value for h in tiny_scan_study.internet.true_vulnerable_hosts()
        }
        found = {ip.value for ip in tiny_scan_study.report.vulnerable_ips()}
        assert truth <= found

    def test_app_attribution_correct(self, tiny_scan_study):
        """Every observation names an app the host actually runs."""
        for finding in tiny_scan_study.report.findings.values():
            host = tiny_scan_study.internet.host_at(finding.ip)
            actual = {instance.slug for instance in host.apps()}
            assert set(finding.observations) <= actual

    def test_every_awe_host_found(self, tiny_scan_study):
        """Stage II must not lose hosts that run an in-scope app."""
        in_scope = {p.slug for p in PAPER_PREVALENCE}
        expected = {
            host.ip.value
            for host in tiny_scan_study.internet.awe_hosts()
            if any(i.slug in in_scope for i in host.apps())
        }
        assert expected <= set(tiny_scan_study.report.findings)

    def test_fingerprint_versions_match_ground_truth(self, tiny_scan_study):
        checked = 0
        for observation in tiny_scan_study.report.observations():
            if observation.fingerprint is None:
                continue
            host = tiny_scan_study.internet.host_at(observation.ip)
            app = host.app_instance(observation.slug)
            if app is None:
                continue
            assert app.version == observation.fingerprint.version
            checked += 1
        assert checked > 50

    def test_most_hosts_fingerprinted(self, tiny_scan_study):
        observations = tiny_scan_study.report.observations()
        fingerprinted = sum(1 for o in observations if o.fingerprint)
        assert fingerprinted / len(observations) > 0.9


class TestCalibratedCounts:
    """With vuln_rate=1.0 the pipeline reproduces Table 3's MAV column."""

    def test_total_is_4221(self, calibrated_scan_study):
        assert len(calibrated_scan_study.report.vulnerable_ips()) == 4221

    def test_per_app_mavs_match_paper_exactly(self, calibrated_scan_study):
        mavs = calibrated_scan_study.report.mavs_per_app()
        for prevalence in PAPER_PREVALENCE:
            assert mavs.get(prevalence.slug, 0) == prevalence.mavs, prevalence.slug

    def test_docker_hadoop_nomad_majority_vulnerable(self, calibrated_scan_study):
        """Table 3: exposed Docker/Hadoop/Nomad are mostly vulnerable."""
        report = calibrated_scan_study.report
        mavs = report.mavs_per_app()
        census = calibrated_scan_study.census
        for slug in ("docker", "hadoop", "nomad"):
            # Weighted host estimate vs raw MAV count.
            weighted = sum(
                census.weight_of(f.ip)
                for f in report.findings.values()
                if slug in f.observations
            )
            assert mavs[slug] / weighted > 0.5, slug

    def test_cms_mav_share_is_negligible(self, calibrated_scan_study):
        report = calibrated_scan_study.report
        census = calibrated_scan_study.census
        weighted = sum(
            census.weight_of(f.ip)
            for f in report.findings.values()
            if "wordpress" in f.observations
        )
        assert report.mavs_per_app()["wordpress"] / weighted < 0.01


class TestEthics:
    def test_pipeline_never_posts(self, tiny_scan_study):
        # The transport enforces this; reaching here means no violation
        # was raised during the session-scoped scan.  Double-check the
        # enforcement flag is on.
        assert tiny_scan_study.transport.enforce_ethics

    def test_request_volume_bounded_per_host(self, pipeline_factory):
        """No single host sees an excessive number of requests in one
        sweep (a fresh pipeline, so observer re-scans don't pollute the
        accounting)."""
        from repro.net.population import PopulationModel, generate_internet

        internet, _geo, _census = generate_internet(
            PopulationModel(awe_rate=0.001, vuln_rate=0.02,
                            background_rate=1e-7, seed=99)
        )
        pipeline = pipeline_factory(internet, fingerprint=True)
        pipeline.run(internet.populated_addresses())
        per_24 = pipeline.transport.stats.requests_per_slash24
        assert max(per_24.values()) < 60  # prefilter+plugins+fingerprint


class TestPrefilterAblation:
    """``use_prefilter=False`` runs the same batch step with a different
    per-host stage II: same detections, strictly more stage-III work, and
    books that still balance — sequentially and sharded."""

    @pytest.fixture(scope="class")
    def internet(self):
        from repro.net.population import PopulationModel, generate_internet

        internet, _geo, _census = generate_internet(
            PopulationModel(awe_rate=0.0005, vuln_rate=0.2,
                            background_rate=2e-7, seed=17)
        )
        return internet

    @staticmethod
    def sweep(internet, **kwargs):
        from repro.apps.catalog import scanned_ports
        from repro.core.pipeline import ScanPipeline
        from repro.net.transport import InMemoryTransport

        pipeline = ScanPipeline(
            InMemoryTransport(internet), scanned_ports(), fingerprint=False,
            batch_size=64, **kwargs,
        )
        return pipeline.run(internet.populated_addresses()), pipeline

    @staticmethod
    def plugin_runs(pipeline):
        return sum(
            value
            for name, _, value in pipeline.telemetry.metrics.snapshot_state()["counters"]
            if name == "plugin_verdicts_total"
        )

    @pytest.mark.parametrize("workers", [None, 2])
    def test_same_detections_more_plugin_work_books_balance(
        self, internet, workers
    ):
        filtered, plain = self.sweep(internet, workers=workers)
        ablated, pipeline = self.sweep(
            internet, workers=workers, use_prefilter=False
        )
        assert filtered.vulnerable_ips()
        assert {ip.value for ip in ablated.vulnerable_ips()} == {
            ip.value for ip in filtered.vulnerable_ips()
        }
        assert self.plugin_runs(pipeline) > self.plugin_runs(plain)
        if workers is None:
            assert pipeline.engine.stats.plugins_run == self.plugin_runs(pipeline)
        for report, swept in ((filtered, plain), (ablated, pipeline)):
            report.coverage.reconcile(report)
            value = swept.telemetry.metrics.counter_value
            for stage, ledger in report.coverage.stages.items():
                funnel = {"stage": stage, "name": "funnel_hosts_total"}
                assert value(**funnel, flow="in") == ledger.entered
                assert value(**funnel, flow="out") == ledger.completed
        # Ablation hands every responsive host to stage III.
        assert ablated.total_awe_hosts() > filtered.total_awe_hosts()

    @pytest.mark.parametrize("retry", [False, True], ids=["plain", "retry"])
    def test_a_second_run_reports_itself_alone(self, internet, retry):
        """One pipeline run twice: the second report's coverage, response
        tallies and retry stats are its own run's, so its books reconcile,
        its sweep-complete event counts its vulnerable hosts, its tallies
        are the first run's (same world, same answers), and the two runs'
        retry operations add up to the registry's."""
        from repro.core.retry import RetryPolicy

        first, pipeline = self.sweep(
            internet, retry_policy=RetryPolicy() if retry else None
        )
        second = pipeline.run(internet.populated_addresses())
        operations = pipeline.telemetry.metrics.counter_value(
            "retry_operations_total", kind="call"
        )
        assert (
            first.retry_stats.operations + second.retry_stats.operations
            == operations
        )
        assert bool(second.retry_stats.operations) == retry
        second.coverage.reconcile(second)
        assert second.coverage == first.coverage
        assert second.http_responses == first.http_responses
        assert second.https_responses == first.https_responses
        events = pipeline.telemetry.events.select("pipeline", "sweep-complete")
        assert [dict(event.fields)["mav_hosts"] for event in events] == [
            len(first.vulnerable_ips()), len(second.vulnerable_ips()),
        ]
        assert second.vulnerable_ips()


class TestOptionsRefusedAtConstruction:
    """A bad value is refused by ``ScanPipeline`` itself, before a sweep
    has emitted an event or opened a span: a sequential sweep used to
    reach ``Masscan.scan_in_batches`` with ``batch_size=0`` after its
    ``sweep-start``, and to ignore an unknown ``executor``."""

    @pytest.mark.parametrize("option", [
        {"batch_size": 0}, {"workers": 0}, {"shard_blocks": 0},
        {"executor": "gpu"},
    ], ids=["batch_size", "workers", "shard_blocks", "executor"])
    def test_a_bad_value_raises_before_any_event(self, option):
        from repro.apps.catalog import scanned_ports
        from repro.core.pipeline import ScanPipeline
        from repro.net.network import SimulatedInternet
        from repro.net.transport import InMemoryTransport
        from repro.obs.telemetry import Telemetry

        telemetry = Telemetry()
        with pytest.raises(ValueError, match=next(iter(option))):
            ScanPipeline(
                InMemoryTransport(SimulatedInternet()), scanned_ports(),
                telemetry=telemetry, **option,
            )
        assert len(telemetry.events) == 0
        assert telemetry.tracer.active is None


class TestAPassedKnowledgeBase:
    """A knowledge base passed in is the one the fingerprinter hashes
    against, even an empty one (whose ``len`` is 0, so it is falsy): it
    matches no file, so no version comes from a hash match — sequentially
    and sharded.  Without one the default knowledge base is built."""

    @pytest.fixture(scope="class")
    def internet(self):
        from repro.net.population import PopulationModel, generate_internet

        internet, _geo, _census = generate_internet(
            PopulationModel(awe_rate=0.0005, vuln_rate=0.2,
                            background_rate=2e-7, seed=17)
        )
        return internet

    @staticmethod
    def hash_matches(internet, **kwargs) -> int:
        from repro.apps.catalog import scanned_ports
        from repro.core.fingerprint.fingerprinter import FingerprintMethod
        from repro.core.pipeline import ScanPipeline
        from repro.net.transport import InMemoryTransport

        report = ScanPipeline(
            InMemoryTransport(internet), scanned_ports(), batch_size=64,
            **kwargs,
        ).run(internet.populated_addresses())
        assert report.observations()
        return sum(
            1 for o in report.observations()
            if o.fingerprint is not None
            and o.fingerprint.method is FingerprintMethod.HASH_MATCH
        )

    def test_without_one_the_default_is_built(self, internet):
        assert self.hash_matches(internet) > 0

    @pytest.mark.parametrize("workers", [None, 1])
    def test_an_empty_one_is_the_one_used(self, internet, workers):
        from repro.core.fingerprint.knowledge_base import KnowledgeBase

        assert self.hash_matches(
            internet, knowledge_base=KnowledgeBase(), workers=workers
        ) == 0
