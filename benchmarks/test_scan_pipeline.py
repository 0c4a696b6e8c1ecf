"""Throughput benchmarks of the scanning pipeline itself.

Not a paper table, but the substrate every table depends on: how fast the
three stages sweep a population, and what each stage costs.
"""

import pytest

from repro.apps.catalog import scanned_ports
from repro.core.pipeline import ScanPipeline
from repro.experiments.config import StudyConfig
from repro.net.population import PopulationModel, generate_internet
from repro.net.transport import InMemoryTransport


@pytest.fixture(scope="module")
def midsize_internet():
    internet, _geo, _census = generate_internet(
        PopulationModel(awe_rate=0.002, vuln_rate=0.1, background_rate=1e-6)
    )
    return internet


def test_full_pipeline_sweep(benchmark, midsize_internet):
    def sweep():
        transport = InMemoryTransport(midsize_internet)
        pipeline = ScanPipeline(transport, scanned_ports(), fingerprint=True)
        return pipeline.run(midsize_internet.populated_addresses())

    report = benchmark.pedantic(sweep, rounds=1, iterations=1)
    assert report.total_awe_hosts() > 100
    assert len(report.vulnerable_ips()) > 100


def test_stage1_port_scan_only(benchmark, midsize_internet):
    from repro.core.masscan import Masscan

    addresses = midsize_internet.populated_addresses()

    def stage1():
        scanner = Masscan(InMemoryTransport(midsize_internet), scanned_ports())
        return scanner.scan(addresses)

    result = benchmark(stage1)
    assert result.open_ports
