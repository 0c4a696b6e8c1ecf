"""Shared fixtures.

The expensive artefacts (a generated Internet, a full scan, the honeypot
study) are session-scoped: tests treat them as read-only measurement
results, so sharing them is safe and keeps the suite fast.
"""

from __future__ import annotations

import pytest

from repro.apps.catalog import scanned_ports
from repro.core.fingerprint.knowledge_base import KnowledgeBase
from repro.core.pipeline import ScanPipeline
from repro.experiments.config import StudyConfig
from repro.experiments.defenders import run_defender_study
from repro.experiments.honeypots import run_honeypot_study
from repro.experiments.observe import run_observer_study
from repro.experiments.scan import run_scan_study
from repro.net.population import PopulationModel, generate_internet
from repro.net.transport import InMemoryTransport
from repro.obs.trace import Span


@pytest.fixture
def spans_built(monkeypatch) -> list[str]:
    """The name of every ``Span`` constructed while the test runs, in
    order: open handles and views alike.  The per-host span record is
    rows, so whatever scales with hosts must leave this list alone."""
    built: list[str] = []
    init = Span.__init__

    def counted(self, span_id, parent_id, name, *args, **kwargs):
        built.append(name)
        init(self, span_id, parent_id, name, *args, **kwargs)

    monkeypatch.setattr(Span, "__init__", counted)
    return built


@pytest.fixture
def kb_builds(monkeypatch) -> list[KnowledgeBase]:
    """Every ``KnowledgeBase`` constructed while the test runs.  A sweep
    reads its knowledge base and never writes it, so one is enough for
    any number of shards or re-scan ticks."""
    built: list[KnowledgeBase] = []
    init = KnowledgeBase.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(KnowledgeBase, "__init__", counted)
    return built


@pytest.fixture(scope="session")
def tiny_config() -> StudyConfig:
    return StudyConfig.tiny()


@pytest.fixture(scope="session")
def tiny_internet():
    """A small generated Internet: (internet, geo, census)."""
    return generate_internet(
        PopulationModel(awe_rate=0.002, vuln_rate=0.05, background_rate=2e-7)
    )


@pytest.fixture(scope="session")
def tiny_scan_study(tiny_config):
    """A full §3 scan at test scale."""
    return run_scan_study(tiny_config)


@pytest.fixture(scope="session")
def calibrated_scan_study():
    """A scan with vuln_rate=1.0: all 4,221 vulnerable hosts, no extras.

    Background and the sampled secure population are turned way down so
    the absolute MAV numbers can be compared with the paper's Table 3.
    """
    config = StudyConfig(
        population=PopulationModel(
            awe_rate=0.01, vuln_rate=1.0, background_rate=1e-7
        )
    )
    return run_scan_study(config)


@pytest.fixture(scope="session")
def observer_study(tiny_scan_study):
    return run_observer_study(tiny_scan_study)


@pytest.fixture(scope="session")
def honeypot_study(tiny_config):
    """The §4 study at full attack calibration (2,195 events)."""
    return run_honeypot_study(tiny_config)


@pytest.fixture(scope="session")
def defender_study():
    return run_defender_study()


@pytest.fixture()
def pipeline_factory():
    """Build a pipeline against any internet, without fingerprinting."""

    def factory(internet, fingerprint: bool = False, **kwargs) -> ScanPipeline:
        transport = InMemoryTransport(internet)
        return ScanPipeline(
            transport, scanned_ports(), fingerprint=fingerprint, **kwargs
        )

    return factory
