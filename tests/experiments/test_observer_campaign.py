"""Figure 2 as a view over the longevity campaign's reports."""

import hashlib
import json
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.analysis.longevity import HostStatus, ObservationLog, ObservedHost
from repro.apps.catalog import scanned_ports
from repro.core.pipeline import AppObservation, HostFinding, ScanPipeline, ScanReport
from repro.core.serialize import report_to_dict
from repro.experiments import longevity, observe
from repro.experiments.config import StudyConfig
from repro.experiments.full_study import FullStudy
from repro.experiments.observe import run_observer_study
from repro.experiments.scan import run_scan_study
from repro.net.http import Scheme
from repro.net.ipv4 import IPv4Address
from repro.net.lifecycle import Churn, Deployment, Fate, FateKind
from repro.net.transport import InMemoryTransport
from repro.util.errors import VerificationError


def _digest(report) -> str:
    text = json.dumps(report_to_dict(report), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


class TestFigure2Path:
    def test_the_scan_study_is_left_as_scanned(self, tiny_scan_study, observer_study):
        """The campaign plays the fates out in a world of its own: a fresh
        sweep of the scan study's internet still equals its report."""
        config = tiny_scan_study.config
        again = ScanPipeline(
            InMemoryTransport(tiny_scan_study.internet), scanned_ports(),
            seed=config.seed, fingerprint=config.fingerprint,
        ).run(tiny_scan_study.internet.populated_addresses())
        assert _digest(again) == _digest(tiny_scan_study.report)

    def test_baseline_and_last_tick_are_oracle_verified(
        self, tiny_scan_study, monkeypatch
    ):
        campaigns = []

        def spy(*args, **kwargs):
            campaigns.append(longevity.run_campaign(*args, **kwargs))
            return campaigns[-1]

        monkeypatch.setattr(observe, "run_campaign", spy)
        observer = run_observer_study(tiny_scan_study)
        (campaign, observed), = campaigns
        assert observed is observer
        assert campaign.baseline_cost.verified and campaign.sweeps[-1].verified
        assert [s.index for s in campaign.sweeps if s.verified] == [32, 56]
        assert len(campaign.frame) == len(observer.log.hosts)

    def test_an_unhinted_change_fails_verification(self, tiny_scan_study, monkeypatch):
        advance = Deployment.advance

        def silent(self, now):
            advance(self, now)
            return Churn.NONE

        monkeypatch.setattr(Deployment, "advance", silent)
        with pytest.raises(VerificationError):
            run_observer_study(tiny_scan_study)


class TestClassification:
    IP = IPv4Address.parse("93.184.90.20")

    def observed(self, report):
        host = type("Watched", (), {"ip": self.IP})
        deployment = Deployment(host, "jenkins", Fate(FateKind.VULNERABLE, None, None))
        return longevity._observed(report, deployment)

    def report(self, slug, vulnerable):
        finding = HostFinding(self.IP, {
            slug: AppObservation(self.IP, slug, 8080, Scheme.HTTP, vulnerable)
        })
        return ScanReport(findings={self.IP.value: finding})

    def test_no_finding_is_offline(self):
        assert self.observed(ScanReport()) == (HostStatus.OFFLINE, None)

    def test_the_plugin_firing_is_vulnerable(self):
        assert self.observed(self.report("jenkins", True))[0] is HostStatus.VULNERABLE

    def test_a_silent_plugin_is_fixed(self):
        assert self.observed(self.report("jenkins", False))[0] is HostStatus.FIXED

    def test_answering_without_the_watched_app_is_fixed(self):
        assert self.observed(self.report("grav", False)) == (HostStatus.FIXED, None)


class TestHeadline:
    def test_still_vulnerable_reads_the_vulnerable_count(self):
        """Whatever order ``final_counts`` lists the statuses in."""
        log = ObservationLog()
        for ip in (1, 2, 3, 4):
            log.register_host(ObservedHost(ip, "docker", True))
        log.record_sweep(0.0, {
            1: HostStatus.OFFLINE, 2: HostStatus.OFFLINE,
            3: HostStatus.OFFLINE, 4: HostStatus.VULNERABLE,
        })

        class FirstSeenOrder(longevity.ObserverStudy):
            def final_counts(self):
                return Counter(self.log.sweeps[0.0].values())

        stub = SimpleNamespace(
            total_mavs=lambda: 0, attacks=(), attacked_applications=lambda: (),
            top_share=lambda n: 0.0, runs={},
        )
        study = FullStudy(
            config=None, scan=stub, observer=FirstSeenOrder(log, 1, 0),
            honeypots=stub, defenders=stub,
        )
        expected = log.status_fraction(0.0, HostStatus.VULNERABLE)
        assert study._headline_numbers().endswith(f">50% -> {100 * expected:.0f}%")


# -- the observation log pinned to the parent commit ------------------------------

#: What commit 5ae2a30 — the last commit whose observer walked the stages
#: itself (``_classify``: one SYN probe, one GET and one ``plugin.detect``
#: per watched host per tick, outside the pipeline) — observed.  The bands
#: in ``TestObserverStudy`` and ``benchmarks/test_figure2.py`` would stay
#: green if every curve moved two points; this does not.  Regenerate (only
#: ever from that commit) with
#: ``PYTHONPATH=src python tests/experiments/test_observer_campaign.py``.
PARENT_LOG = Path(__file__).parent / "fixtures" / "observation_log_5ae2a30.json"

PINNED_CONFIGS = {
    "tiny": StudyConfig.tiny(),
    "tiny-seed-7": StudyConfig.tiny().with_seed(7),
}


def observation_summary(observer) -> dict:
    log = observer.log
    triples = sorted(
        (time, ip, status.value)
        for time, sweep in log.sweeps.items()
        for ip, status in sweep.items()
    )
    return {
        "cells": len(triples),
        "triples_sha256": hashlib.sha256(json.dumps(triples).encode()).hexdigest(),
        "final_counts": {
            status.value: count for status, count in observer.final_counts().items()
        },
        "sweep_count": observer.sweep_count,
        "version_updates": observer.version_updates,
        "observed_version_updates": observer.observed_version_updates,
        "figure2": observer.figure2().render(),
    }


class TestPinnedToParent:
    @pytest.fixture(scope="class")
    def parent(self):
        return json.loads(PARENT_LOG.read_text())

    def test_the_fixture_covers_every_config(self, parent):
        assert set(parent) == set(PINNED_CONFIGS)

    def test_tiny_reproduces_the_parent(self, observer_study, parent):
        assert observation_summary(observer_study) == parent["tiny"]

    def test_second_seed_reproduces_the_parent(self, parent):
        observer = run_observer_study(run_scan_study(PINNED_CONFIGS["tiny-seed-7"]))
        assert observation_summary(observer) == parent["tiny-seed-7"]


if __name__ == "__main__":
    PARENT_LOG.parent.mkdir(exist_ok=True)
    PARENT_LOG.write_text(json.dumps({
        name: observation_summary(run_observer_study(run_scan_study(config)))
        for name, config in PINNED_CONFIGS.items()
    }, indent=1, sort_keys=True) + "\n")
