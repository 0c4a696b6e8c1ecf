"""Tests for the host churn model against the paper's RQ3 calibration."""

import random

from repro.apps.base import AppInstance
from repro.apps.catalog import create_instance
from repro.apps.versions import RELEASE_DB
from repro.core.tsunami.plugin import PluginContext
from repro.core.tsunami.plugins import plugin_for
from repro.net.host import Host, Service
from repro.net.http import Scheme
from repro.net.ipv4 import IPv4Address
from repro.net.lifecycle import (
    APP_HAZARD,
    Churn,
    Deployment,
    Fate,
    FateKind,
    LifecycleModel,
)
from repro.net.network import SimulatedInternet
from repro.net.transport import InMemoryTransport
from repro.util.clock import HOUR, WEEK


def _sample_fates(slug: str, version: str, n: int = 4000, seed: int = 3):
    model = LifecycleModel()
    rng = random.Random(seed)
    return model, [model.fate_for(rng, slug, version) for _ in range(n)]


class TestFate:
    def test_state_before_exit_is_vulnerable(self):
        fate = Fate(FateKind.OFFLINE, exit_time=10.0, update_time=None)
        assert fate.state_at(5.0) is FateKind.VULNERABLE
        assert fate.state_at(15.0) is FateKind.OFFLINE

    def test_survivor_never_exits(self):
        fate = Fate(FateKind.VULNERABLE, exit_time=None, update_time=None)
        assert fate.state_at(10 * WEEK) is FateKind.VULNERABLE


class TestCalibration:
    def test_over_half_survive_four_weeks(self):
        _model, fates = _sample_fates("docker", "20.10")
        survivors = sum(
            1 for f in fates if f.state_at(4 * WEEK) is FateKind.VULNERABLE
        )
        assert 0.45 < survivors / len(fates) < 0.70

    def test_roughly_ten_percent_gone_within_six_hours(self):
        # Aggregate over a default-insecure app, like most of the population.
        _model, fates = _sample_fates("hadoop", "3.2.1")
        early = sum(
            1 for f in fates if f.state_at(6 * HOUR) is not FateKind.VULNERABLE
        )
        assert 0.06 < early / len(fates) < 0.16

    def test_fixes_are_rare(self):
        _model, fates = _sample_fates("nomad", "1.0")
        fixed = sum(1 for f in fates if f.kind is FateKind.FIXED and
                    f.exit_time is not None and f.exit_time <= 4 * WEEK)
        assert fixed / len(fates) < 0.10

    def test_cms_fixes_are_front_loaded(self):
        _model, fates = _sample_fates("wordpress", "5.7")
        fix_times = [
            f.exit_time for f in fates
            if f.kind is FateKind.FIXED and f.exit_time is not None
        ]
        assert fix_times, "expected some CMS fixes"
        median = sorted(fix_times)[len(fix_times) // 2]
        assert median < 1 * WEEK  # installation completions cluster early

    def test_notebooks_outlive_ci(self):
        _model, nb = _sample_fates("jupyter-notebook", "4.2")
        _model, ci = _sample_fates("jenkins", "1.9", seed=3)
        nb_survive = sum(
            1 for f in nb if f.state_at(4 * WEEK) is FateKind.VULNERABLE
        ) / len(nb)
        ci_survive = sum(
            1 for f in ci if f.state_at(4 * WEEK) is FateKind.VULNERABLE
        ) / len(ci)
        assert nb_survive > ci_survive

    def test_joomla_and_drupal_linger_longest(self):
        assert APP_HAZARD["joomla"] < APP_HAZARD["jenkins"]
        assert APP_HAZARD["drupal"] < APP_HAZARD["wordpress"]

    def test_insecure_default_exits_faster_early(self):
        model = LifecycleModel()
        rng_a, rng_b = random.Random(1), random.Random(1)
        # hadoop (insecure default) vs kubernetes (explicit misconfig)
        hadoop = [model.fate_for(rng_a, "hadoop", "3.2.1") for _ in range(4000)]
        k8s = [model.fate_for(rng_b, "kubernetes", "1.20") for _ in range(4000)]
        early_hadoop = sum(
            1 for f in hadoop if f.exit_time is not None and f.exit_time <= 6 * HOUR
        )
        early_k8s = sum(
            1 for f in k8s if f.exit_time is not None and f.exit_time <= 6 * HOUR
        )
        assert early_hadoop > early_k8s

    def test_update_probability(self):
        _model, fates = _sample_fates("consul", "1.9")
        updates = sum(1 for f in fates if f.update_time is not None)
        # Paper: 2.4% updated during the four weeks.
        assert 0.01 < updates / len(fates) < 0.05

    def test_plan_draws_in_the_order_given(self):
        watched = [
            (_vulnerable_host("docker", "20.10", 2375, last_octet=i), "docker")
            for i in (9, 3, 7)
        ]
        planned = LifecycleModel().plan(random.Random(0), watched)
        assert [d.host for d in planned] == [host for host, _ in watched]
        rng = random.Random(0)
        assert [d.fate for d in planned] == [
            LifecycleModel().fate_for(rng, "docker", "20.10") for _ in watched
        ]


def _vulnerable_host(slug, version, port, last_octet=20):
    host = Host(IPv4Address.parse(f"93.184.90.{last_octet}"))
    app = create_instance(slug, version, vulnerable=True)
    host.add_service(Service(port, app=AppInstance(app, port)))
    return host


def _deployment(slug, version, port, kind, exit_time=None, update_time=None):
    host = _vulnerable_host(slug, version, port)
    return Deployment(host, slug, Fate(kind, exit_time, update_time))


def _plugin_fires(deployment, port):
    internet = SimulatedInternet()
    internet.add_host(deployment.host)
    context = PluginContext(
        InMemoryTransport(internet), deployment.host.ip, port, Scheme.HTTP
    )
    return plugin_for(deployment.slug).detect(context) is not None


class TestLifecycleStep:
    """``Deployment.advance``: the one place an owner touches a host."""

    def test_update_before_exit_bumps_the_version_once(self):
        deployment = _deployment(
            "jenkins", "2.0", 8080, FateKind.OFFLINE,
            exit_time=10 * HOUR, update_time=2 * HOUR,
        )
        app = deployment.host.app_instance("jenkins")
        following = RELEASE_DB.next_release_after(
            "jenkins", RELEASE_DB.release_date("jenkins", "2.0")
        ).version
        assert deployment.advance(1 * HOUR) is Churn.NONE
        assert deployment.advance(3 * HOUR) is Churn.UPDATED
        assert Churn.UPDATED & Churn.CONTENT
        assert app.version == following
        assert deployment.advance(6 * HOUR) is Churn.NONE
        assert app.version == following

    def test_update_due_on_an_offline_host_changes_nothing(self):
        deployment = _deployment(
            "jenkins", "2.0", 8080, FateKind.OFFLINE,
            exit_time=1 * HOUR, update_time=2 * HOUR,
        )
        assert deployment.advance(1 * HOUR) is Churn.OFFLINE
        assert deployment.advance(3 * HOUR) is Churn.NONE
        assert deployment.host.app_instance("jenkins").version == "2.0"

    def test_offline_exit_is_port_churn(self):
        deployment = _deployment(
            "docker", "20.10", 2375, FateKind.OFFLINE, exit_time=5 * HOUR
        )
        assert deployment.advance(4 * HOUR) is Churn.NONE
        assert deployment.host.online
        changed = deployment.advance(6 * HOUR)
        assert changed is Churn.OFFLINE and not changed & Churn.CONTENT
        assert not deployment.host.online

    def test_fixed_exit_secures_the_app_and_silences_the_plugin(self):
        deployment = _deployment(
            "jenkins", "2.0", 8080, FateKind.FIXED, exit_time=5 * HOUR
        )
        assert _plugin_fires(deployment, 8080)
        changed = deployment.advance(6 * HOUR)
        assert changed is Churn.SECURED and changed & Churn.CONTENT
        assert deployment.host.online
        assert not deployment.host.app_instance("jenkins").is_vulnerable()
        assert not _plugin_fires(deployment, 8080)

    def test_fixed_exit_without_an_auth_knob_goes_offline(self):
        deployment = _deployment(
            "polynote", "0.4.0", 8192, FateKind.FIXED, exit_time=5 * HOUR
        )
        assert deployment.advance(6 * HOUR) is Churn.OFFLINE
        assert not deployment.host.online

    def test_the_same_now_twice_is_a_no_op(self):
        for kind, slug, version, port in (
            (FateKind.OFFLINE, "docker", "20.10", 2375),
            (FateKind.FIXED, "jenkins", "2.0", 8080),
            (FateKind.FIXED, "polynote", "0.4.0", 8192),
        ):
            deployment = _deployment(
                slug, version, port, kind,
                exit_time=5 * HOUR, update_time=1 * HOUR,
            )
            assert deployment.advance(6 * HOUR) is not Churn.NONE
            app = deployment.host.app_instance(slug)
            before = (deployment.host.online, app.version, dict(app.config))
            assert deployment.advance(6 * HOUR) is Churn.NONE
            assert (deployment.host.online, app.version, dict(app.config)) == before
