"""Tests for the 18 Tsunami MAV detection rows.

The contract per row: it reports on a vulnerable instance of its
application, stays silent on a secured instance, stays silent on every
*other* application, and never sends a state-changing request.
"""

import pytest

from repro.apps.base import AppInstance
from repro.apps.catalog import create_instance, in_scope_apps
from repro.core.tsunami.plugin import PluginContext
from repro.core.tsunami.plugins import ALL_PLUGINS, plugin_for
from repro.net.host import Host, Service
from repro.net.http import Scheme
from repro.net.ipv4 import IPv4Address
from repro.net.network import SimulatedInternet
from repro.net.transport import InMemoryTransport

IN_SCOPE = [spec.slug for spec in in_scope_apps()]


def make_context(app, port=80, scheme=Scheme.HTTP):
    internet = SimulatedInternet()
    ip = IPv4Address.parse("203.0.113.99")
    host = Host(ip)
    host.add_service(Service(port, frozenset({scheme}), app=AppInstance(app, port)))
    internet.add_host(host)
    transport = InMemoryTransport(internet)  # ethics enforced!
    return PluginContext(transport, ip, port, scheme)


class TestRegistry:
    def test_one_plugin_per_in_scope_app(self):
        assert {p.slug for p in ALL_PLUGINS} == set(IN_SCOPE)
        assert len(ALL_PLUGINS) == 18

    def test_plugin_for_unknown(self):
        assert plugin_for("ghost") is None


class TestDetection:
    @pytest.mark.parametrize("slug", IN_SCOPE)
    def test_detects_vulnerable_instance(self, slug):
        app = create_instance(slug, vulnerable=True)
        context = make_context(app)
        report = plugin_for(slug).detect(context)
        assert report is not None
        assert report.slug == slug

    @pytest.mark.parametrize("slug", [s for s in IN_SCOPE if s != "polynote"])
    def test_silent_on_secured_instance(self, slug):
        app = create_instance(slug)
        context = make_context(app)
        assert plugin_for(slug).detect(context) is None

    @pytest.mark.parametrize("slug", IN_SCOPE)
    def test_silent_on_dark_host(self, slug):
        transport = InMemoryTransport(SimulatedInternet())
        context = PluginContext(
            transport, IPv4Address.parse("203.0.113.98"), 80, Scheme.HTTP
        )
        assert plugin_for(slug).detect(context) is None

    def test_cross_application_silence(self):
        """No plugin may fire on a different (vulnerable!) application."""
        instances = {
            slug: create_instance(slug, vulnerable=True) for slug in IN_SCOPE
        }
        for target_slug, app in instances.items():
            context = make_context(app)
            for plugin in ALL_PLUGINS:
                if plugin.slug == target_slug:
                    continue
                assert plugin.detect(context) is None, (
                    f"{plugin.slug} plugin fired on {target_slug}"
                )

    @pytest.mark.parametrize("slug", IN_SCOPE)
    def test_only_get_requests(self, slug):
        """Ethics: transport enforcement would raise on any POST."""
        app = create_instance(slug, vulnerable=True)
        context = make_context(app)
        plugin_for(slug).detect(context)  # would raise EthicsViolation


class TestSpecificBehaviours:
    def test_consul_exposed_but_hardened_not_flagged(self):
        """Exposure alone is not the Consul MAV: script checks must be on."""
        app = create_instance("consul")  # agent API is exposed by default
        context = make_context(app, port=8500)
        assert plugin_for("consul").detect(context) is None

    def test_consul_remote_script_checks_also_flagged(self):
        from repro.apps.cluster import Consul

        app = Consul("1.9", {"enable_remote_script_checks": True})
        context = make_context(app, port=8500)
        report = plugin_for("consul").detect(context)
        assert report is not None
        assert "Remote" in report.details

    def test_jupyter_plugins_distinguish_lab_and_notebook(self):
        lab = create_instance("jupyterlab", vulnerable=True)
        context = make_context(lab, port=8888)
        assert plugin_for("jupyterlab").detect(context) is not None
        assert plugin_for("jupyter-notebook").detect(context) is None

    def test_wordpress_half_installed_page_not_flagged(self):
        """An installed blog that merely links install.php is not a MAV."""
        app = create_instance("wordpress")
        context = make_context(app)
        assert plugin_for("wordpress").detect(context) is None

    def test_drupal_detection_spans_markup_variants(self):
        for version in ("8.6", "9.1"):
            app = create_instance("drupal", version=version, vulnerable=True)
            context = make_context(app)
            assert plugin_for("drupal").detect(context) is not None, version

    def test_adminer_plugin_needs_old_version(self):
        from repro.apps.panels import Adminer

        new = Adminer("4.8", {"root_password_empty": True})
        context = make_context(new)
        assert plugin_for("adminer").detect(context) is None

    def test_report_str(self):
        app = create_instance("polynote")
        context = make_context(app, port=8192)
        report = plugin_for("polynote").detect(context)
        assert "polynote" in str(report)


class TestEngine:
    def test_runs_only_candidate_plugins(self):
        from repro.core.tsunami.engine import TsunamiEngine

        app = create_instance("docker", vulnerable=True)
        internet = SimulatedInternet()
        ip = IPv4Address.parse("203.0.113.97")
        host = Host(ip)
        host.add_service(Service(2375, app=AppInstance(app, 2375)))
        internet.add_host(host)
        engine = TsunamiEngine(InMemoryTransport(internet))
        reports = engine.scan_target(ip, 2375, Scheme.HTTP, ("docker",))
        assert [r.slug for r in reports] == ["docker"]
        assert engine.stats.plugins_run == 1
        assert engine.stats.runs_per_plugin == {"docker": 1}

    def test_unknown_candidates_ignored(self):
        from repro.core.tsunami.engine import TsunamiEngine

        engine = TsunamiEngine(InMemoryTransport(SimulatedInternet()))
        assert engine.scan_target(
            IPv4Address(5), 80, Scheme.HTTP, ("ghost", "nonsense")
        ) == []

    def test_crashing_plugin_is_contained(self):
        from repro.core.tsunami.engine import TsunamiEngine

        class Broken:
            slug = "broken"
            title = "A check with a bug"

            def detect(self, context):
                raise RuntimeError("boom")

        app = create_instance("polynote")
        internet = SimulatedInternet()
        ip = IPv4Address.parse("203.0.113.96")
        host = Host(ip)
        host.add_service(Service(8192, app=AppInstance(app, 8192)))
        internet.add_host(host)
        engine = TsunamiEngine(
            InMemoryTransport(internet),
            plugins=(Broken(), plugin_for("polynote")),
        )
        reports = engine.scan_target(ip, 8192, Scheme.HTTP, ("broken", "polynote"))
        assert [r.slug for r in reports] == ["polynote"]
        assert engine.stats.plugin_errors == 1
