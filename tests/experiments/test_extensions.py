"""Tests for the §6.2 extension experiments: CT race, vhost
under-counting, and packet-loss robustness."""

import pytest

from repro.experiments.ct_race import CtRaceConfig, run_ct_race
from repro.experiments.vhosts import VhostStudyConfig, run_vhost_study
from repro.util.clock import HOUR, MINUTE


class TestCtRace:
    @pytest.fixture(scope="class")
    def result(self):
        return run_ct_race(CtRaceConfig(deployments=250))

    def test_every_deployment_logged(self, result):
        assert result.log_size == 250

    def test_ct_monitor_dominates_sweeper(self, result):
        assert result.ct.hijack_rate > 0.9
        assert result.sweep.hijack_rate < 0.6
        assert result.ct.hijack_rate > 2 * result.sweep.hijack_rate

    def test_ct_discovery_is_minutes_not_hours(self, result):
        assert result.ct.median_delay < 10 * MINUTE
        assert result.sweep.median_delay > 1 * HOUR

    def test_outcomes_cover_all_deployments(self, result):
        for outcome in (result.sweep, result.ct):
            assert outcome.hijacked + outcome.missed == 250

    def test_faster_sweep_closes_the_gap(self):
        slow = run_ct_race(CtRaceConfig(deployments=150, sweep_period=48 * HOUR))
        fast = run_ct_race(CtRaceConfig(deployments=150, sweep_period=2 * HOUR))
        assert fast.sweep.hijack_rate > slow.sweep.hijack_rate

    def test_slower_owners_help_both(self):
        quick = run_ct_race(
            CtRaceConfig(deployments=150, completion_mean=1 * HOUR)
        )
        slow = run_ct_race(
            CtRaceConfig(deployments=150, completion_mean=48 * HOUR)
        )
        assert slow.sweep.hijack_rate > quick.sweep.hijack_rate

    def test_table_renders(self, result):
        text = result.table().render()
        assert "ct-monitor" in text and "ipv4-sweep" in text

    def test_deterministic(self):
        a = run_ct_race(CtRaceConfig(deployments=80))
        b = run_ct_race(CtRaceConfig(deployments=80))
        assert a.ct.hijacked == b.ct.hijacked
        assert a.sweep.hijacked == b.sweep.hijacked


class TestVhostStudy:
    @pytest.fixture(scope="class")
    def result(self):
        return run_vhost_study(VhostStudyConfig())

    def test_ip_scan_undercounts(self, result):
        assert result.ip_scan_found < result.true_vulnerable_sites

    def test_domain_scan_recovers_everything(self, result):
        assert result.domain_scan_found == result.true_vulnerable_sites

    def test_undercount_factor_tracks_tenant_density(self):
        sparse = run_vhost_study(
            VhostStudyConfig(shared_hosts=80, tenants_per_host=2,
                             vulnerable_share=0.1)
        )
        dense = run_vhost_study(
            VhostStudyConfig(shared_hosts=80, tenants_per_host=16,
                             vulnerable_share=0.1)
        )
        assert dense.undercount_factor > sparse.undercount_factor

    def test_table_renders(self, result):
        assert "ip-scan (paper)" in result.table().render()


class TestVhostRouting:
    def test_host_header_selects_tenant(self):
        from repro.apps.base import AppInstance
        from repro.apps.catalog import create_instance
        from repro.net.host import Host, Service
        from repro.net.http import HttpRequest
        from repro.net.ipv4 import IPv4Address

        default = create_instance("wordpress")
        tenant = create_instance("wordpress", vulnerable=True)
        host = Host(IPv4Address.parse("93.184.216.85"))
        host.add_service(Service(
            80,
            app=AppInstance(default, 80),
            vhosts={"fresh.example": AppInstance(tenant, 80)},
        ))
        plain = host.exchange(80, __import__("repro.net.http", fromlist=["Scheme"]).Scheme.HTTP,
                              HttpRequest.get("/wp-admin/install.php"))
        assert "already installed" in plain.body
        named = host.exchange(
            80,
            __import__("repro.net.http", fromlist=["Scheme"]).Scheme.HTTP,
            HttpRequest("GET", "/wp-admin/install.php",
                        headers={"host": "fresh.example"}),
        )
        assert 'id="setup"' in named.body

    def test_unknown_host_header_falls_back_to_default(self):
        from repro.apps.base import AppInstance
        from repro.apps.catalog import create_instance
        from repro.net.host import Host, Service
        from repro.net.http import HttpRequest, Scheme
        from repro.net.ipv4 import IPv4Address

        host = Host(IPv4Address.parse("93.184.216.86"))
        host.add_service(Service(
            80,
            app=AppInstance(create_instance("wordpress"), 80),
            vhosts={"a.example": AppInstance(create_instance("grav"), 80)},
        ))
        response = host.exchange(
            80, Scheme.HTTP,
            HttpRequest("GET", "/", headers={"host": "nope.example"}),
        )
        assert "WordPress" in response.body

    def test_apps_includes_vhost_tenants(self):
        from repro.apps.base import AppInstance
        from repro.apps.catalog import create_instance
        from repro.net.host import Host, Service
        from repro.net.ipv4 import IPv4Address

        host = Host(IPv4Address.parse("93.184.216.87"))
        host.add_service(Service(
            80,
            app=AppInstance(create_instance("wordpress"), 80),
            vhosts={"a.example": AppInstance(
                create_instance("grav", vulnerable=True), 80)},
        ))
        assert {i.slug for i in host.apps()} == {"wordpress", "grav"}
        assert host.has_vulnerable_app()


class TestPacketLoss:
    def test_recall_degrades_monotonically_in_expectation(self):
        from repro.experiments.packet_loss import run_packet_loss_study
        from repro.net.population import PopulationModel, generate_internet

        internet, _geo, _census = generate_internet(
            PopulationModel(awe_rate=0.001, vuln_rate=0.05,
                            background_rate=1e-7, seed=3)
        )
        result = run_packet_loss_study(internet, loss_rates=(0.0, 0.1, 0.4))
        recalls = [point.recall for point in result.points]
        assert recalls[0] == 1.0
        assert recalls[0] > recalls[1] > recalls[2]
        assert result.table().render()


class TestRecallRecovery:
    @pytest.fixture(scope="class")
    def result(self):
        from repro.experiments.packet_loss import run_recall_recovery_study
        from repro.net.population import PopulationModel, generate_internet

        internet, _geo, _census = generate_internet(
            PopulationModel(
                awe_rate=0.001, vuln_rate=0.1, background_rate=1e-7, seed=5
            )
        )
        return run_recall_recovery_study(internet, fault_rates=(0.05, 0.15))

    def test_retries_win_back_recall(self, result):
        for point in result.points:
            assert point.recall_with_retry > point.recall_without_retry

    def test_bare_recall_decays_with_fault_rate(self, result):
        bare = [point.recall_without_retry for point in result.points]
        assert bare[0] > bare[1]

    def test_retry_work_is_reported(self, result):
        for point in result.points:
            assert point.retries > 0
            assert point.recovered > 0

    def test_table_renders(self, result):
        rendered = result.table().render()
        assert "Fault rate" in rendered
        assert "Recall (retry)" in rendered
