"""Tests for the longevity observation log and survival series."""

import pytest

from repro.analysis.longevity import (
    HostStatus,
    LongevitySeries,
    ObservationLog,
    ObservedHost,
)
from repro.util.clock import DAY, HOUR


@pytest.fixture()
def small_log():
    log = ObservationLog()
    log.register_host(ObservedHost(1, "hadoop", True))
    log.register_host(ObservedHost(2, "wordpress", True))
    log.register_host(ObservedHost(3, "jupyterlab", False))
    log.record_sweep(0.0, {
        1: HostStatus.VULNERABLE, 2: HostStatus.VULNERABLE, 3: HostStatus.VULNERABLE,
    })
    log.record_sweep(3 * HOUR, {
        1: HostStatus.VULNERABLE, 2: HostStatus.FIXED, 3: HostStatus.VULNERABLE,
    })
    log.record_sweep(6 * HOUR, {
        1: HostStatus.OFFLINE, 2: HostStatus.FIXED, 3: HostStatus.VULNERABLE,
    })
    return log


class TestObservationLog:
    def test_sweep_must_cover_all_hosts(self, small_log):
        with pytest.raises(ValueError):
            small_log.record_sweep(9 * HOUR, {1: HostStatus.OFFLINE})

    def test_final_counts(self, small_log):
        counts = small_log.final_counts()
        assert counts[HostStatus.VULNERABLE] == 1
        assert counts[HostStatus.FIXED] == 1
        assert counts[HostStatus.OFFLINE] == 1

    def test_status_fraction(self, small_log):
        assert small_log.status_fraction(0.0, HostStatus.VULNERABLE) == 1.0
        assert small_log.status_fraction(6 * HOUR, HostStatus.VULNERABLE) == pytest.approx(1 / 3)

    def test_subset_by_default(self, small_log):
        assert small_log.subset_by_default(True) == {1, 2}
        assert small_log.subset_by_default(False) == {3}

    def test_series(self, small_log):
        series = small_log.series(HostStatus.FIXED)
        assert series.points == [
            (0.0, 0.0),
            (3 * HOUR, pytest.approx(1 / 3)),
            (6 * HOUR, pytest.approx(1 / 3)),
        ]

    def test_still_vulnerable_after(self, small_log):
        assert small_log.still_vulnerable_after(3 * HOUR) == pytest.approx(2 / 3)
        # Beyond the last sweep, the last sweep's value is used.
        assert small_log.still_vulnerable_after(5 * DAY) == pytest.approx(1 / 3)

    def test_mean_vulnerable_duration_by_app(self, small_log):
        durations = small_log.mean_vulnerable_duration_by_app()
        # hadoop vulnerable in 2 sweeps, wordpress in 1, jupyterlab in 3.
        assert durations["jupyterlab"] > durations["hadoop"] > durations["wordpress"]


class TestLongevitySeries:
    def test_at_interpolates_stepwise(self):
        series = LongevitySeries(
            HostStatus.VULNERABLE, [(0.0, 1.0), (10.0, 0.5), (20.0, 0.2)]
        )
        assert series.at(5.0) == 1.0
        assert series.at(10.0) == 0.5
        assert series.at(99.0) == 0.2
        assert series.final() == 0.2

    def test_empty_series(self):
        series = LongevitySeries(HostStatus.FIXED, [])
        assert series.final() == 0.0
