"""Extension experiments: pipeline recall under injected faults (§6.2).

Two studies share this module:

* :func:`run_packet_loss_study` — sweeps the same population with
  increasing injected loss and reports the recall of the MAV detections
  versus the loss-free baseline, putting a number on the paper's "our
  scanning results should be seen as a lower bound" for the
  transient-failure component;
* :func:`run_recall_recovery_study` — quantifies how much of that
  lower-bound gap is *closable*: under the same injected faults, a
  :class:`~repro.core.retry.RetryPolicy` (SYN re-sends, HTTP retries with
  seeded-jitter backoff, circuit breakers) wins most of the lost recall back.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.apps.catalog import scanned_ports
from repro.core.pipeline import ScanPipeline
from repro.core.retry import RetryPolicy
from repro.net.chaos import ChaosTransport, FaultPlan
from repro.net.network import SimulatedInternet
from repro.net.population import PopulationModel, generate_internet
from repro.net.transport import InMemoryTransport
from repro.util.clock import SimClock
from repro.util.tables import Table


@dataclass(frozen=True)
class LossPoint:
    loss_rate: float
    found: int
    baseline: int

    @property
    def recall(self) -> float:
        return self.found / self.baseline if self.baseline else 0.0


@dataclass
class PacketLossResult:
    points: list[LossPoint]

    def table(self) -> Table:
        table = Table(
            "Extension: MAV recall under injected packet loss",
            ("Loss rate", "MAVs found", "Recall"),
        )
        for point in self.points:
            table.add_row(
                f"{point.loss_rate:.0%}", point.found, f"{point.recall:.0%}"
            )
        return table


def run_packet_loss_study(
    internet: SimulatedInternet | None = None,
    loss_rates: tuple[float, ...] = (0.0, 0.01, 0.05, 0.10, 0.25),
    seed: int = 13,
) -> PacketLossResult:
    """Scan one population repeatedly under increasing loss."""
    if internet is None:
        internet, _geo, _census = generate_internet(
            PopulationModel(awe_rate=0.002, vuln_rate=0.1, background_rate=1e-7)
        )
    addresses = internet.populated_addresses()

    baseline_transport = InMemoryTransport(internet)
    baseline_pipeline = ScanPipeline(
        baseline_transport, scanned_ports(), fingerprint=False
    )
    baseline = len(baseline_pipeline.run(addresses).vulnerable_ips())

    points = []
    for loss in loss_rates:
        transport = ChaosTransport(
            InMemoryTransport(internet), FaultPlan.packet_loss(loss), seed=seed
        )
        pipeline = ScanPipeline(transport, scanned_ports(), fingerprint=False)
        found = len(pipeline.run(addresses).vulnerable_ips())
        points.append(LossPoint(loss, found, baseline))
    return PacketLossResult(points)


@dataclass(frozen=True)
class RecoveryPoint:
    """Recall with and without retries at one injected fault level."""

    fault_rate: float
    baseline: int
    found_without_retry: int
    found_with_retry: int
    retries: int
    recovered: int

    @property
    def recall_without_retry(self) -> float:
        return self.found_without_retry / self.baseline if self.baseline else 0.0

    @property
    def recall_with_retry(self) -> float:
        return self.found_with_retry / self.baseline if self.baseline else 0.0


@dataclass
class RecallRecoveryResult:
    points: list[RecoveryPoint]

    def table(self) -> Table:
        table = Table(
            "Extension: recall won back by retries under injected faults",
            ("Fault rate", "Recall (no retry)", "Recall (retry)",
             "Retries", "Recovered ops"),
        )
        for point in self.points:
            table.add_row(
                f"{point.fault_rate:.0%}",
                f"{point.recall_without_retry:.0%}",
                f"{point.recall_with_retry:.0%}",
                point.retries,
                point.recovered,
            )
        return table


def run_recall_recovery_study(
    internet: SimulatedInternet | None = None,
    fault_rates: tuple[float, ...] = (0.02, 0.05, 0.10),
    seed: int = 13,
    policy: RetryPolicy | None = None,
) -> RecallRecoveryResult:
    """Measure MAV recall with and without retries under chaos faults.

    Both arms see the *same* fault plan from the same seed; the only
    difference is the retry policy, so the recall delta is attributable
    to the resilience layer alone.
    """
    if internet is None:
        internet, _geo, _census = generate_internet(
            PopulationModel(awe_rate=0.002, vuln_rate=0.1, background_rate=1e-7)
        )
    addresses = internet.populated_addresses()
    if policy is None:
        policy = RetryPolicy(max_attempts=3, base_delay=0.5, max_delay=8.0)

    baseline_pipeline = ScanPipeline(
        InMemoryTransport(internet), scanned_ports(), fingerprint=False
    )
    baseline = len(baseline_pipeline.run(addresses).vulnerable_ips())

    points = []
    for rate in fault_rates:
        plan = FaultPlan(
            syn_loss=rate, request_loss=rate, reset_rate=rate / 2
        )

        bare = ScanPipeline(
            ChaosTransport(InMemoryTransport(internet), plan, seed=seed),
            scanned_ports(), fingerprint=False,
        )
        without_retry = len(bare.run(addresses).vulnerable_ips())

        clock = SimClock()
        resilient = ScanPipeline(
            ChaosTransport(
                InMemoryTransport(internet), plan, seed=seed, clock=clock
            ),
            scanned_ports(), fingerprint=False,
            retry_policy=policy, clock=clock,
        )
        report = resilient.run(addresses)
        points.append(
            RecoveryPoint(
                fault_rate=rate,
                baseline=baseline,
                found_without_retry=without_retry,
                found_with_retry=len(report.vulnerable_ips()),
                retries=report.retry_stats.retries,
                recovered=report.retry_stats.recovered,
            )
        )
    return RecallRecoveryResult(points)
