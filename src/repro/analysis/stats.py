"""Statistical validation of the measured distributions.

The paper's claims are qualitative ("a small group of attackers performs
most attacks", "Hadoop is constantly attacked"); this module provides the
quantitative backing: concentration indices for the attacker volume
distribution and goodness-of-fit tests for attack arrival processes.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.attacks import Attack, AttackerCluster


def gini_coefficient(values: list[float]) -> float:
    """Gini index of a non-negative distribution (0 = equal, 1 = one
    actor owns everything).  Used on per-attacker attack counts."""
    cleaned = sorted(v for v in values if v >= 0)
    if not cleaned:
        raise ValueError("gini of empty distribution")
    total = sum(cleaned)
    if total == 0:
        return 0.0
    n = len(cleaned)
    cumulative = 0.0
    weighted = 0.0
    for index, value in enumerate(cleaned, start=1):
        cumulative += value
        weighted += cumulative
    # Standard formula: G = (n + 1 - 2 * sum(cum_i)/total) / n
    return (n + 1 - 2 * weighted / total) / n


def attacker_concentration(clusters: list[AttackerCluster]) -> float:
    """Gini of the per-attacker attack volumes."""
    return gini_coefficient([float(c.attack_count) for c in clusters])


def top_k_share(values: list[float], k: int) -> float:
    """Share of the total held by the k largest values."""
    if not values:
        return 0.0
    ordered = sorted(values, reverse=True)
    total = sum(ordered)
    return sum(ordered[:k]) / total if total else 0.0


@dataclass(frozen=True)
class ArrivalFit:
    """Exponential goodness-of-fit for inter-arrival times."""

    mean_gap: float
    ks_statistic: float
    p_value: float


def interarrival_fit(attacks: list[Attack], honeypot: str) -> ArrivalFit:
    """KS-test the honeypot's attack gaps against an exponential law.

    A near-Poisson arrival process is what "attackers regularly scan the
    IPv4 range" predicts for a heavily-targeted honeypot like Hadoop.
    """
    from scipy import stats

    times = sorted(a.start for a in attacks if a.honeypot == honeypot)
    gaps = [b - a for a, b in zip(times, times[1:]) if b > a]
    if len(gaps) < 8:
        raise ValueError(f"too few attacks on {honeypot} for a fit")
    mean_gap = sum(gaps) / len(gaps)
    statistic, p_value = stats.kstest(gaps, "expon", args=(0, mean_gap))
    return ArrivalFit(mean_gap=mean_gap, ks_statistic=float(statistic),
                      p_value=float(p_value))


def survival_halflife(points: list[tuple[float, float]]) -> float | None:
    """Time at which a survival curve first drops below 0.5, or None."""
    for when, fraction in points:
        if fraction < 0.5:
            return when
    return None
