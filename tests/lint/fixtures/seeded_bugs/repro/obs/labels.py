"""Seeded metric-name bug (OBS001) beside its near miss."""


def charge(registry, slug):
    registry.counter(f"verdicts_{slug}_total").inc()  # seeded: OBS001
    registry.counter("verdicts_total", plugin=slug).inc()  # near miss: OBS001
