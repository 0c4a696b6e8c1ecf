"""Stage III: the Tsunami-style plugin scanner.

A reimplementation of the design the paper open-sourced as the *Tsunami
security scanner*: an engine with an extensible plugin system where each
MAV verification logic is a dedicated plugin.  Here each plugin is one
row of :mod:`repro.core.tsunami.plugins`, the detection steps of the
paper's Table 10 (Appendix A) as data, run by one interpreter
(:class:`~repro.core.tsunami.plugin.Detection`).
"""

from repro.core.tsunami.plugin import (
    Detection,
    DetectionReport,
    PluginContext,
)
from repro.core.tsunami.engine import TsunamiEngine
from repro.core.tsunami.plugins import ALL_PLUGINS, plugin_for

__all__ = [
    "Detection",
    "DetectionReport",
    "PluginContext",
    "TsunamiEngine",
    "ALL_PLUGINS",
    "plugin_for",
]
