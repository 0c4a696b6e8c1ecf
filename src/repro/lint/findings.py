"""Finding records and the rule catalog.

Every analyzer emits :class:`Finding` values; reporters, the baseline
layer, and the telemetry counters all consume the same shape.  Findings
order and serialise deterministically — two lint runs over the same tree
must produce byte-identical reports (the subsystem audits that invariant
in others, so it holds itself to it).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class Severity(enum.Enum):
    """How bad a finding is; errors fail the run, the rest inform."""

    ERROR = "error"
    WARNING = "warning"
    INFO = "info"

    @property
    def rank(self) -> int:
        return {"error": 0, "warning": 1, "info": 2}[self.value]


#: rule id -> (severity, one-line description).  DESIGN.md §9's rule
#: catalog lists the same ids (``tests/lint/test_cli.py`` checks).
RULES: dict[str, tuple[Severity, str]] = {
    # -- cross-analyzer ------------------------------------------------------
    "LNT001": (Severity.ERROR,
               "source file cannot be parsed / audited at all"),
    # -- signature auditor ---------------------------------------------------
    "SIG001": (Severity.ERROR,
               "signature regex fails to compile"),
    "SIG002": (Severity.ERROR,
               "catastrophic-backtracking shape (nested unbounded "
               "quantifiers or ambiguous alternation under a repeat)"),
    "SIG003": (Severity.ERROR,
               "over-broad signature (can match the empty string or has "
               "no literal run of 4+ characters to anchor on)"),
    # -- determinism auditor ------------------------------------------------
    "DET001": (Severity.ERROR,
               "wall-clock read (time.time/monotonic/perf_counter, "
               "datetime.now/utcnow/today) breaks deterministic replay"),
    "DET002": (Severity.ERROR,
               "entropy source (os.urandom, uuid.uuid1/uuid4, secrets) "
               "breaks deterministic replay"),
    "DET003": (Severity.ERROR,
               "unseeded randomness (module-level random.* call or "
               "random.Random() without a seed)"),
    "DET004": (Severity.WARNING,
               "iteration over an unordered set expression can leak "
               "nondeterministic ordering into output"),
    "DET006": (Severity.ERROR,
               "unbounded loop (while True / while 1) with no structural "
               "bound; a hostile input can spin it forever — iterate a "
               "range, charge a deadline, or demand progress instead"),
    # -- metric names (the same per-module walk) ----------------------------
    "OBS001": (Severity.ERROR,
               "metric registered under a dynamically-built name "
               "(f-string, concatenation, %, or .format with non-constant "
               "parts); per-host values in metric names explode series "
               "cardinality — use a fixed name plus labels instead"),
}


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at one location.

    The natural ordering (path, line, rule, message) is the report
    order; it is independent of analyzer scheduling, so reports are
    reproducible byte for byte.
    """

    path: str          # posix path relative to the scanned root's parent
    line: int          # 1-based; 0 when the finding has no line anchor
    rule: str
    message: str

    @property
    def severity(self) -> Severity:
        return RULES[self.rule][0]

    def fingerprint(self) -> str:
        """Baseline identity: stable across unrelated line drift."""
        return f"{self.rule}:{self.path}:{self.message}"

    def to_dict(self) -> dict:
        return {
            "rule": self.rule,
            "severity": self.severity.value,
            "path": self.path,
            "line": self.line,
            "message": self.message,
        }

    def render(self) -> str:
        return f"{self.path}:{self.line}: {self.rule} [{self.severity.value}] {self.message}"


def sort_findings(findings: list[Finding]) -> list[Finding]:
    """Canonical report order, deduplicated."""
    return sorted(set(findings))
