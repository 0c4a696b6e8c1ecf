"""Observability auditor (``OBS*`` rules).

The metrics registry creates a series per ``(name, labels)`` pair and
keeps every series forever — the right design for a bounded name space
and exactly the wrong one for names built from data.  A metric named
with an f-string holding a host, port, or slug value mints a fresh
series per distinct value: the registry balloons, the Prometheus
exposition balloons with it, and cross-run diffs stop meaning anything.
The sanctioned pattern is a *constant* family name with the variability
in labels (``counter("plugin_verdicts_total", plugin=slug)``).

``OBS001`` flags every call to a registry factory method —
``.counter(...)``, ``.gauge(...)``, ``.histogram(...)`` — or to
``series_key(...)`` (the key a deferred writer counts under) whose name
argument is built dynamically:

* an f-string with at least one interpolated field;
* string concatenation or ``%`` formatting with a non-constant side;
* a ``.format(...)`` call on anything.

Constant names reaching the call through a plain variable
(``FUNNEL_METRIC``) are fine — the auditor only rejects expressions
that *construct* a string at the call site.
"""

from __future__ import annotations

import ast
from pathlib import Path

from repro.lint.findings import Finding

#: calls whose first argument is a metric family name: the registry
#: factory methods, and the key builder of ``MetricsRegistry.pending``
_FACTORY_METHODS = frozenset({"counter", "gauge", "histogram", "series_key"})


def _is_constant_str(node: ast.expr) -> bool:
    return isinstance(node, ast.Constant) and isinstance(node.value, str)


def _dynamic_name_reason(node: ast.expr) -> str | None:
    """Why this name expression is dynamically built, or ``None``."""
    if isinstance(node, ast.JoinedStr):
        if any(isinstance(v, ast.FormattedValue) for v in node.values):
            return "f-string with interpolated fields"
        return None  # f"constant" — odd but harmless
    if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Add, ast.Mod)):
        if _is_constant_str(node.left) and _is_constant_str(node.right):
            return None
        operator = "+" if isinstance(node.op, ast.Add) else "%"
        return f"string built with {operator!r} from non-constant parts"
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "format"
    ):
        return "str.format(...) call"
    return None


class _ModuleAuditor(ast.NodeVisitor):
    def __init__(self, rel: str) -> None:
        self.rel = rel
        self.findings: list[Finding] = []

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        # As a method or through a local alias (``counter = metrics.counter``).
        called = getattr(func, "attr", None) or getattr(func, "id", None)
        if called in _FACTORY_METHODS and node.args:
            reason = _dynamic_name_reason(node.args[0])
            if reason is not None:
                self.findings.append(Finding(
                    self.rel, node.lineno, "OBS001",
                    f"metric name passed to .{called}() is an "
                    f"{reason}; use a constant family name and put the "
                    "variability in labels",
                ))
        self.generic_visit(node)


class ObservabilityAuditor:
    """Audit every module under ``root`` for metric-registry misuse."""

    def __init__(self, root: Path) -> None:
        self.root = Path(root)

    def _rel(self, path: Path) -> str:
        return (Path(self.root.name) / path.relative_to(self.root)).as_posix()

    def run(self) -> list[Finding]:
        findings: list[Finding] = []
        for path in sorted(self.root.rglob("*.py")):
            if "__pycache__" in path.parts:
                continue
            findings.extend(self.audit_file(path))
        return findings

    def audit_file(self, path: Path) -> list[Finding]:
        rel = self._rel(path)
        try:
            tree = ast.parse(path.read_text(), filename=str(path))
        except (OSError, SyntaxError) as error:
            return [Finding(rel, 0, "LNT001", f"cannot parse: {error}")]
        auditor = _ModuleAuditor(rel)
        auditor.visit(tree)
        return auditor.findings
