"""Per-module rules: determinism (``DET*``) and metric names (``OBS001``).

The checkpoint layer promises byte-identical resume and the telemetry
layer byte-identical export; both hold only while every value in the
system derives from the seeded :class:`~repro.util.rand` /
:class:`~repro.util.clock.SimClock` machinery.  A single wall-clock
read, entropy draw, or unordered ``set`` walk feeding output would
break replay silently — long after the commit that introduced it.

This pass walks every module under the scanned root once and flags:

* ``DET001`` wall-clock reads (``time.time``, ``time.monotonic``,
  ``time.perf_counter`` and friends, ``datetime.now``/``utcnow``/
  ``today``);
* ``DET002`` entropy sources (``os.urandom``, ``uuid.uuid1``/``uuid4``,
  anything from ``secrets``, ``random.SystemRandom``);
* ``DET003`` unseeded randomness (module-level ``random.*`` calls,
  ``random.Random()`` with no seed, positional or ``x=``);
* ``DET004`` iteration directly over a set display, ``set(...)`` call,
  or set comprehension (wrap in ``sorted(...)`` to fix);
* ``DET006`` unbounded loops — ``while True:`` / ``while 1:`` — which
  carry no structural guarantee of termination.  The supervised runtime
  promises every sweep ends (degraded if need be); a loop only a
  well-behaved peer can exit breaks that promise on the first tarpit.
  Iterate ``range(budget)``, charge a clock deadline, or demand
  measurable progress per pass instead; genuinely sanctioned loops go
  in the lint baseline;
* ``OBS001`` a metric family name built at the call site — an f-string
  with a field, ``+``/``%`` with a non-constant side, or ``.format`` —
  passed (positionally or as ``name=``) to ``.counter`` or
  ``series_key``.  The registry keeps every ``(name, labels)`` series
  forever, so a per-host name mints a series per host; put the
  variability in labels instead.  A constant reaching the call through a
  variable is fine.

Import aliases are tracked per module, so ``from time import time as
now`` does not escape the net; methods on *instances* that merely share
a name (``self.clock.now()``, ``rng.random()``) are not flagged.
"""

from __future__ import annotations

import ast
from pathlib import Path

from repro.lint.findings import Finding
from repro.lint.modules import ModuleInfo, parse_modules

#: (module, attribute) -> rule for forbidden function calls
_FORBIDDEN_CALLS: dict[tuple[str, str], str] = {
    ("time", "time"): "DET001",
    ("time", "time_ns"): "DET001",
    ("time", "monotonic"): "DET001",
    ("time", "monotonic_ns"): "DET001",
    ("time", "perf_counter"): "DET001",
    ("time", "perf_counter_ns"): "DET001",
    ("time", "process_time"): "DET001",
    ("datetime", "now"): "DET001",
    ("datetime", "utcnow"): "DET001",
    ("datetime", "today"): "DET001",
    ("date", "today"): "DET001",
    ("os", "urandom"): "DET002",
    ("os", "getrandom"): "DET002",
    ("uuid", "uuid1"): "DET002",
    ("uuid", "uuid4"): "DET002",
}

#: every call into these modules is forbidden outright
_FORBIDDEN_MODULES: dict[str, str] = {"secrets": "DET002"}

#: calls whose first argument is a metric family name: the registry's
#: counter accessor, and ``series_key``, which keys
#: ``MetricsRegistry.pending``
_FACTORY_METHODS = frozenset({"counter", "series_key"})


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


def _argument(node: ast.Call, keyword: str) -> ast.expr | None:
    """The first positional argument, else the one passed as ``keyword``."""
    if node.args:
        return node.args[0]
    return next((kw.value for kw in node.keywords if kw.arg == keyword), None)


class _ModuleAuditor(ast.NodeVisitor):
    def __init__(self, rel: str) -> None:
        self.rel = rel
        self.findings: list[Finding] = []
        #: local alias -> module name ("import time as t" -> {"t": "time"})
        self.module_aliases: dict[str, str] = {}
        #: local name -> (module, function) for "from x import y [as z]"
        self.function_aliases: dict[str, tuple[str, str]] = {}

    # -- import tracking -----------------------------------------------------

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            self.module_aliases[alias.asname or alias.name.split(".")[0]] = (
                alias.name
            )
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module is not None:
            for alias in node.names:
                local = alias.asname or alias.name
                self.function_aliases[local] = (node.module, alias.name)
                # "from datetime import datetime" imports a class whose
                # methods we police; track it like a module alias.
                if alias.name in ("datetime", "date"):
                    self.module_aliases[local] = alias.name
        self.generic_visit(node)

    # -- call sites ----------------------------------------------------------

    def _flag(self, node: ast.AST, rule: str, message: str) -> None:
        self.findings.append(Finding(self.rel, node.lineno, rule, message))

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Attribute)
            and isinstance(func.value.value, ast.Name)
            and func.value.value.id in self.module_aliases
        ):
            # Two-level chains like datetime.datetime.now() / datetime.date.today().
            rule = _FORBIDDEN_CALLS.get((func.value.attr, func.attr))
            if rule is not None:
                self._flag(node, rule,
                           f"call to {func.value.attr}.{func.attr}()")
        elif isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
            owner = self.module_aliases.get(func.value.id)
            if owner is not None:
                self._audit_module_call(node, owner, func.attr)
        elif isinstance(func, ast.Name):
            target = self.function_aliases.get(func.id)
            if target is not None:
                self._audit_module_call(node, *target)
        self._audit_metric_name(node)
        self.generic_visit(node)

    def _audit_module_call(self, node: ast.Call, module: str, attr: str) -> None:
        rule = _FORBIDDEN_CALLS.get((module.split(".")[-1], attr))
        if rule is not None:
            self._flag(node, rule, f"call to {module}.{attr}()")
        module_rule = _FORBIDDEN_MODULES.get(module)
        if module_rule is not None:
            self._flag(node, module_rule, f"call to {module}.{attr}()")
        if module != "random":
            return
        if attr == "SystemRandom":
            self._flag(node, "DET002", "random.SystemRandom() reads OS entropy")
        elif attr != "Random":
            self._flag(node, "DET003",
                       f"call to random.{attr}() uses the shared unseeded "
                       "generator")
        elif _argument(node, "x") is None:
            self._flag(node, "DET003", "random.Random() without a seed")

    # -- dynamic metric names (OBS001) ---------------------------------------

    def _audit_metric_name(self, node: ast.Call) -> None:
        # As a method or through a local alias (``counter = metrics.counter``).
        called = getattr(node.func, "attr", None) or getattr(node.func, "id", None)
        if called not in _FACTORY_METHODS:
            return
        name = _argument(node, "name")
        reason = None if name is None else _dynamic_name_reason(name)
        if reason is not None:
            self._flag(node, "OBS001",
                       f"metric name passed to .{called}() is an {reason}; "
                       "use a constant family name and put the variability "
                       "in labels")

    # -- set iteration -------------------------------------------------------

    def _is_set_expression(self, node: ast.expr) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            return node.func.id in ("set", "frozenset")
        if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.BitOr, ast.BitAnd, ast.Sub)):
            return self._is_set_expression(node.left) or self._is_set_expression(
                node.right
            )
        return False

    def _audit_iteration(self, iterable: ast.expr) -> None:
        if self._is_set_expression(iterable):
            self._flag(iterable, "DET004",
                       "iterating an unordered set; wrap in sorted(...) to "
                       "fix the order")

    def visit_For(self, node: ast.For) -> None:
        self._audit_iteration(node.iter)
        self.generic_visit(node)

    # -- unbounded loops (DET006) --------------------------------------------

    def visit_While(self, node: ast.While) -> None:
        test = node.test
        if isinstance(test, ast.Constant) and bool(test.value):
            self._flag(node, "DET006",
                       "unbounded 'while "
                       f"{ast.unparse(test)}' loop; bound it with a range, "
                       "deadline, or progress check")
        self.generic_visit(node)

    def _visit_comprehensions(self, node) -> None:
        for generator in node.generators:
            self._audit_iteration(generator.iter)
        self.generic_visit(node)

    visit_ListComp = _visit_comprehensions
    visit_GeneratorExp = _visit_comprehensions
    visit_DictComp = _visit_comprehensions

    def visit_SetComp(self, node: ast.SetComp) -> None:
        # Building a set from a set is order-free; only its *iteration*
        # elsewhere is ordering-sensitive.
        self.generic_visit(node)


class DeterminismAuditor:
    """Audit every module under ``root`` for replay-breaking constructs
    and dynamic metric names.

    It is also the one place a file that does not parse is reported
    (``LNT001``); the signature auditor skips such a module.
    """

    def __init__(self, root: Path) -> None:
        self.root = Path(root)

    def run(self, modules: dict[str, ModuleInfo] | None = None) -> list[Finding]:
        """Findings over ``modules`` (parsed if not given)."""
        if modules is None:
            modules = parse_modules(self.root)
        findings: list[Finding] = []
        for info in modules.values():
            if info.parse_error is not None:
                findings.append(Finding(
                    info.rel, 0, "LNT001", f"cannot parse: {info.parse_error}"
                ))
                continue
            auditor = _ModuleAuditor(info.rel)
            auditor.visit(info.tree)
            findings.extend(auditor.findings)
        return findings
