"""Concurrency & pickle-boundary auditor (``RACE*`` / ``PKL*`` rules).

PR 7 moved shard execution onto a real process pool and paid for three
bugs at runtime that were all visible statically: lambda responders that
could not be pickled, a chaos transport dragging the main process's
telemetry handle across the pickle boundary, and a worker callable
bumping a shared progress counter.  This auditor finds that bug class
*before* the pool does, using the whole-program
:class:`~repro.lint.callgraph.CallGraph` to bound which code actually
runs inside workers and which classes actually cross the boundary.

Two rule families:

**RACE** — scheduling-dependent shared-state writes:

* ``RACE001`` a worker-reachable callable writes module-level state
  (``global``/``nonlocal`` declarations, or attribute/subscript writes
  whose root is a module-level or closure-captured name).  Module state
  is shared no matter which object the code ran on.
* ``RACE002`` a method running on a *shared* ``self`` — the pickled
  shard runner, the parent transport — writes a
  ``self`` attribute outside the sanctioned constructor/pickle hooks.
  Shard results must be returned and folded on the main thread in
  canonical order; writes on shard-local objects are fine and are not
  flagged (the taint bit in the call graph keeps them out).
* ``RACE003`` a closure is handed to a worker pool: an inline ``lambda``
  or a nested function with free variables passed to ``.submit``/
  ``.map``.  Closures capture main-process cells by reference; in a
  thread pool that is a data race, in a process pool a pickle error.

**PKL** — values that must cross the process-executor pickle boundary
but cannot, or should not, survive it:

* ``PKL001`` a ``lambda`` or locally-defined function is *stored* —
  assigned to an object attribute or passed into a boundary-class
  constructor — in pickle-adjacent code (a module defining a boundary
  class, or a worker-reachable function).  Local functions cannot be
  pickled; the fix is a small picklable callable class (see
  ``net/population.py``'s ``_BackgroundResponder``).
* ``PKL002`` a boundary class binds a main-process-only handle
  (``telemetry``, ``console``, ``hub``, ``tracer``) without a
  ``__getstate__`` that strips it.  Shipping the parent's telemetry
  into a worker double-counts at best and drags thread locks across
  ``spawn`` at worst; shard clones get their own handle on
  construction.
* ``PKL003`` a boundary class binds an unpicklable runtime resource —
  a ``threading`` lock/event, an open file handle, a socket, a pool —
  without stripping it in ``__getstate__``.

The clean tree must lint clean: every rule here was tuned against the
real package, and the regression corpus under ``tests/lint/fixtures/``
re-introduces the three PR-7 bugs to pin recall.
"""

from __future__ import annotations

import ast
import builtins
from pathlib import Path

from repro.lint.callgraph import CallGraph, ClassInfo, Context, FunctionInfo
from repro.lint.findings import Finding

#: methods allowed to write `self` even on shared objects: object
#: construction and the pickle/checkpoint protocol itself
_SANCTIONED_METHODS = frozenset({
    "__init__", "__post_init__", "__getstate__", "__setstate__",
    "__reduce__", "__reduce_ex__",
})

#: attribute names that are main-process-only handles (PKL002)
_MAIN_PROCESS_HANDLES = frozenset({"telemetry", "console", "hub", "tracer"})

#: constructor calls that produce unpicklable runtime resources (PKL003)
_UNPICKLABLE_FACTORIES: dict[str, str] = {
    "threading.Lock": "a thread lock",
    "threading.RLock": "a re-entrant lock",
    "threading.Condition": "a condition variable",
    "threading.Event": "a thread event",
    "threading.Semaphore": "a semaphore",
    "threading.BoundedSemaphore": "a semaphore",
    "open": "an open file handle",
    "socket.socket": "a socket",
    "subprocess.Popen": "a child-process handle",
    "ThreadPoolExecutor": "an executor",
    "ProcessPoolExecutor": "an executor",
}


def _unparse(node: ast.AST) -> str:
    try:
        return ast.unparse(node)
    except Exception:  # pragma: no cover - exotic targets
        return "<expr>"


class ConcurrencyAuditor:
    """Whole-program RACE/PKL audit over one scanned tree."""

    def __init__(self, root: Path) -> None:
        self.root = Path(root)

    def run(self, graph: CallGraph | None = None) -> list[Finding]:
        """Findings over ``graph`` (built from ``root`` if not given)."""
        graph = graph or CallGraph(self.root)
        contexts = list(graph.worker_contexts().values())
        return [
            *_RaceAuditor(graph, contexts).run(),
            *_PickleAuditor(graph, contexts).run(),
        ]


# ---------------------------------------------------------------------------
# RACE: shared-state writes reachable from worker code
# ---------------------------------------------------------------------------

class _RaceAuditor:
    def __init__(self, graph: CallGraph, contexts: list[Context]) -> None:
        self.graph = graph
        self.contexts = contexts
        self.findings: list[Finding] = []

    def run(self) -> list[Finding]:
        audited_shared: set[str] = set()
        audited_any: set[str] = set()
        for ctx in self.contexts:
            fn = self.graph.function_of(ctx)
            if fn.key not in audited_any:
                audited_any.add(fn.key)
                self._audit_module_state_writes(fn)
            if ctx.shared and fn.key not in audited_shared:
                audited_shared.add(fn.key)
                self._audit_shared_self_writes(fn)
        self._audit_dispatch_closures()
        return self.findings

    # -- RACE001: module-level / captured state ------------------------------

    def _owned_names(self, fn: FunctionInfo) -> set[str]:
        owned: set[str] = set()
        for sub in ast.walk(fn.node):
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Store):
                owned.add(sub.id)
            elif isinstance(
                sub, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
            ):
                # the audited def's own params, plus any nested def's
                if not isinstance(sub, ast.Lambda):
                    owned.add(sub.name)
                owned.update(_parameters(sub.args))
            elif isinstance(sub, ast.ExceptHandler) and sub.name:
                owned.add(sub.name)
        return owned

    def _audit_module_state_writes(self, fn: FunctionInfo) -> None:
        owned = self._owned_names(fn)
        module = self.graph.modules[fn.module]
        for node in ast.walk(fn.node):
            if isinstance(node, (ast.Global, ast.Nonlocal)):
                kind = "global" if isinstance(node, ast.Global) else "nonlocal"
                self.findings.append(Finding(
                    fn.rel, node.lineno, "RACE001",
                    f"worker-reachable callable {fn.name!r} declares "
                    f"{kind} {', '.join(node.names)}; worker results must "
                    "be returned and folded on the main thread",
                ))
                continue
            for target in _write_targets(node):
                root, through_container = _write_root(target)
                if root is None or not through_container:
                    continue
                if root.id == "self" or root.id in owned:
                    continue
                if root.id in module.module_names or root.id not in module.aliases:
                    self.findings.append(Finding(
                        fn.rel, target.lineno, "RACE001",
                        f"worker-reachable callable {fn.name!r} writes "
                        f"module or captured state {_unparse(target)!r}; "
                        "concurrent writes are scheduling-ordered — return "
                        "results and fold them on the main thread",
                    ))

    # -- RACE002: writes on a shared self ------------------------------------

    def _audit_shared_self_writes(self, fn: FunctionInfo) -> None:
        if fn.cls is None or fn.name in _SANCTIONED_METHODS:
            return
        for node in ast.walk(fn.node):
            for target in _write_targets(node):
                root, through_container = _write_root(target)
                if (
                    root is not None
                    and through_container
                    and root.id == "self"
                ):
                    self.findings.append(Finding(
                        fn.rel, target.lineno, "RACE002",
                        f"worker-shared method {fn.qualname!r} writes "
                        f"{_unparse(target)!r}; fold-owned state may only "
                        "be written by the main-thread fold in canonical "
                        "shard order",
                    ))

    # -- RACE003: closures handed to pools -----------------------------------

    def _audit_dispatch_closures(self) -> None:
        for fn, target in self.graph.dispatch_sites:
            if isinstance(target, ast.Lambda):
                self.findings.append(Finding(
                    fn.rel, target.lineno, "RACE003",
                    f"lambda handed to a worker pool in {fn.name!r} "
                    "captures enclosing scope by reference; pass a "
                    "module-level callable and its arguments instead",
                ))
                continue
            if not isinstance(target, ast.Name):
                continue
            local_defs = {
                sub.name: sub
                for sub in ast.walk(fn.node)
                if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef))
                and sub is not fn.node
            }
            nested = local_defs.get(target.id)
            free = _free_names(nested) if nested is not None else set()
            if free:
                self.findings.append(Finding(
                    fn.rel, target.lineno, "RACE003",
                    f"nested function {target.id!r} handed to a worker "
                    f"pool closes over {', '.join(sorted(free))}; closures "
                    "capture main-process cells by reference — pass a "
                    "module-level callable and its arguments instead",
                ))


def _parameters(args: ast.arguments) -> set[str]:
    """Every name a def's signature binds."""
    extra = [a for a in (args.vararg, args.kwarg) if a is not None]
    return {
        a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs, *extra)
    }


def _write_targets(node: ast.AST) -> list[ast.expr]:
    if isinstance(node, ast.Assign):
        targets = list(node.targets)
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        targets = [node.target]
    else:
        return []
    flat: list[ast.expr] = []
    stack = targets
    while stack:
        t = stack.pop()
        if isinstance(t, (ast.Tuple, ast.List)):
            stack.extend(t.elts)
        else:
            flat.append(t)
    return flat


def _write_root(target: ast.expr) -> tuple[ast.Name | None, bool]:
    """The root name of a write target, and whether the write goes
    *through* a container/attribute (a mutation of an existing object
    rather than a local rebind)."""
    root = target
    through_container = False
    while isinstance(root, (ast.Attribute, ast.Subscript)):
        through_container = True
        root = root.value
    if not isinstance(root, ast.Name):
        return None, through_container
    return root, through_container


def _subscript_key(target: ast.expr) -> str | None:
    """``state["telemetry"]`` -> ``"telemetry"`` (else None)."""
    if (
        isinstance(target, ast.Subscript)
        and isinstance(target.slice, ast.Constant)
        and isinstance(target.slice.value, str)
    ):
        return target.slice.value
    return None


def _free_names(fn: ast.AST) -> set[str]:
    """Names a nested def reads without binding them itself (ignoring
    likely module-level references is the caller's business; any free
    name in a pool-dispatched closure is capture by reference)."""
    bound = _parameters(fn.args)
    loads: set[str] = set()
    for node in ast.walk(fn):
        if isinstance(node, ast.Name):
            if isinstance(node.ctx, ast.Store):
                bound.add(node.id)
            else:
                loads.add(node.id)
    return {
        name for name in loads - bound
        if not hasattr(builtins, name)
    }


# ---------------------------------------------------------------------------
# PKL: values crossing the process-executor pickle boundary
# ---------------------------------------------------------------------------

class _PickleAuditor:
    def __init__(self, graph: CallGraph, contexts: list[Context]) -> None:
        self.graph = graph
        self.contexts = contexts
        self.findings: list[Finding] = []
        self.boundary = graph.boundary_classes()
        #: simple names of boundary classes, for constructor-site checks
        self.boundary_names = {cls.name for cls in self.boundary.values()}
        #: modules containing a boundary class are "pickle-adjacent"
        self.adjacent_modules = {cls.module for cls in self.boundary.values()}

    def run(self) -> list[Finding]:
        for cls in sorted(self.boundary.values(), key=lambda c: c.qualname):
            self._audit_boundary_class(cls)
        self._audit_stored_lambdas()
        return self.findings

    # -- PKL002 / PKL003: boundary-class attribute hygiene -------------------

    def _audit_boundary_class(self, cls: ClassInfo) -> None:
        stripped = self._stripped_attributes(cls)
        for name in ("__init__", "__post_init__"):
            fn = cls.methods.get(name)
            if fn is None:
                continue
            for node in ast.walk(fn.node):
                for target in _write_targets(node):
                    self._audit_boundary_attribute(
                        cls, fn, node, target, stripped
                    )

    def _audit_boundary_attribute(
        self,
        cls: ClassInfo,
        fn: FunctionInfo,
        stmt: ast.AST,
        target: ast.expr,
        stripped: set[str],
    ) -> None:
        if not (
            isinstance(target, ast.Attribute)
            and isinstance(target.value, ast.Name)
            and target.value.id == "self"
        ):
            return
        attr = target.attr
        if attr in stripped:
            return
        value = getattr(stmt, "value", None)
        if attr in _MAIN_PROCESS_HANDLES:
            self.findings.append(Finding(
                cls.rel, target.lineno, "PKL002",
                f"pickle-boundary class {cls.name!r} binds main-process "
                f"handle 'self.{attr}' but its __getstate__ does not "
                "strip it; the handle crosses into worker processes — "
                "set it to None in __getstate__ and re-attach "
                "shard-locally",
            ))
        resource = self._unpicklable_resource(cls, value)
        if resource is not None:
            self.findings.append(Finding(
                cls.rel, target.lineno, "PKL003",
                f"pickle-boundary class {cls.name!r} binds {resource} to "
                f"'self.{attr}'; it cannot cross the process-executor "
                "pickle boundary — create it lazily in the worker or "
                "strip it in __getstate__",
            ))

    def _unpicklable_resource(
        self, cls: ClassInfo, value: ast.AST | None
    ) -> str | None:
        if not isinstance(value, ast.Call):
            return None
        func = value.func
        if isinstance(func, ast.Name):
            dotted = self.graph.modules[cls.module].aliases.get(
                func.id, func.id
            )
        elif isinstance(func, ast.Attribute) and isinstance(
            func.value, ast.Name
        ):
            owner = self.graph.modules[cls.module].aliases.get(
                func.value.id, func.value.id
            )
            dotted = f"{owner}.{func.attr}"
        else:
            return None
        for known, description in _UNPICKLABLE_FACTORIES.items():
            if dotted == known or dotted.endswith(f".{known}"):
                return description
        return None

    def _stripped_attributes(self, cls: ClassInfo) -> set[str]:
        """Attribute names a ``__getstate__`` anywhere in the MRO
        neutralises (``state["x"] = None``, ``del state["x"]``,
        ``state.pop("x")``)."""
        stripped: set[str] = set()
        for candidate in self.graph.mro(cls):
            fn = candidate.methods.get("__getstate__")
            if fn is None:
                continue
            for node in ast.walk(fn.node):
                if isinstance(node, ast.Assign):
                    for target in node.targets:
                        key = _subscript_key(target)
                        if key is not None:
                            stripped.add(key)
                elif isinstance(node, ast.Delete):
                    for target in node.targets:
                        key = _subscript_key(target)
                        if key is not None:
                            stripped.add(key)
                elif (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "pop"
                    and node.args
                    and isinstance(node.args[0], ast.Constant)
                    and isinstance(node.args[0].value, str)
                ):
                    stripped.add(node.args[0].value)
        return stripped

    # -- PKL001: lambdas / local functions that must be pickled --------------

    def _audit_stored_lambdas(self) -> None:
        reachable_modules = {
            self.graph.function_of(ctx).module for ctx in self.contexts
        }
        for info in self.graph.modules.values():
            adjacent = (
                info.name in self.adjacent_modules
                or info.name in reachable_modules
            )
            if not adjacent:
                continue
            self._audit_module_lambda_stores(info)

    def _audit_module_lambda_stores(self, info) -> None:
        for node in ast.walk(info.tree):
            # obj.attr = lambda ... / obj.attr[k] = lambda ...
            if isinstance(node, ast.Assign) and isinstance(
                node.value, ast.Lambda
            ):
                for target in node.targets:
                    root, through_container = _write_root(target)
                    if through_container and root is not None:
                        self.findings.append(Finding(
                            info.rel, node.lineno, "PKL001",
                            f"lambda stored on {_unparse(target)!r} in a "
                            "pickle-adjacent module; local functions "
                            "cannot cross the process-executor pickle "
                            "boundary — use a small picklable callable "
                            "class instead",
                        ))
            # BoundaryClass(..., responder=lambda ...)
            elif isinstance(node, ast.Call):
                func = node.func
                name = None
                if isinstance(func, ast.Name):
                    name = func.id
                elif isinstance(func, ast.Attribute):
                    name = func.attr
                if name not in self.boundary_names:
                    continue
                for arg in (*node.args, *(kw.value for kw in node.keywords)):
                    if isinstance(arg, ast.Lambda):
                        self.findings.append(Finding(
                            info.rel, arg.lineno, "PKL001",
                            f"lambda passed into pickle-boundary class "
                            f"{name!r}; local functions cannot cross the "
                            "process-executor pickle boundary — use a "
                            "small picklable callable class instead",
                        ))
