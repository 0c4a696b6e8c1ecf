"""Whole-program module/call graph for the concurrency analyzer.

The parallel engine's correctness story is a *boundary* story: code that
runs inside pool workers may not touch main-process state, and values
that cross into a process pool must survive pickling.  Both properties
are about **reachability** — not about any single function — so the
``RACE``/``PKL`` rules in :mod:`repro.lint.concurrency` need to know
which code can execute inside a worker at all.  This module builds that
map, purely from the AST (fixture trees lint without being imported,
same as every other analyzer).

The graph is deliberately an over-approximation with one taint bit:

* **Entry points** come from ``WORKER_ENTRY_POINTS`` registry tuples
  that the runtime modules themselves declare (``core/parallel.py``),
  plus one structural family: ``fork`` methods of transport-protocol
  classes (they execute inside workers to build shard-local universes).
  Callables handed to ``pool.submit``/``pool.map`` are seeded too, so
  un-registered engines are still covered: ``self.method`` resolves in
  the enclosing class, a bare name to a module function, and
  ``x.method`` on a receiver of unknown type fans out to every method
  of that name — all shared, since the pool runs them on the object the
  main process handed over.
* **Shared-self propagation**: a context is *shared* when its ``self``
  is an object the main process also holds (the pickled/shared runner,
  the parent transport).  ``self.m()`` keeps the same
  object, so the callee inherits the bit; ``self.field.m()`` calls a
  method on a field of a shared object, which is just as shared; but a
  call on a *locally created* value (a constructor result, any call's
  return value, a parameter) starts a fresh private universe and drops
  the bit.  Only shared contexts can produce ``RACE002`` findings —
  that is what keeps the shard-local :class:`ScanPipeline` world, which
  mutates its own state freely, out of the report.
* **Name-based fan-out**: a call ``x.m()`` whose receiver class is
  unknown reaches *every* method named ``m`` in the tree (never shared
  unless rooted at ``self``).  That inflates plain reachability, which
  is safe — reachable-but-private code is only audited for writes to
  module-level state (``RACE001``), the one thing that is shared no
  matter who owns the instance.

The registry constants are plain data so this analyzer — and nothing
else — pays for them; scanning a fixture tree picks up the fixture's
own registries the same way.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

#: registry names the graph consumes from scanned modules
ENTRY_REGISTRY = "WORKER_ENTRY_POINTS"
BOUNDARY_REGISTRY = "PICKLE_BOUNDARY_TYPES"

#: pool methods that take a worker callable as their first argument
POOL_DISPATCH_METHODS = frozenset({"submit", "map"})

#: the transport-protocol method that builds shard-local universes
#: inside workers (and marks its class as pickle-boundary-crossing)
FORK_METHOD = "fork"


@dataclass
class FunctionInfo:
    """One ``def``: a module-level function or a method."""

    module: str                 # dotted module name ("repro.core.parallel")
    cls: str | None             # defining class qualname, None for functions
    name: str
    node: ast.AST               # FunctionDef / AsyncFunctionDef
    rel: str                    # findings path ("repro/core/parallel.py")
    key: str = ""               # unique def identity, set at registration

    @property
    def qualname(self) -> str:
        if self.cls is None:
            return f"{self.module}.{self.name}"
        return f"{self.cls}.{self.name}"


@dataclass
class ClassInfo:
    """One ``class`` statement and its directly declared methods."""

    module: str
    name: str
    node: ast.ClassDef
    rel: str
    bases: list[str] = field(default_factory=list)   # raw base expressions
    methods: dict[str, FunctionInfo] = field(default_factory=dict)

    @property
    def qualname(self) -> str:
        return f"{self.module}.{self.name}"


@dataclass
class ModuleInfo:
    """One parsed ``.py`` file: the tree every analyzer reads, and the
    summary the graph is assembled from."""

    name: str                   # dotted name
    rel: str
    tree: ast.Module
    functions: dict[str, FunctionInfo] = field(default_factory=dict)
    classes: dict[str, ClassInfo] = field(default_factory=dict)
    #: local alias -> dotted target for imports ("ShardRunner" ->
    #: "repro.core.parallel.ShardRunner", "parallel" -> "repro.core.parallel")
    aliases: dict[str, str] = field(default_factory=dict)
    #: module-level names bound by assignment (the RACE001 "module state")
    module_names: set[str] = field(default_factory=set)
    #: registry tuples declared in this module
    entry_points: list[str] = field(default_factory=list)
    boundary_types: list[str] = field(default_factory=list)
    #: files that fail to parse carry the error instead of a tree
    parse_error: str | None = None


@dataclass(frozen=True)
class Context:
    """One reachable (function, concrete receiver class, taint) triple."""

    fn_key: str                 # unique def identity
    owner: str | None           # concrete class qualname `self` belongs to
    shared: bool                # is `self` a main-process-shared object?


class CallGraph:
    """The package-wide graph plus worker reachability.

    Built once per lint run from every ``*.py`` under ``root``, each
    parsed exactly once: :attr:`modules` is the tree every analyzer
    reads.  The concurrency auditor asks it two questions — *which defs
    can run in a worker* (:meth:`worker_contexts`) and *which classes
    cross the pickle boundary* (:meth:`boundary_classes`).
    """

    def __init__(self, root: Path) -> None:
        self.root = Path(root)
        self.modules: dict[str, ModuleInfo] = {}
        self.classes: dict[str, ClassInfo] = {}
        self.methods_by_name: dict[str, list[tuple[ClassInfo, FunctionInfo]]] = {}
        self.functions: dict[str, FunctionInfo] = {}
        #: def identity -> FunctionInfo, for context bookkeeping
        self._defs: dict[str, FunctionInfo] = {}
        self._build()

    # -- construction --------------------------------------------------------

    def _rel(self, path: Path) -> str:
        return (Path(self.root.name) / path.relative_to(self.root)).as_posix()

    def _module_name(self, path: Path) -> str:
        parts = list(path.relative_to(self.root).parts)
        parts[-1] = parts[-1][: -len(".py")]
        if parts[-1] == "__init__":
            parts.pop()
        return ".".join([self.root.name, *parts]) if parts else self.root.name

    def _build(self) -> None:
        for path in sorted(self.root.rglob("*.py")):
            if "__pycache__" in path.parts:
                continue
            name = self._module_name(path)
            rel = self._rel(path)
            try:
                tree = ast.parse(path.read_text(), filename=str(path))
            except (OSError, SyntaxError) as error:
                info = ModuleInfo(name, rel, ast.Module(body=[], type_ignores=[]))
                info.parse_error = str(error)
                self.modules[name] = info
                continue
            info = ModuleInfo(name, rel, tree)
            self._index_module(info)
            self.modules[name] = info
        for info in self.modules.values():
            for cls in info.classes.values():
                self.classes[cls.qualname] = cls
                for method in cls.methods.values():
                    self.methods_by_name.setdefault(method.name, []).append(
                        (cls, method)
                    )
            for fn in info.functions.values():
                self.functions[fn.qualname] = fn

    def _index_module(self, info: ModuleInfo) -> None:
        for node in info.tree.body:
            if isinstance(node, ast.Import):
                for alias in node.names:
                    info.aliases[alias.asname or alias.name.split(".")[0]] = (
                        alias.name
                    )
            elif isinstance(node, ast.ImportFrom) and node.module:
                module = node.module
                if node.level:  # best-effort relative-import resolution
                    base = info.name.split(".")
                    module = ".".join(base[: len(base) - node.level] + [module])
                for alias in node.names:
                    info.aliases[alias.asname or alias.name] = (
                        f"{module}.{alias.name}"
                    )
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                fn = FunctionInfo(info.name, None, node.name, node, info.rel)
                info.functions[node.name] = fn
                self._register_def(fn)
            elif isinstance(node, ast.ClassDef):
                self._index_class(info, node)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                self._index_assignment(info, node)

    def _index_class(self, info: ModuleInfo, node: ast.ClassDef) -> None:
        cls = ClassInfo(info.name, node.name, node, info.rel)
        for base in node.bases:
            try:
                cls.bases.append(ast.unparse(base))
            except Exception:  # pragma: no cover - exotic base expression
                continue
        for item in node.body:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                fn = FunctionInfo(
                    info.name, cls.qualname, item.name, item, info.rel
                )
                cls.methods[item.name] = fn
                self._register_def(fn)
        info.classes[node.name] = cls

    def _register_def(self, fn: FunctionInfo) -> None:
        fn.key = f"{fn.qualname}@{fn.node.lineno}"
        self._defs[fn.key] = fn

    def _index_assignment(self, info: ModuleInfo, node: ast.AST) -> None:
        targets = (
            node.targets if isinstance(node, ast.Assign) else [node.target]
        )
        for target in targets:
            if not isinstance(target, ast.Name):
                continue
            info.module_names.add(target.id)
            value = getattr(node, "value", None)
            if target.id in (ENTRY_REGISTRY, BOUNDARY_REGISTRY) and isinstance(
                value, (ast.Tuple, ast.List)
            ):
                strings = [
                    e.value
                    for e in value.elts
                    if isinstance(e, ast.Constant) and isinstance(e.value, str)
                ]
                if target.id == ENTRY_REGISTRY:
                    info.entry_points.extend(strings)
                else:
                    info.boundary_types.extend(strings)

    # -- lookups -------------------------------------------------------------

    def resolve_class(self, dotted: str) -> ClassInfo | None:
        return self.classes.get(dotted)

    def resolve_base(self, cls: ClassInfo, base: str) -> ClassInfo | None:
        """A raw base expression -> its ClassInfo, when in the tree."""
        module = self.modules[cls.module]
        head = base.split(".", 1)[0]
        if base in module.classes:
            return module.classes[base]
        target = module.aliases.get(head)
        if target is not None:
            dotted = target + base[len(head):]
            return self.classes.get(dotted)
        return self.classes.get(base)

    def mro(self, cls: ClassInfo) -> list[ClassInfo]:
        """Static linearisation: the class, then bases depth-first."""
        seen: list[ClassInfo] = []
        stack = [cls]
        while stack:
            current = stack.pop(0)
            if any(c.qualname == current.qualname for c in seen):
                continue
            seen.append(current)
            for base in current.bases:
                resolved = self.resolve_base(current, base)
                if resolved is not None:
                    stack.append(resolved)
        return seen

    def resolve_method(self, cls: ClassInfo, name: str) -> FunctionInfo | None:
        for candidate in self.mro(cls):
            if name in candidate.methods:
                return candidate.methods[name]
        return None

    # -- entry points --------------------------------------------------------

    def registry_entry_points(self) -> list[tuple[FunctionInfo, str]]:
        """Resolved ``WORKER_ENTRY_POINTS`` entries -> (def, owner class)."""
        resolved: list[tuple[FunctionInfo, str | None]] = []
        for info in self.modules.values():
            for dotted in info.entry_points:
                hit = self._resolve_dotted_callable(dotted)
                if hit is not None:
                    resolved.append(hit)
        return resolved

    def _resolve_dotted_callable(
        self, dotted: str
    ) -> tuple[FunctionInfo, str | None] | None:
        if dotted in self.functions:
            return self.functions[dotted], None
        cls_name, _, method = dotted.rpartition(".")
        cls = self.classes.get(cls_name)
        if cls is not None:
            fn = self.resolve_method(cls, method)
            if fn is not None:
                return fn, cls.qualname
        return None

    def structural_entry_points(self) -> list[tuple[FunctionInfo, str]]:
        """Transport ``fork`` methods."""
        entries: list[tuple[FunctionInfo, str]] = []
        for cls in self.classes.values():
            if FORK_METHOD in cls.methods:
                entries.append((cls.methods[FORK_METHOD], cls.qualname))
        return entries

    @cached_property
    def dispatch_sites(self) -> list[tuple[FunctionInfo, ast.expr]]:
        """``(enclosing def, callable)`` for every ``pool.submit``/
        ``pool.map`` call: one scan, shared by entry-point seeding and
        the ``RACE003`` closure audit."""
        sites: list[tuple[FunctionInfo, ast.expr]] = []
        for info in self.modules.values():
            defs = [*info.functions.values()]
            for cls in info.classes.values():
                defs.extend(cls.methods.values())
            for fn in defs:
                sites.extend(
                    (fn, node.args[0])
                    for node in ast.walk(fn.node)
                    if isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in POOL_DISPATCH_METHODS
                    and node.args
                )
        return sites

    def dispatch_entry_points(self) -> list[tuple[FunctionInfo, str | None]]:
        """Callables handed to ``pool.submit``/``pool.map``."""
        return [
            entry
            for fn, target in self.dispatch_sites
            for entry in self._dispatch_targets(fn, target)
        ]

    def _dispatch_targets(
        self, fn: FunctionInfo, target: ast.expr
    ) -> list[tuple[FunctionInfo, str | None]]:
        if isinstance(target, ast.Name):
            local = self.modules[fn.module].functions.get(target.id)
            return [] if local is None else [(local, None)]
        if not isinstance(target, ast.Attribute):
            return []
        cls = self.classes.get(fn.cls) if fn.cls else None
        if (
            cls is not None
            and isinstance(target.value, ast.Name)
            and target.value.id == "self"
        ):
            # the object demonstrably crosses into the pool
            hit = self.resolve_method(cls, target.attr)
            return [] if hit is None else [(hit, cls.qualname)]
        # a receiver of unknown type: every method of that name
        return [
            (method, owner.qualname)
            for owner, method in self.methods_by_name.get(target.attr, ())
        ]

    # -- pickle boundary -----------------------------------------------------

    def boundary_classes(self) -> dict[str, ClassInfo]:
        """Classes whose instances cross the process-pool pickle boundary.

        The union of the declared ``PICKLE_BOUNDARY_TYPES`` registries
        and every class implementing the transport ``fork`` protocol
        (forked transports travel inside the pickled shard runner),
        closed over subclassing.
        """
        roots: dict[str, ClassInfo] = {}
        for info in self.modules.values():
            for dotted in info.boundary_types:
                cls = self.classes.get(dotted)
                if cls is not None:
                    roots[cls.qualname] = cls
        for cls in self.classes.values():
            if FORK_METHOD in cls.methods:
                roots[cls.qualname] = cls
        # subclasses of a boundary class cross the boundary too
        for cls in self.classes.values():
            if cls.qualname in roots:
                continue
            if any(c.qualname in roots for c in self.mro(cls)[1:]):
                roots[cls.qualname] = cls
        return roots

    # -- reachability --------------------------------------------------------

    def worker_contexts(self) -> dict[tuple[str, str | None, bool], Context]:
        """Every (def, owner, shared) context reachable from workers."""
        seeds: list[tuple[FunctionInfo, str | None]] = []
        seeds.extend(self.registry_entry_points())
        seeds.extend(self.structural_entry_points())
        seeds.extend(self.dispatch_entry_points())
        contexts: dict[tuple[str, str | None, bool], Context] = {}
        queue: list[Context] = []

        def enqueue(fn: FunctionInfo, owner: str | None, shared: bool) -> None:
            key = (fn.key, owner, shared)
            if key not in contexts:
                ctx = Context(fn.key, owner, shared)
                contexts[key] = ctx
                queue.append(ctx)

        for fn, owner in seeds:
            enqueue(fn, owner, shared=True)
        while queue:
            ctx = queue.pop()
            fn = self._defs[ctx.fn_key]
            self._propagate(fn, ctx, enqueue)
        return contexts

    def function_of(self, ctx: Context) -> FunctionInfo:
        return self._defs[ctx.fn_key]

    def _propagate(self, fn: FunctionInfo, ctx: Context, enqueue) -> None:
        module = self.modules[fn.module]
        owner_cls = self.classes.get(ctx.owner) if ctx.owner else None
        for node in ast.walk(fn.node):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Name):
                self._propagate_name_call(module, func.id, enqueue)
            elif isinstance(func, ast.Attribute):
                self._propagate_attr_call(
                    module, owner_cls, ctx, func, enqueue
                )

    def _propagate_name_call(
        self, module: ModuleInfo, name: str, enqueue
    ) -> None:
        # plain function call: module-local def or imported def/class
        local = module.functions.get(name)
        if local is not None:
            enqueue(local, None, shared=False)
            return
        if name in module.classes:
            self._enqueue_constructor(module.classes[name], enqueue)
            return
        dotted = module.aliases.get(name)
        if dotted is None:
            return
        if dotted in self.functions:
            enqueue(self.functions[dotted], None, shared=False)
        elif dotted in self.classes:
            self._enqueue_constructor(self.classes[dotted], enqueue)

    def _enqueue_constructor(self, cls: ClassInfo, enqueue) -> None:
        # a freshly constructed object is private to its creator
        for dunder in ("__init__", "__post_init__"):
            fn = self.resolve_method(cls, dunder)
            if fn is not None:
                enqueue(fn, cls.qualname, shared=False)

    def _propagate_attr_call(
        self,
        module: ModuleInfo,
        owner_cls: ClassInfo | None,
        ctx: Context,
        func: ast.Attribute,
        enqueue,
    ) -> None:
        method = func.attr
        receiver = func.value
        # self.m(...): same object, same taint, resolved in the MRO
        if isinstance(receiver, ast.Name) and receiver.id == "self":
            if owner_cls is not None:
                target = self.resolve_method(owner_cls, method)
                if target is not None:
                    enqueue(target, owner_cls.qualname, ctx.shared)
                    return
            self._fan_out(method, ctx.shared, enqueue)
            return
        # Class.m(...) via an imported or local class name
        if isinstance(receiver, ast.Name):
            dotted = module.aliases.get(receiver.id)
            cls = (
                module.classes.get(receiver.id)
                or (self.classes.get(dotted) if dotted else None)
            )
            if cls is not None:
                target = self.resolve_method(cls, method)
                if target is not None:
                    enqueue(target, cls.qualname, shared=False)
                return
            self._fan_out(method, shared=False, enqueue=enqueue)
            return
        # self.field.m(...), self.a.b.m(...): a field of a shared object
        # is shared; any other chain is private or unknowable.
        root = receiver
        while isinstance(root, (ast.Attribute, ast.Subscript)):
            root = root.value
        rooted_in_self = isinstance(root, ast.Name) and root.id == "self"
        self._fan_out(method, ctx.shared and rooted_in_self, enqueue)

    def _fan_out(self, method: str, shared: bool, enqueue) -> None:
        for cls, fn in self.methods_by_name.get(method, ()):
            enqueue(fn, cls.qualname, shared)
