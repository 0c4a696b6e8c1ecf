"""Plugin-contract auditor (``PLG*`` rules).

Stage III trusts the 18 detection plugins to be *safe measurement
instruments*: subclasses of :class:`MavDetectionPlugin` that identify a
catalog application, are reachable through ``ALL_PLUGINS``, talk to
targets only through ``PluginContext.fetch``/``fetch_json``, swallow no
unexpected exceptions, and never mutate server state.  This AST pass
verifies all of that over the parsed trees of
``core/tsunami/plugins/*.py`` without importing the modules, so broken
or hostile fixture trees lint safely.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path

from repro.lint.callgraph import CallGraph, ModuleInfo
from repro.lint.findings import Finding

#: modules whose import in a plugin means transport-layer bypass
_FORBIDDEN_IMPORTS = (
    "socket",
    "ssl",
    "http.client",
    "urllib",
    "requests",
    "repro.net.transport",
    "repro.net.http",
)

#: attribute names whose access means transport-layer bypass
_FORBIDDEN_ATTRIBUTES = frozenset({"transport"})

#: method names whose *call* means a state-changing request
_MUTATING_CALLS = frozenset({"post", "put", "delete", "patch", "request"})

_BASE_CLASS = "MavDetectionPlugin"


@dataclass
class _PluginClass:
    name: str
    line: int
    bases: tuple[str, ...]
    slug: str | None
    slug_line: int
    has_detect: bool

    @property
    def is_abstract_helper(self) -> bool:
        return self.name.startswith("_")


@dataclass
class _Module:
    rel: str
    classes: list[_PluginClass] = field(default_factory=list)
    findings: list[Finding] = field(default_factory=list)


def _class_info(node: ast.ClassDef) -> _PluginClass:
    bases = tuple(
        base.id if isinstance(base, ast.Name) else
        base.attr if isinstance(base, ast.Attribute) else ""
        for base in node.bases
    )
    slug: str | None = None
    slug_line = node.lineno
    has_detect = False
    for statement in node.body:
        if isinstance(statement, ast.Assign):
            names = {t.id for t in statement.targets if isinstance(t, ast.Name)}
            if "slug" in names and isinstance(statement.value, ast.Constant):
                slug = str(statement.value.value)
                slug_line = statement.lineno
        if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if statement.name == "detect":
                has_detect = True
    return _PluginClass(node.name, node.lineno, bases, slug, slug_line, has_detect)


def extract_registered_names(tree: ast.Module) -> frozenset[str] | None:
    """Class names instantiated in ``ALL_PLUGINS`` — statically.

    Returns ``None`` when the registry cannot be located, in which case
    the registration check is skipped (minimal fixture trees).
    """
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Assign, ast.AnnAssign)):
            continue
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        if not any(isinstance(t, ast.Name) and t.id == "ALL_PLUGINS" for t in targets):
            continue
        value = node.value
        if not isinstance(value, (ast.Tuple, ast.List)):
            return None
        names = set()
        for element in value.elts:
            if isinstance(element, ast.Call) and isinstance(element.func, ast.Name):
                names.add(element.func.id)
        return frozenset(names)
    return None


class PluginContractAuditor:
    """Audit ``<root>/core/tsunami/plugins`` against the plugin API contract.

    ``known_slugs`` are the catalog's in-scope slugs and
    ``signature_slugs`` the prefilter corpus keys; both default to the
    installed package's values and may be overridden for fixture trees.
    """

    def __init__(
        self,
        root: Path,
        known_slugs: frozenset[str] | None = None,
        signature_slugs: frozenset[str] | None = None,
    ) -> None:
        self.root = Path(root)
        if known_slugs is None:
            from repro.apps.catalog import in_scope_apps

            known_slugs = frozenset(spec.slug for spec in in_scope_apps())
        if signature_slugs is None:
            from repro.core.prefilter import SIGNATURES

            signature_slugs = frozenset(SIGNATURES)
        self.known_slugs = known_slugs
        self.signature_slugs = signature_slugs

    def run(self, graph: CallGraph | None = None) -> list[Finding]:
        """Findings over ``graph``'s plugin trees (built if not given).
        A plugin that does not parse is left to the per-module pass."""
        plugins = Path("core", "tsunami", "plugins")
        package = (self.root.name / plugins).as_posix()
        if not (self.root / plugins).is_dir():
            return [Finding(package, 0, "LNT001", "plugins directory missing")]
        graph = graph or CallGraph(self.root)
        registered: frozenset[str] | None = None
        modules: list[_Module] = []
        for info in graph.modules.values():
            folder, _, name = info.rel.rpartition("/")
            if folder != package:
                continue
            if name == "__init__.py":
                registered = extract_registered_names(info.tree)
            elif info.parse_error is None:
                modules.append(self._audit_module(info))

        findings = [f for module in modules for f in module.findings]
        findings.extend(self._audit_registry(modules, registered))
        return findings

    def _audit_module(self, source: ModuleInfo) -> _Module:
        module = _Module(rel=source.rel)
        local_classes: dict[str, _PluginClass] = {}
        for node in ast.walk(source.tree):
            if isinstance(node, ast.ClassDef):
                info = _class_info(node)
                local_classes[info.name] = info
                module.classes.append(info)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                module.findings.extend(self._audit_import(module.rel, node))
            elif isinstance(node, ast.Attribute):
                if node.attr in _FORBIDDEN_ATTRIBUTES:
                    module.findings.append(Finding(
                        module.rel, node.lineno, "PLG004",
                        f"direct .{node.attr} access bypasses "
                        "PluginContext.fetch/fetch_json",
                    ))
            elif isinstance(node, ast.ExceptHandler):
                if node.type is None:
                    module.findings.append(Finding(
                        module.rel, node.lineno, "PLG005",
                        "bare except hides transport bugs and typos alike",
                    ))
            elif isinstance(node, ast.Call):
                func = node.func
                if (
                    isinstance(func, ast.Attribute)
                    and func.attr in _MUTATING_CALLS
                ):
                    module.findings.append(Finding(
                        module.rel, node.lineno, "PLG006",
                        f".{func.attr}() is state-changing; detection must "
                        "be GET-only",
                    ))

        def subclasses_base(info: _PluginClass, seen: frozenset[str]) -> bool:
            if _BASE_CLASS in info.bases:
                return True
            return any(
                base in local_classes and base not in seen
                and subclasses_base(local_classes[base], seen | {base})
                for base in info.bases
            )

        for info in module.classes:
            plugin_shaped = info.name.endswith("Plugin") or info.has_detect
            if not plugin_shaped:
                continue
            if not subclasses_base(info, frozenset()):
                module.findings.append(Finding(
                    module.rel, info.line, "PLG001",
                    f"{info.name} does not subclass {_BASE_CLASS}",
                ))
                continue
            if info.is_abstract_helper:
                continue
            if info.slug is None:
                module.findings.append(Finding(
                    module.rel, info.line, "PLG002",
                    f"{info.name} declares no slug",
                ))
                continue
            if info.slug not in self.known_slugs:
                module.findings.append(Finding(
                    module.rel, info.slug_line, "PLG002",
                    f"{info.name} slug {info.slug!r} is not an in-scope "
                    "catalog app",
                ))
            if info.slug not in self.signature_slugs:
                module.findings.append(Finding(
                    module.rel, info.slug_line, "PLG002",
                    f"{info.name} slug {info.slug!r} has no stage-II "
                    "signatures, so stage III would never run it",
                ))
        return module

    def _audit_import(
        self, rel: str, node: ast.Import | ast.ImportFrom
    ) -> list[Finding]:
        names: list[str] = []
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif node.module is not None:
            names = [node.module]
        findings = []
        for name in names:
            if any(
                name == banned or name.startswith(banned + ".")
                for banned in _FORBIDDEN_IMPORTS
            ):
                findings.append(Finding(
                    rel, node.lineno, "PLG004",
                    f"import of {name!r} bypasses PluginContext helpers",
                ))
        return findings

    def _audit_registry(
        self, modules: list[_Module], registered: frozenset[str] | None
    ) -> list[Finding]:
        findings: list[Finding] = []
        slug_owners: dict[str, tuple[str, str, int]] = {}
        for module in modules:
            for info in module.classes:
                if info.is_abstract_helper or info.slug is None:
                    continue
                previous = slug_owners.get(info.slug)
                if previous is not None:
                    findings.append(Finding(
                        module.rel, info.slug_line, "PLG007",
                        f"slug {info.slug!r} already claimed by "
                        f"{previous[1]} ({previous[0]})",
                    ))
                else:
                    slug_owners[info.slug] = (module.rel, info.name, info.line)
                if registered is not None and info.name not in registered:
                    findings.append(Finding(
                        module.rel, info.line, "PLG003",
                        f"{info.name} is not registered in ALL_PLUGINS",
                    ))
        return findings
