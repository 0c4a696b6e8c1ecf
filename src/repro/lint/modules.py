"""The one parse of an audited tree, which every analyzer reads.

``python -m repro.lint`` parses each ``.py`` file under the scanned root
exactly once: the signature auditor reads ``core/prefilter.py``'s tree
and the per-module ``DET``/``OBS`` walk reads every tree.  Nothing is
imported, so fixture trees lint the same way as the package.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path


@dataclass
class ModuleInfo:
    """One parsed ``.py`` file."""

    name: str                   # dotted name ("repro.core.parallel")
    rel: str                    # findings path ("repro/core/parallel.py")
    tree: ast.Module
    #: a file that fails to parse carries the error and an empty tree
    parse_error: str | None = None


def parse_modules(root: Path) -> dict[str, ModuleInfo]:
    """Every ``*.py`` under ``root``, by dotted name, each parsed once."""
    root = Path(root)
    modules: dict[str, ModuleInfo] = {}
    for path in sorted(root.rglob("*.py")):
        if "__pycache__" in path.parts:
            continue
        parts = list(path.relative_to(root).with_suffix("").parts)
        if parts[-1] == "__init__":
            parts.pop()
        name = ".".join([root.name, *parts])
        rel = (Path(root.name) / path.relative_to(root)).as_posix()
        try:
            tree = ast.parse(path.read_text(), filename=str(path))
        except (OSError, SyntaxError) as error:
            empty = ast.Module(body=[], type_ignores=[])
            modules[name] = ModuleInfo(name, rel, empty, str(error))
            continue
        modules[name] = ModuleInfo(name, rel, tree)
    return modules
