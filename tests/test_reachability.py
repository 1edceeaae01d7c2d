"""Every module of the package is reached from a real entry point.

The check walks the static import graph from the command line and the
service (``repro.cli``, ``repro.serve``) and from every script under
``perfbench/``, ``benchmarks/``, ``examples/`` and ``tools/``.  Tests are
not entry points: a module that only its own tests import is dead code
with a test attached.

Imports are read from the AST, wherever they sit in a module (lazy
function-level imports count).  ``from package import name`` resolves
``name`` through the package's ``__init__`` to the submodule that defines
it, so re-exporting a module does not keep it alive.  String references
also count: ``"repro.x.y:fn"`` trial specs and ``f"repro.pkg.{name}"``
dynamic imports (the latter reach every module directly under the
package).
"""

from __future__ import annotations

import ast
import re
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Set, Tuple

import repro

PACKAGE_DIR = Path(repro.__file__).resolve().parent
REPO = PACKAGE_DIR.parents[1]
ENTRY_MODULES = ("repro.cli", "repro.serve")
ENTRY_DIRS = ("perfbench", "benchmarks", "examples", "tools")

#: Modules reached only by tests, on purpose: module -> why it stays.
ORACLES = {
    "repro.cluster.validate":
        "clustering invariant checks the clustering tests use as an oracle",
    "repro.cluster.cluster_graph":
        "the directed cluster graph the Theorem 1 tests check",
}

_SPEC = re.compile(r"repro(?:\.\w+)+(?::\w+)?")

#: A reference: (module, imported name or None for the module itself).
Ref = Tuple[str, Optional[str]]


def _module_index() -> Dict[str, Path]:
    index = {}
    for path in PACKAGE_DIR.rglob("*.py"):
        parts = path.relative_to(PACKAGE_DIR.parent).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        index[".".join(parts)] = path
    return index


MODULES = _module_index()
PACKAGES = {m for m, p in MODULES.items() if p.name == "__init__.py"}


def _references(path: Path, module: str = "") -> Iterator[Ref]:
    """Everything ``path`` imports or names, as (module, name) pairs.

    A package ``__init__``'s top-level ``from ... import`` statements are
    re-exports: they are resolved name by name, never followed wholesale.
    """
    package = module if module in PACKAGES else module.rpartition(".")[0]
    tree = ast.parse(path.read_text(), str(path))
    reexports = set()
    if module in PACKAGES:
        reexports = {id(node) for node in tree.body
                     if isinstance(node, ast.ImportFrom)}
    for node in ast.walk(tree):
        if id(node) in reexports:
            continue
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, None
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                anchor = package.split(".")
                anchor = anchor[:len(anchor) - node.level + 1]
                base = ".".join(anchor + ([base] if base else []))
            for alias in node.names:
                yield base, alias.name
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if _SPEC.fullmatch(node.value):
                target, _, name = node.value.partition(":")
                yield target, name or None
        elif isinstance(node, ast.JoinedStr) and node.values:
            head = node.values[0]
            if (isinstance(head, ast.Constant)
                    and isinstance(head.value, str)
                    and head.value.endswith(".")
                    and head.value[:-1] in PACKAGES):
                prefix = head.value
                for m in MODULES:
                    if (m.startswith(prefix)
                            and "." not in m[len(prefix):]):
                        yield m, None


def _reexports(package: str) -> Dict[str, Ref]:
    """Names a package ``__init__`` binds by import -> where they come from."""
    bound = {}
    tree = ast.parse(MODULES[package].read_text())
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module and not node.level:
            for alias in node.names:
                bound[alias.asname or alias.name] = (node.module, alias.name)
    return bound


def reached_modules(entries: List[Ref]) -> Set[str]:
    """Modules reached from ``entries`` by the resolution described above."""
    reached: Set[str] = set()
    followed: Set[str] = set()
    stack = list(entries)
    while stack:
        module, name = stack.pop()
        if module not in MODULES:
            continue
        reached.add(module)
        submodule = f"{module}.{name}"
        if name is not None and submodule in MODULES:
            stack.append((submodule, None))
            continue
        if module in PACKAGES and name == "*":
            stack.extend(_reexports(module).values())
        elif module in PACKAGES and name is not None:
            origin = _reexports(module).get(name)
            if origin is not None:
                stack.append(origin)
                continue
        if module not in followed:
            followed.add(module)
            stack.extend(_references(MODULES[module], module))
    return reached


def entry_points() -> List[Ref]:
    entries: List[Ref] = [(m, None) for m in ENTRY_MODULES]
    for directory in ENTRY_DIRS:
        for path in sorted((REPO / directory).rglob("*.py")):
            entries.extend(_references(path))
    return entries


def test_every_module_reached_from_an_entry_point():
    reached = reached_modules(entry_points())
    unreached = sorted(
        m for m in MODULES
        if m not in reached and m not in PACKAGES and m not in ORACLES
    )
    assert unreached == [], (
        f"modules reached only by tests (delete them, or name them in "
        f"ORACLES with a reason): {unreached}"
    )


def test_oracles_exist_and_are_not_otherwise_reached():
    reached = reached_modules(entry_points())
    for module in ORACLES:
        assert module in MODULES
        assert module not in reached, f"{module} is live; drop it from ORACLES"
