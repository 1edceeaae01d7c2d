"""Every module and every symbol of the package is reached from an entry point.

The module check walks the static import graph from the command line and
the service (``repro.cli``, ``repro.serve``) and from every script under
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

The symbol check applies the same rule one level down, by name: every
top-level function and class, and every public method and property of a
top-level class, must be named by live code.  Live code is the scripts
in the entry directories, the module-level statements of the package
(a package ``__init__``'s re-exports included: they are the public
API), and the body of every live symbol.  A symbol named only from
inside dead symbols is dead too (the check iterates to a fixpoint); its
own body never keeps it alive, and docstrings name nothing.  Names match
by their last component, so a method is kept alive by any attribute of
the same name.  Dunders are exempt.  The modules in ``ORACLES`` and the
symbols in ``SYMBOL_ORACLES`` are test-only on purpose: they count as
live, and a companion test checks that nothing else reaches them.

Every file is parsed once per session; the scans share the trees.
"""

from __future__ import annotations

import ast
import re
from functools import lru_cache
from pathlib import Path
from typing import Dict, FrozenSet, Iterator, List, Optional, Set, Tuple

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

#: Symbols reached only by tests, on purpose: "module:qualname" -> why.
#: A symbol stays here only if a test uses it as an oracle or golden
#: reader, or it builds a fixture that three or more test files use.
SYMBOL_ORACLES = {
    "repro.coverage.entries:CoverageSet.restricted":
        "selecting over the restricted set is the oracle for pruned "
        "selection (test_backbone_gateway_selection)",
    "repro.geometry.grid:SpatialGrid.pairs_within":
        "the per-pair grid query is the oracle for the vectorised pair "
        "arrays (test_graph_csr)",
    "repro.graph.adjacency:Graph.add_edges":
        "pair-by-pair insertion is the neighbour-order oracle for the "
        "one-pass unit-disk builders (test_graph_build); also builds "
        "fixtures in test_graph_csr and test_graph_adjacency",
    "repro.graph.traversal:nodes_at_distance":
        "the exact 2-hop ring is the MPR coverage oracle "
        "(test_broadcast_mpr)",
    "repro.serve.client:ServeClient.status":
        "the client mirrors every served op; the serve tests drive "
        "`status` through it",
    "repro.sim.engine:Simulator.events_processed":
        "the golden event count test_golden_pins reads",
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


@lru_cache(maxsize=None)
def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), str(path))


def _entry_files() -> List[Path]:
    return [path for directory in ENTRY_DIRS
            for path in sorted((REPO / directory).rglob("*.py"))]


@lru_cache(maxsize=None)
def _references(path: Path, module: str = "") -> Tuple[Ref, ...]:
    """Everything ``path`` imports or names, as (module, name) pairs.

    A package ``__init__``'s top-level ``from ... import`` statements are
    re-exports: they are resolved name by name, never followed wholesale.
    """
    return tuple(_walk_references(path, module))


def _walk_references(path: Path, module: str) -> Iterator[Ref]:
    package = module if module in PACKAGES else module.rpartition(".")[0]
    tree = _tree(path)
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


@lru_cache(maxsize=None)
def _reexports(package: str) -> Dict[str, Ref]:
    """Names a package ``__init__`` binds by import -> where they come from."""
    bound = {}
    for node in _tree(MODULES[package]).body:
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
    for path in _entry_files():
        entries.extend(_references(path))
    return entries


@lru_cache(maxsize=None)
def _reached() -> FrozenSet[str]:
    return frozenset(reached_modules(entry_points()))


def test_every_module_reached_from_an_entry_point():
    unreached = sorted(
        m for m in MODULES
        if m not in _reached() and m not in PACKAGES and m not in ORACLES
    )
    assert unreached == [], (
        f"modules reached only by tests (delete them, or name them in "
        f"ORACLES with a reason): {unreached}"
    )


def test_oracles_exist_and_are_not_otherwise_reached():
    for module in ORACLES:
        assert module in MODULES
        assert module not in _reached(), (
            f"{module} is live; drop it from ORACLES")


# ---------------------------------------------------------------------------
# Symbols
# ---------------------------------------------------------------------------

_Def = (ast.FunctionDef, ast.AsyncFunctionDef)


def _names(nodes, aliases: Dict[str, Set[str]],
           skip: FrozenSet[int] = frozenset()) -> Set[str]:
    """Names that ``nodes`` use: Name, Attribute, import alias, spec string.

    A name bound by ``from m import a as b`` counts as ``a`` wherever ``b``
    is used.  Subtrees whose ``id`` is in ``skip`` are left out.
    """
    found: Set[str] = set()
    stack = list(nodes)
    while stack:
        node = stack.pop()
        if id(node) in skip:
            continue
        if isinstance(node, ast.Name):
            found.add(node.id)
            found.update(aliases.get(node.id, ()))
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name.rpartition(".")[2])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if _SPEC.fullmatch(node.value) and ":" in node.value:
                found.add(node.value.partition(":")[2])
        stack.extend(ast.iter_child_nodes(node))
    return found


def _aliases(tree: ast.Module) -> Dict[str, Set[str]]:
    aliases: Dict[str, Set[str]] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            for alias in node.names:
                if alias.asname and alias.asname != alias.name:
                    aliases.setdefault(alias.asname, set()).add(alias.name)
    return aliases


class _Symbol:
    """One checked symbol: its key, its name, its class, what it names."""

    __slots__ = ("key", "name", "owner", "refs")

    def __init__(self, key: str, name: str, owner: Optional[str],
                 refs: Set[str]):
        self.key, self.name, self.owner, self.refs = key, name, owner, refs


def _is_dunder_all(node: ast.stmt) -> bool:
    return (isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__"
                    for t in node.targets))


@lru_cache(maxsize=None)
def _symbol_table() -> Tuple[Dict[str, _Symbol], FrozenSet[str]]:
    """Every checked symbol, and the names that code outside them uses.

    A package ``__init__``'s re-exports are the public API and count as
    named.  Other imports name nothing on their own: an imported name is
    counted where it is used, so that a name used only by a dead symbol
    dies with it (the unused-import test catches the import left behind).
    """
    symbols: Dict[str, _Symbol] = {}
    roots: Set[str] = set()
    for path in _entry_files():
        roots |= _names([_tree(path)], {})
    for module, path in sorted(MODULES.items()):
        tree = _tree(path)
        aliases = _aliases(tree)
        loose = []
        for node in tree.body:
            if isinstance(node, _Def + (ast.ClassDef,)):
                if (node.name.startswith("__") and node.name.endswith("__")
                        or module in ORACLES):
                    loose.append(node)
                    continue
                key = f"{module}:{node.name}"
                methods = []
                if isinstance(node, ast.ClassDef):
                    methods = [m for m in node.body if isinstance(m, _Def)
                               and not m.name.startswith("_")]
                symbols[key] = _Symbol(
                    key, node.name, None,
                    _names([node], aliases, frozenset(map(id, methods))))
                for method in methods:
                    mkey = f"{key}.{method.name}"
                    refs = _names([method], aliases)
                    if mkey in symbols:  # a property setter or deleter
                        symbols[mkey].refs |= refs
                    else:
                        symbols[mkey] = _Symbol(mkey, method.name, key, refs)
            elif module in PACKAGES and isinstance(node, ast.ImportFrom):
                roots |= _names(node.names, {})  # public re-exports
            elif (isinstance(node, (ast.Import, ast.ImportFrom))
                  or _is_dunder_all(node)):
                continue
            else:
                loose.append(node)
        roots |= _names(loose, aliases)
    return symbols, frozenset(roots)


def live_symbols(seeds: FrozenSet[str] = frozenset()) -> Set[str]:
    """Keys of the symbols reached from the roots (and from ``seeds``)."""
    symbols, roots = _symbol_table()
    named = set(roots)
    live: Set[str] = set()
    for key in seeds:
        live.add(key)
        named |= symbols[key].refs
    changed = True
    while changed:
        changed = False
        for key, symbol in symbols.items():
            if key in live or symbol.name not in named:
                continue
            if symbol.owner is not None and symbol.owner not in live:
                continue
            live.add(key)
            named |= symbol.refs
            changed = True
    return live


def test_every_symbol_reached_from_an_entry_point():
    symbols, _ = _symbol_table()
    live = live_symbols(frozenset(SYMBOL_ORACLES))
    unreached = sorted(k for k in symbols if k not in live)
    assert unreached == [], (
        f"functions, classes or methods that no entry point reaches "
        f"(delete them, or name them in SYMBOL_ORACLES with a reason): "
        f"{unreached}"
    )


def test_symbol_oracles_exist_and_are_not_otherwise_reached():
    symbols, _ = _symbol_table()
    live = live_symbols()
    for key, reason in SYMBOL_ORACLES.items():
        assert key in symbols, f"{key} is not a symbol of the package"
        assert key not in live, f"{key} is live; drop it from SYMBOL_ORACLES"
        assert reason


# ---------------------------------------------------------------------------
# Imports
# ---------------------------------------------------------------------------

def _quoted_annotation_names(tree: ast.Module) -> Set[str]:
    """Names used inside string annotations such as ``Optional["Foo"]``."""
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.arg | ast.AnnAssign):
            annotations.append(node.annotation)
        elif isinstance(node, _Def):
            annotations.append(node.returns)
    names: Set[str] = set()
    for annotation in filter(None, annotations):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                try:
                    quoted = ast.parse(node.value, mode="eval")
                except SyntaxError:  # a Literal["..."] value, not a name
                    continue
                names |= {n.id for n in ast.walk(quoted)
                          if isinstance(n, ast.Name)}
    return names


def _unused_imports(path: Path) -> List[str]:
    tree = _tree(path)
    reexports = set()
    if path.name == "__init__.py":
        reexports = {id(node) for node in tree.body
                     if isinstance(node, ast.ImportFrom)}
    bound: Dict[str, int] = {}
    for node in ast.walk(tree):
        if id(node) in reexports:
            continue
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.partition(".")[0]] = \
                    node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used |= _quoted_annotation_names(tree)
    for node in tree.body:
        if _is_dunder_all(node):
            used |= {elt.value for elt in node.value.elts}
    return [f"{path.relative_to(REPO)}:{line}: {name}"
            for name, line in sorted(bound.items(), key=lambda x: x[1])
            if name not in used]


def test_no_unused_imports():
    unused = [entry for path in sorted(MODULES.values())
              for entry in _unused_imports(path)]
    assert unused == [], f"unused imports: {unused}"
