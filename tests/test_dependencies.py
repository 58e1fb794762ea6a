"""The library imports only the standard library and what pyproject.toml declares,
and its modules import each other without a cycle.

A module that is merely installed where the tests run (scipy, say) would
pass every other test and still break a clean ``pip install``.  An import
cycle means two modules each own part of one decision.
"""

import ast
import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SOURCES = sorted((REPO / "src" / "risbeam").glob("*.py"))


def _declared_dependencies() -> set:
    text = (REPO / "pyproject.toml").read_text(encoding="utf-8")
    listed = re.search(r"^dependencies\s*=\s*\[(.*?)\]", text, re.M | re.S).group(1)
    return {re.split(r"[<>=!~ \[;]", name, maxsplit=1)[0]
            for name in re.findall(r'"([^"]+)"', listed)}


def _imported_top_level(path: Path) -> set:
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_declared_dependencies_are_numpy_only():
    assert _declared_dependencies() == {"numpy"}


def test_library_imports_only_stdlib_and_declared_dependencies():
    allowed = set(sys.stdlib_module_names) | _declared_dependencies() | {"risbeam"}
    assert SOURCES
    undeclared = {path.name: sorted(_imported_top_level(path) - allowed)
                  for path in SOURCES}
    assert {name: mods for name, mods in undeclared.items() if mods} == {}


def _sibling_imports(path: Path) -> set:
    """Package modules that ``from . import x`` and ``from .x import y`` name."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            names.update([node.module] if node.module
                         else [alias.name for alias in node.names])
    return names


def test_package_imports_are_acyclic():
    graph = {path.stem: _sibling_imports(path) for path in SOURCES}
    assert graph["cli"] and graph["design"]
    # Peel off, round by round, the modules that import nothing left; a
    # cycle, and whatever imports into it, is what can never be peeled.
    left = dict(graph)
    while True:
        peeled = [name for name, deps in left.items() if not deps & left.keys()]
        if not peeled:
            break
        for name in peeled:
            del left[name]
    assert {name: sorted(deps & left.keys()) for name, deps in left.items()} == {}
