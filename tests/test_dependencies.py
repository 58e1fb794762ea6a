"""The library imports only the standard library and what pyproject.toml declares.

A module that is merely installed where the tests run (scipy, say) would
pass every other test and still break a clean ``pip install``.
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
