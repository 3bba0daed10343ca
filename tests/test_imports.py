"""No module under src/ or tests/ imports a name it never uses."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted(p for top in ("src", "tests") for p in (ROOT / top).rglob("*.py"))


def _names(tree: ast.AST) -> set[str]:
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def unused_imports(source: str) -> list[str]:
    """Names a module imports and never uses, counting string annotations."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = _names(tree)
    for node in ast.walk(tree):
        annotations = []
        if isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        for annotation in filter(None, annotations):
            for const in ast.walk(annotation):
                if isinstance(const, ast.Constant) and isinstance(const.value, str):
                    used |= _names(ast.parse(const.value, mode="eval"))
    return [f"{name} (line {line})" for name, line in sorted(imported.items())
            if name not in used and name != "*"]


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "__init__.py"],
                         ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    # an __init__ imports to re-export, so it is not scanned
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_scan_flags_unused_and_counts_string_annotations():
    source = (
        "from __future__ import annotations\n"
        "import os, numpy as np\n"
        "from typing import TYPE_CHECKING, Sequence\n"
        "if TYPE_CHECKING:\n"
        "    from .loop import HistoryEntry\n"
        "def f(h: Sequence['HistoryEntry']) -> None:\n"
        "    return np.zeros(1)\n"
    )
    assert unused_imports(source) == ["os (line 2)"]


PACKAGE = sorted((ROOT / "src" / "swizzlesim").glob("*.py"))


def _private_definitions(tree: ast.Module):
    """(name, defining node) of each single-underscore module-level name."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node


def _references(tree: ast.AST, skip: ast.AST) -> set[str]:
    """Names loaded, and attributes read, anywhere in ``tree`` outside ``skip``."""
    found = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return found


def unreferenced_privates(sources: dict[str, str]) -> list[str]:
    """Private module-level names of ``sources`` that no module references
    outside the name's own definition."""
    trees = {path: ast.parse(text) for path, text in sources.items()}
    unused = []
    for path, tree in trees.items():
        for name, node in _private_definitions(tree):
            if not any(name in _references(other, node) for other in trees.values()):
                unused.append(f"{path}: {name} (line {node.lineno})")
    return unused


def test_every_private_module_name_is_referenced():
    sources = {str(p.relative_to(ROOT)): p.read_text(encoding="utf-8") for p in PACKAGE}
    assert unreferenced_privates(sources) == []


def test_private_scan_flags_a_leftover_table():
    sources = {
        "a.py": (
            "def _gen(spec):\n    return _gen(spec - 1) if spec else 0\n"
            "_TABLE = {'k': _gen}\n"
            "def _used():\n    return 1\n"
            "__all__ = []\n"
        ),
        "b.py": "from a import _used\nvalue = _used()\n",
    }
    assert unreferenced_privates(sources) == ["a.py: _TABLE (line 3)"]
