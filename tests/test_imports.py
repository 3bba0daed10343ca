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
