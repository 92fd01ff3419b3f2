"""Every name a module imports is used in that module.

Package ``__init__`` modules are skipped: their imports are re-exports.
``from __future__`` imports are skipped. A name counts as used when it
appears as a ``Name`` node, as the root of an attribute chain (``np`` in
``np.array``), or inside a string annotation such as ``"Incident"``.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(
    path
    for base in (ROOT / "src" / "pipegov", ROOT / "tests")
    for path in base.rglob("*.py")
    if path.name != "__init__.py"
)


def _imported(tree: ast.Module) -> dict[str, int]:
    """Local name bound by each import statement -> its line."""

    names: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _annotation_strings(tree: ast.Module):
    """Every string used as (or inside) an annotation."""

    for node in ast.walk(tree):
        # ast.arg and ast.AnnAssign carry `annotation`, functions `returns`.
        for annotation in (getattr(node, "annotation", None), getattr(node, "returns", None)):
            if annotation is None:
                continue
            for sub in ast.walk(annotation):
                if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                    yield sub.value


def _used(tree: ast.Module) -> set[str]:
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for text in _annotation_strings(tree):
        try:
            parsed = ast.parse(text, mode="eval")
        except SyntaxError:
            continue
        used.update(node.id for node in ast.walk(parsed) if isinstance(node, ast.Name))
    return used


def unused_imports(source: str) -> list[tuple[int, str]]:
    tree = ast.parse(source)
    used = _used(tree)
    return sorted((line, name) for name, line in _imported(tree).items() if name not in used)


@pytest.mark.parametrize(
    "source, expected",
    [
        ("from dataclasses import dataclass, field\n@dataclass\nclass A: pass\n", [(1, "field")]),
        ("import os.path\nos.path.join('a')\n", []),
        ("import numpy as np\n", [(1, "np")]),
        ("from x import T\ndef f(a: 'T') -> None: pass\n", []),
        ("from x import T\ny: 'list[T] | None' = None\n", []),
        ("from __future__ import annotations\n", []),
        ("def f():\n    from x import y\n    return 1\n", [(2, "y")]),
    ],
)
def test_scanner(source, expected):
    assert unused_imports(source) == expected


def test_no_unused_imports():
    scanned = {path.relative_to(ROOT).as_posix(): path for path in MODULES}
    assert "src/pipegov/agents/controller.py" in scanned
    assert "tests/test_imports.py" in scanned
    found = {name: unused_imports(path.read_text()) for name, path in scanned.items()}
    assert {name: unused for name, unused in found.items() if unused} == {}
