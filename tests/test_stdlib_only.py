"""The runtime imports nothing but the standard library and itself."""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "conquer"
MODULES = sorted(SRC.rglob("*.py"))


def absolute_imports(path: Path) -> list[str]:
    """The top-level package of each absolute import in ``path``."""
    names = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            names.extend(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module.split(".")[0])
    return names


def test_every_module_is_checked():
    assert len(MODULES) > 10


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(SRC)))
def test_imports_are_standard_library(path):
    outside = [n for n in absolute_imports(path) if n != "conquer" and n not in sys.stdlib_module_names]
    assert outside == []
