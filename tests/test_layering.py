"""The layers import only downwards: the front end does not reach the
verbaliser or the command line, the relational algebra does not reach
the path expressions or anything built on them, and the schema, which
holds the plans of its rules and constraints, reaches none of the layers
that build or run them.

Imports are read with ``ast``, those inside functions included, and a
relative import is resolved against the module that makes it.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
MODULES = sorted((SRC / "conquer").rglob("*.py"))

# (layer, modules no module of the layer may import)
RULES = [
    ("conquer.frontend", {"conquer.verbalise", "conquer.cli"}),
    ("conquer.relalg", {"conquer.paths", "conquer.frontend", "conquer.verbalise", "conquer.cli"}),
    ("conquer.schema", {"conquer.relalg", "conquer.paths", "conquer.frontend"}),
]


def module_name(path: Path) -> str:
    parts = path.relative_to(SRC).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def imported_names(path: Path) -> set[str]:
    """The dotted name of every import in ``path``; ``from m import n``
    gives both ``m`` and ``m.n``, since ``n`` may be a module."""
    package = module_name(path).split(".")
    if path.name != "__init__.py":
        package = package[:-1]
    out = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            out.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                anchor = package[: len(package) - node.level + 1]
                base = ".".join(anchor + ([node.module] if node.module else []))
            out.add(base)
            out.update(f"{base}.{alias.name}" for alias in node.names)
    return out


def within(name: str, layer: str) -> bool:
    return name == layer or name.startswith(layer + ".")


CASES = [
    (path, forbidden)
    for path in MODULES
    for layer, forbidden in RULES
    if within(module_name(path), layer)
]


def test_every_layer_is_checked():
    assert all(any(within(module_name(p), layer) for p in MODULES) for layer, _ in RULES)


@pytest.mark.parametrize(
    "path, forbidden", CASES, ids=[module_name(path) for path, _ in CASES]
)
def test_imports_stay_below(path, forbidden):
    upward = sorted(n for n in imported_names(path) if any(within(n, m) for m in forbidden))
    assert upward == []
