"""Every public helper of the package has a caller in the package.

A top-level function or class of any module of ``src/wishartcond`` that
nothing else in the package uses, apart from its own definition, is
library code that only tests call; it should be deleted or moved into the
tests.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "wishartcond"
CHECKED = sorted(path.name for path in PACKAGE.glob("*.py"))


def _used_names(node) -> set:
    """Names read (bare or as an attribute) anywhere inside `node`."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
    return out


def _unreferenced(module: str) -> list:
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.glob("*.py"))}
    defs = [node for node in trees[module].body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")]
    missing = []
    for target in defs:
        # every top-level statement of the package except the definition
        others = [node for tree in trees.values() for node in tree.body
                  if node is not target]
        if not any(target.name in _used_names(node) for node in others):
            missing.append(target.name)
    return missing


@pytest.mark.parametrize("module", CHECKED)
def test_public_helpers_have_package_callers(module):
    assert _unreferenced(module) == []
