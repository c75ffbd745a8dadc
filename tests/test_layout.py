"""Every helper of the package has a caller in the package, and no module
rebinds a module-level name from inside a function.

A public top-level function or class of any module of ``src/wishartcond``,
or a public method of a public class, that nothing else in the package
uses, apart from its own definition, is library code that only tests
call; it should be deleted or moved into the tests.  A private top-level
function or class that nothing else in the package uses is dead code.
A ``global`` statement is mutable module state shared by every caller
and thread; a cache belongs to the function that fills it.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "wishartcond"
CHECKED = sorted(path.name for path in PACKAGE.glob("*.py"))


def _used_names(node, skip) -> set:
    """Names read (bare or as an attribute) anywhere inside `node`, leaving
    out the subtree `skip`."""
    out = set()
    stack = [node]
    while stack:
        sub = stack.pop()
        if sub is skip:
            continue
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        stack.extend(ast.iter_child_nodes(sub))
    return out


def _public_defs(tree) -> list:
    """Public top-level functions and classes, and the public methods of
    the public classes."""
    defs = []
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
            continue
        defs.append(node)
        if isinstance(node, ast.ClassDef):
            defs.extend(sub for sub in node.body
                        if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("_"))
    return defs


def _private_defs(tree) -> list:
    """Private top-level functions and classes."""
    return [node for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name.startswith("_")]


def _unreferenced(module: str, defs) -> list:
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.glob("*.py"))}
    missing = []
    for target in defs(trees[module]):
        # every statement of the package except the definition
        if not any(target.name in _used_names(tree, target) for tree in trees.values()):
            missing.append(target.name)
    return missing


@pytest.mark.parametrize("module", CHECKED)
def test_public_helpers_have_package_callers(module):
    assert _unreferenced(module, _public_defs) == []


@pytest.mark.parametrize("module", CHECKED)
def test_private_helpers_have_package_callers(module):
    assert _unreferenced(module, _private_defs) == []


@pytest.mark.parametrize("module", CHECKED)
def test_no_global_statements(module):
    tree = ast.parse((PACKAGE / module).read_text(encoding="utf-8"))
    assert [(node.lineno, node.names) for node in ast.walk(tree)
            if isinstance(node, ast.Global)] == []
