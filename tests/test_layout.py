"""Every helper and every defaulted parameter of the package has a caller
in the package, and no module rebinds a module-level name from inside a
function.

A public top-level function or class of any module of ``src/wishartcond``,
or a public method of a public class, that nothing else in the package
uses, apart from its own definition, is library code that only tests
call; it should be deleted or moved into the tests.  A private top-level
function or class that nothing else in the package uses is dead code.
A defaulted parameter that no call in the package passes (by position,
by keyword, through * or **, or through functools.partial) is an option
that only tests set.
A ``global`` statement is mutable module state shared by every caller
and thread; a cache belongs to the function that fills it.
An ``np.take`` into ``out=`` in numpy's default "raise" mode first gathers
into a hidden copy as large as ``out``, so every such take names another
mode.
Random draws come only from ``np.random.Generator`` over an
``np.random.Philox`` built with an explicit ``key=``, so no unkeyed or
module-level generator can make a draw depend on anything but its seed.
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


# (module, function, parameter) whose default no call in the package
# overrides, each with the reason it stays
_UNPASSED_DEFAULTS = {
    # the console-script entry point: the installed script calls main() and
    # it reads sys.argv; argv is for callers outside the package
    ("cli.py", "main", "argv"),
    # the benchmark's figure check passes it positionally; it limits nothing
    # and goes once that check no longer passes it
    ("exact.py", "cdf_kappa_d_interp", "y_max"),
    # the benchmark's density check passes precision="double"; it changes
    # nothing and goes once that check no longer passes it
    ("exact.py", "pdf_lambda_min_grid", "precision"),
}


def _defaulted(fn, method: bool) -> list:
    """(position in a call, or None if keyword-only; name) of each parameter
    of fn with a default.  A method's position leaves out self."""
    args = fn.args
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    out = [(i - method, arg.arg) for i, arg in enumerate(positional) if i >= first]
    return out + [(None, arg.arg) for arg, default in zip(args.kwonlyargs, args.kw_defaults)
                  if default is not None]


def _functions(tree):
    """(function, whether it is a method called through its instance)."""
    methods = {id(sub) for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
               for sub in node.body if isinstance(sub, ast.FunctionDef)
               and not any(getattr(d, "id", None) == "staticmethod" for d in sub.decorator_list)}
    return [(node, id(node) in methods) for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef)]


def _name(node):
    return node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)


def _call_sites(trees) -> dict:
    """Callee name -> (positional arguments, keywords) of each call, where
    functools.partial(f, ...) counts as a call of f."""
    sites: dict = {}
    for tree in trees:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            callee, args = _name(node.func), node.args
            if callee == "partial" and args:
                callee, args = _name(args[0]), args[1:]
            sites.setdefault(callee, []).append((args, node.keywords))
    return sites


def _passes(site, position, name) -> bool:
    args, keywords = site
    if any(k.arg is None or k.arg == name for k in keywords):
        return True     # by keyword, or possibly through **
    if position is None:
        return False
    return len(args) > position or any(isinstance(a, ast.Starred) for a in args)


def test_defaulted_parameters_have_package_callers():
    # a default that no call in the package overrides is an option that only
    # tests exercise: library code that only tests call
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.glob("*.py"))}
    sites = _call_sites(trees.values())
    unpassed = []
    for module, tree in trees.items():
        for fn, method in _functions(tree):
            for position, name in _defaulted(fn, method):
                if (module, fn.name, name) in _UNPASSED_DEFAULTS:
                    continue
                if not any(_passes(site, position, name) for site in sites.get(fn.name, ())):
                    unpassed.append(f"{module}: {fn.name}({name})")
    assert unpassed == []


def _takes_into_out(tree) -> list:
    """(line, mode) of each np.take or array .take call that passes out, with
    the mode it passes (None for the default, or a mode that is no literal)."""
    found = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and _name(node.func) == "take"):
            continue
        # np.take(a, indices, axis, out, mode); a.take(indices, axis, out, mode)
        first = 3 if getattr(node.func.value, "id", None) in ("np", "numpy") else 2
        keywords = {k.arg: k.value for k in node.keywords}
        if "out" not in keywords and len(node.args) <= first:
            continue
        mode = keywords.get("mode", node.args[first + 1] if len(node.args) > first + 1 else None)
        found.append((node.lineno, getattr(mode, "value", None)))
    return found


@pytest.mark.parametrize("module", CHECKED)
def test_takes_into_out_do_not_buffer(module):
    tree = ast.parse((PACKAGE / module).read_text(encoding="utf-8"))
    assert [(line, mode) for line, mode in _takes_into_out(tree)
            if mode not in ("clip", "wrap")] == []


_RANDOM_ALLOWED = ("Generator", "Philox")


def _random_misuses(tree) -> list:
    """(line, what) of each ``np.random`` attribute other than Generator and
    Philox, each import from or of ``numpy.random``, and each Philox call
    without ``key=``."""
    found = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Attribute)
                and node.value.attr == "random"
                and getattr(node.value.value, "id", None) in ("np", "numpy")
                and node.attr not in _RANDOM_ALLOWED):
            found.append((node.lineno, f"np.random.{node.attr}"))
        elif isinstance(node, ast.ImportFrom) and (
                (node.module or "").startswith("numpy.random")
                or node.module == "numpy" and any(a.name == "random" for a in node.names)):
            found.append((node.lineno, f"from {node.module} import"))
        elif (isinstance(node, ast.Call) and _name(node.func) == "Philox"
              and not any(k.arg == "key" for k in node.keywords)):
            found.append((node.lineno, "Philox without key="))
    return sorted(found)


def test_random_misuses_are_caught():
    tree = ast.parse("import numpy as np\n"
                     "from numpy.random import default_rng\n"
                     "a = np.random.default_rng(1)\n"
                     "b = np.random.Generator(np.random.Philox(5))\n"
                     "c = np.random.Generator(np.random.Philox(key=5, counter=1))\n"
                     "from numpy import random\n")
    assert _random_misuses(tree) == [(2, "from numpy.random import"),
                                     (3, "np.random.default_rng"), (4, "Philox without key="),
                                     (6, "from numpy import")]


@pytest.mark.parametrize("module", CHECKED)
def test_random_draws_come_from_keyed_philox(module):
    tree = ast.parse((PACKAGE / module).read_text(encoding="utf-8"))
    assert _random_misuses(tree) == []
