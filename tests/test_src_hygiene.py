"""Source hygiene of the geolqr package, read with the standard library's
ast: no module-level import goes unused, and no top-level private name is
left without a reference. Both catch the leftovers of a simplification.
No module raises a bare ValueError: a bad argument is a ValidationError
naming it."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "geolqr"
MODULES = {path.stem: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
           for path in sorted(PACKAGE.glob("*.py"))}


def _loaded_names(node) -> set:
    """Names read under node: bare names and attribute names."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
    return names


def _defined_names(node) -> list:
    """Names a top-level statement binds by def, class or assignment."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    targets = node.targets if isinstance(node, ast.Assign) else (
        [node.target] if isinstance(node, ast.AnnAssign) else [])
    return [t.id for target in targets for t in ast.walk(target) if isinstance(t, ast.Name)]


@pytest.mark.parametrize("module", [m for m in MODULES if m != "__init__"])
def test_every_module_level_import_is_used(module):
    tree = MODULES[module]
    used = _loaded_names(tree)
    unused = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound = [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound = [alias.asname or alias.name for alias in node.names]
        else:
            continue
        unused += [name for name in bound if name not in used]
    assert not unused, f"{module} imports but never uses {unused}"


def test_every_private_top_level_name_is_referenced():
    # A reference inside the name's own definition does not count.
    definitions, referenced = [], set()
    for module, tree in MODULES.items():
        for node in tree.body:
            names = _defined_names(node)
            definitions += [(module, name) for name in names
                            if name.startswith("_") and not name.startswith("__")]
            referenced |= _loaded_names(node) - set(names)
    orphans = [f"{module}.{name}" for module, name in definitions if name not in referenced]
    assert not orphans, f"private names no code references: {orphans}"


@pytest.mark.parametrize("module", list(MODULES))
def test_no_module_raises_a_bare_value_error(module):
    bare = []
    for node in ast.walk(MODULES[module]):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id == "ValueError":
                bare.append(node.lineno)
    assert not bare, f"{module} raises a bare ValueError at lines {bare}"
