"""Static hygiene of the package, read with ``ast``: no module imports a name
it never uses, and every name that ``toricbound/__init__.py`` imports exists
in the module it is imported from."""

import ast
import importlib
from pathlib import Path

import pytest

import toricbound

PACKAGE = Path(toricbound.__file__).parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _imported(tree: ast.Module) -> dict[str, int]:
    """Each name a module binds by an import, with the line of the import."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _used(tree: ast.Module) -> set[str]:
    """Every name a module reads, in code or as a quoted annotation."""
    return {
        node.id if isinstance(node, ast.Name) else node.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Name)
        or isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.isidentifier()
    }


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_no_unused_import(path):
    tree = ast.parse(path.read_text())
    used = _used(tree)
    unused = {name: line for name, line in _imported(tree).items() if name not in used}
    assert not unused, f"{path.name} imports names it never uses: {unused}"


def test_init_names_resolve():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    missing = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            module = importlib.import_module(f"toricbound.{node.module}")
            missing += [f"{node.module}.{a.name}" for a in node.names if not hasattr(module, a.name)]
    assert not missing, f"toricbound/__init__.py imports missing names: {missing}"


def test_unused_import_is_found():
    tree = ast.parse("from .intlin import vec_add, dot\n\n\ndef f(a, b):\n    return dot(a, b)\n")
    assert set(_imported(tree)) - _used(tree) == {"vec_add"}
