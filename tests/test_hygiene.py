"""Static hygiene of the package, read with ``ast``: no module imports a name
it never uses, every name that ``toricbound/__init__.py`` imports exists in
the module it is imported from, and every public function and method is
reached by something other than its own unit tests."""

import ast
import doctest
import importlib
import re
from collections import Counter
from pathlib import Path

import pytest

import toricbound

PACKAGE = Path(toricbound.__file__).parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
ROOT = Path(__file__).resolve().parents[1]
# What counts as a use of the library: the package itself, the tools, the
# benchmark, the acceptance suite and the README. The unit tests do not.
READERS = [*ROOT.glob("tools/*.py"), *ROOT.glob("benchmark/*.py"), ROOT / "tests" / "test_acceptance.py"]

# Public names kept although only their unit tests reach them, each with the
# ROADMAP item that uses or removes it.
UNREACHED_ALLOWED = {
    "bounded.certify_K0_membership": "items 1 and 8",
    "bounded.certify_orbit_meeting": "items 1 and 8",
    "bounded.initial_form": "items 1 and 17",
    "hilbert.binomial_parts": "item 14",
    "surface.function_ring_basis": "item 16",
}


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


def _reads(tree: ast.AST) -> Counter:
    """How often each name is read: as a name, an attribute or an imported name."""
    reads = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            reads[node.id] += 1
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            reads[node.attr] += 1
        elif isinstance(node, ast.ImportFrom):
            reads.update(alias.name for alias in node.names)
    return reads


def _readme_reads(text: str) -> Counter:
    """The names read by the README's doctest examples and its inline code."""
    reads = Counter()
    for example in doctest.DocTestParser().get_examples(text):
        reads += _reads(ast.parse(example.source))
    reads.update(re.findall(r"\w+", " ".join(re.findall(r"`([^`\n]+)`", text))))
    return reads


def _unreached(modules: dict[str, ast.Module], reads: Counter) -> set[str]:
    """The public top-level functions and methods of ``modules`` whose name is
    read nowhere but inside their own definition. ``reads`` counts the reads
    of the modules themselves and of every other reader."""
    defs = []
    for stem, tree in modules.items():
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                defs.append((f"{stem}.{node.name}", node))
            elif isinstance(node, ast.ClassDef):
                methods = (m for m in node.body if isinstance(m, ast.FunctionDef))
                defs += [(f"{stem}.{node.name}.{m.name}", m) for m in methods]
    return {
        qualname for qualname, node in defs
        if not node.name.startswith("_") and reads[node.name] <= _reads(node)[node.name]
    }


def _allow_list_errors(unreached: set[str], allowed) -> list[str]:
    """One line for each unreached name the allow-list lacks, and for each
    allow-listed name that is reached after all, so the list cannot go stale."""
    allowed = set(allowed)
    return [f"{name} is reached only by its unit tests" for name in sorted(unreached - allowed)] + [
        f"{name} is allow-listed but reached" for name in sorted(allowed - unreached)
    ]


def test_public_names_are_reached():
    """A public function or method that only its own unit tests call is dead
    weight: delete it, or name it in ``UNREACHED_ALLOWED`` with the item that
    will use it.

    The rule matches by name, so it is one-sided: a method named like one
    that is used (``ShiftedPolyhedron.contains`` like ``RationalCone.contains``)
    passes unchecked, and dunder methods are out of its scope."""
    modules = {path.stem: ast.parse(path.read_text()) for path in MODULES}
    reads = sum((_reads(tree) for tree in modules.values()), Counter())
    reads += sum((_reads(ast.parse(path.read_text())) for path in READERS), Counter())
    reads += _readme_reads((ROOT / "README.md").read_text())
    errors = _allow_list_errors(_unreached(modules, reads), UNREACHED_ALLOWED)
    assert not errors, errors


def test_unreached_name_is_found():
    module = ast.parse(
        "def used(): return helper()\n\n\ndef helper(): pass\n\n\n"
        "def tested(n): return tested(n - 1)\n\n\ndef kept(): pass\n\n\n"
        "def _private(): pass\n\n\nclass C:\n    def method(self): pass\n"
    )
    program = ast.parse("from .mod import used\n\nused()\n")
    unit_test = ast.parse(
        "from mod import C, kept, tested\n\n\ndef test_t():\n    tested(3)\n    C().method()\n"
    )
    assert not _unreached({"mod": module}, _reads(module) + _reads(program) + _reads(unit_test))
    # the unit test is not a reader: what only it calls is flagged, unless allowed
    unreached = _unreached({"mod": module}, _reads(module) + _reads(program))
    assert unreached == {"mod.tested", "mod.kept", "mod.C.method"}
    assert _allow_list_errors(unreached, {"mod.kept", "mod.C.method"}) == [
        "mod.tested is reached only by its unit tests"
    ]


def test_stale_allow_list_entry_fails():
    unreached = {"mod.kept"}
    assert _allow_list_errors(unreached, {"mod.kept"}) == []
    assert _allow_list_errors(unreached, {"mod.kept", "mod.used"}) == ["mod.used is allow-listed but reached"]
