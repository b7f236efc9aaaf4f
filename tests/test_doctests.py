import doctest
import importlib
import pkgutil
from pathlib import Path

import toricbound

# every module of the package except __main__, which runs the command line
# when imported
MODULES = sorted(
    info.name for info in pkgutil.iter_modules(toricbound.__path__)
    if info.name != "__main__"
)


def test_discovery_finds_the_modules_with_doctests():
    assert {"bounded", "cones", "fans", "hilbert", "intlin", "linalg"} <= set(MODULES)


def test_module_doctests():
    for name in MODULES:
        mod = importlib.import_module(f"toricbound.{name}")
        result = doctest.testmod(mod)
        assert result.failed == 0, mod.__name__


def test_readme_examples():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    result = doctest.testfile(str(readme), module_relative=False)
    assert result.attempted > 0 and result.failed == 0
