"""Public names: each module's ``__all__`` resolves and lists every
public name a sibling imports, and it is the one place a public name is
bound; the package namespace re-exports none."""

import ast
import importlib
from pathlib import Path

import pytest

import platoonkey

PACKAGE = Path(platoonkey.__file__).parent
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(f"platoonkey.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_every_public_name_a_sibling_imports_is_in_its_all():
    missing = []
    for name in MODULES:
        tree = ast.parse((PACKAGE / f"{name}.py").read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                exported = importlib.import_module(f"platoonkey.{node.module}").__all__
                missing += [f"{name}: {node.module}.{alias.name}" for alias in node.names
                            if not alias.name.startswith("_") and alias.name not in exported]
    assert missing == []


def test_package_binds_no_library_name():
    # a name is imported from its module only: an alias on the package
    # would outlive a patch of the module attribute
    public = {n for name in MODULES
              for n in importlib.import_module(f"platoonkey.{name}").__all__}
    assert sorted(public & set(vars(platoonkey))) == []
    assert not hasattr(platoonkey, "__version__")
