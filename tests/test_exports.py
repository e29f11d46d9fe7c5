"""Public names: each module's ``__all__`` resolves, and the package
namespace re-exports only names its modules declare public."""

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


def test_package_imports_only_names_in_all():
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    imported = [(node.module, alias.name) for node in tree.body
                if isinstance(node, ast.ImportFrom) and node.level == 1
                for alias in node.names]
    assert imported
    undeclared = [f"{module}.{name}" for module, name in imported
                  if name not in importlib.import_module(
                      f"platoonkey.{module}").__all__]
    assert undeclared == []
