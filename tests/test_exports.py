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


def unexported(name, source):
    """The sibling imports of module ``name``'s ``source`` that resolve to
    no public name: a public name left out of the sibling's ``__all__``,
    or, in ``from . import m``, a module m that is not a sibling."""
    missing = []
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.ImportFrom) and node.level == 1):
            continue
        if node.module is None:  # from . import m: each alias names a module
            missing += [f"{name}: .{alias.name}" for alias in node.names
                        if alias.name not in MODULES]
            continue
        exported = importlib.import_module(f"platoonkey.{node.module}").__all__
        missing += [f"{name}: {node.module}.{alias.name}" for alias in node.names
                    if not alias.name.startswith("_") and alias.name not in exported]
    return missing


def test_every_public_name_a_sibling_imports_is_in_its_all():
    sources = {name: (PACKAGE / f"{name}.py").read_text(encoding="utf-8")
               for name in MODULES}
    assert [m for name, source in sources.items() for m in unexported(name, source)] == []


def test_a_sibling_module_import_is_checked_as_a_module_name():
    source = ("from . import protocol, nosuch\n"
              "from .keygen import bmmr, _child, unlisted\n")
    assert unexported("demo", source) == ["demo: .nosuch", "demo: keygen.unlisted"]


def test_package_binds_no_library_name():
    # a name is imported from its module only: an alias on the package
    # would outlive a patch of the module attribute
    public = {n for name in MODULES
              for n in importlib.import_module(f"platoonkey.{name}").__all__}
    assert sorted(public & set(vars(platoonkey))) == []
    assert not hasattr(platoonkey, "__version__")
