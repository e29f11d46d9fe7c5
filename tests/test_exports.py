"""Public names: each module's ``__all__`` resolves, and it is the one
place a public name is bound; the package namespace re-exports none."""

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


def test_package_binds_no_library_name():
    # a name is imported from its module only: an alias on the package
    # would outlive a patch of the module attribute
    public = {n for name in MODULES
              for n in importlib.import_module(f"platoonkey.{name}").__all__}
    assert sorted(public & set(vars(platoonkey))) == []
    assert not hasattr(platoonkey, "__version__")
