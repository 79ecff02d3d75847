"""Each module's ``__all__`` names what exists, and every public function and
class the module defines, ``main`` aside."""

import importlib
import inspect
import pkgutil

import pytest

import rxnpred

MODULES = [importlib.import_module(f"rxnpred.{info.name}")
           for info in pkgutil.iter_modules(rxnpred.__path__)]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_all_lists_every_public_def_and_class(module):
    listed = getattr(module, "__all__", [])
    assert [name for name in listed if not hasattr(module, name)] == []
    defined = [name for name, obj in vars(module).items()
               if (inspect.isfunction(obj) or inspect.isclass(obj))
               and obj.__module__ == module.__name__
               and not name.startswith("_") and name != "main"]
    assert sorted(set(defined) - set(listed)) == []
