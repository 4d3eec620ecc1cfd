"""Every name a module exports through ``__all__`` exists in it."""
import importlib
import pkgutil

import pytest

import bvlorentz

_MODULES = sorted(m.name for m in pkgutil.iter_modules(bvlorentz.__path__))


@pytest.mark.parametrize("name", _MODULES)
def test_every_all_entry_resolves(name):
    module = importlib.import_module(f"bvlorentz.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []
