"""Every name a tlcat module exports in ``__all__`` exists, so a deletion
cannot leave a stale export behind."""

import importlib
import pkgutil

import pytest

import tlcat

MODULES = ["tlcat"] + [f"tlcat.{m.name}" for m in pkgutil.iter_modules(tlcat.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing
