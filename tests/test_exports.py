"""Every name a `clbf` module exports resolves."""

import importlib
import pkgutil

import pytest

import clbf

MODULES = ["clbf"] + [f"clbf.{m.name}" for m in pkgutil.iter_modules(clbf.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []
