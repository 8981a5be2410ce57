import importlib
import pkgutil

import pytest

import mfhjb

MODULES = ["mfhjb"] + [f"mfhjb.{info.name}" for info in pkgutil.iter_modules(mfhjb.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    # a stale __all__ entry would make `from module import *` raise
    module = importlib.import_module(name)
    assert [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)] == []
