import importlib
import pkgutil

import pytest

import dprsim

MODULES = sorted(info.name for info in pkgutil.iter_modules(dprsim.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_is_defined(name):
    module = importlib.import_module(f"dprsim.{name}")
    exported = getattr(module, "__all__", ())
    assert [attr for attr in exported if not hasattr(module, attr)] == []
    exec(f"from dprsim.{name} import *", {})
