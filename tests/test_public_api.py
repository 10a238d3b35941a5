import importlib
import pkgutil

import pytest

import aeblow

# every aeblow module that declares a public API
MODULES = [name for name in ["aeblow"] + [
    f"aeblow.{m.name}" for m in pkgutil.iter_modules(aeblow.__path__)]
    if hasattr(importlib.import_module(name), "__all__")]


@pytest.mark.parametrize("name", MODULES)
def test_all_lists_only_real_names(name):
    mod = importlib.import_module(name)
    missing = [n for n in mod.__all__ if not hasattr(mod, n)]
    assert not missing, f"{name}.__all__ names undefined {missing}"
    namespace = {}
    exec(f"from {name} import *", namespace)
    assert set(mod.__all__) <= set(namespace)
