"""The public surface: every name a module lists in __all__ exists."""

import importlib
import pkgutil

import pytest

import paleokalman

_MODULES = ["paleokalman"] + [
    f"paleokalman.{m.name}" for m in pkgutil.iter_modules(paleokalman.__path__)
]


@pytest.mark.parametrize("name", _MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported)
    missing = [n for n in exported if not hasattr(module, n)]
    assert missing == []
    namespace = {}
    exec(f"from {name} import *", namespace)  # a stale name raises here
    assert set(exported) <= set(namespace)
