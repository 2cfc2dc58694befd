"""Every name a module exports must exist, so ``import *`` keeps working."""

import importlib
import pkgutil

import pytest

import dulac

MODULES = [dulac] + [
    importlib.import_module(f"dulac.{info.name}")
    for info in pkgutil.iter_modules(dulac.__path__)
]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_all_names_resolve(module):
    missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert missing == []
