"""Every name a qkflow module exports in `__all__` resolves and is listed once."""

import importlib
import pkgutil

import pytest

import qkflow

MODULES = ["qkflow"] + [
    f"qkflow.{info.name}" for info in pkgutil.iter_modules(qkflow.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve_once(name):
    module = importlib.import_module(name)
    exported = module.__all__
    assert len(exported) == len(set(exported)), sorted(
        n for n in exported if exported.count(n) > 1
    )
    missing = [n for n in exported if not hasattr(module, n)]
    assert not missing, missing
