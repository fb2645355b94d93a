"""Package surface: every exported name resolves."""

import importlib
import pkgutil

import pytest

import glassdyn

MODULES = ["glassdyn"] + [f"glassdyn.{info.name}"
                          for info in pkgutil.iter_modules(glassdyn.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ lists undefined names {missing}"
