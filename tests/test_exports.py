"""Every name a module exports resolves: the benchmark's tracer walks these
lists, so a stale entry must fail here first."""

import importlib
import pkgutil

import pytest

import coeffid

MODULES = sorted(m.name for m in pkgutil.iter_modules(coeffid.__path__))


@pytest.mark.parametrize("module", [None] + MODULES)
def test_all_names_resolve(module):
    mod = coeffid if module is None else importlib.import_module(f"coeffid.{module}")
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert not missing
