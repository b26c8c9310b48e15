"""Every name a module exports resolves: the benchmark's tracer walks these
lists, so a stale entry must fail here first."""

import importlib
import os
import pkgutil
import subprocess
import sys

import pytest

import coeffid

MODULES = sorted(m.name for m in pkgutil.iter_modules(coeffid.__path__))


@pytest.mark.parametrize("module", [None] + MODULES)
def test_all_names_resolve(module):
    mod = coeffid if module is None else importlib.import_module(f"coeffid.{module}")
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert not missing


def test_cli_import_loads_no_scipy_stats():
    # scipy.stats adds about 340 modules and 40 MB RSS to the import;
    # nothing in the package needs it, so importing the CLI must not load it
    code = "import sys, coeffid.cli; print(sorted(m for m in sys.modules if m.startswith('scipy.stats')))"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
